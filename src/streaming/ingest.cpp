#include "streaming/ingest.hpp"

#include <limits>
#include <ostream>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"

namespace alba {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::string_view to_string(GapPolicy policy) noexcept {
  switch (policy) {
    case GapPolicy::Repair: return "repair";
    case GapPolicy::Strict: return "strict";
  }
  return "unknown";
}

IngestStats& IngestStats::operator+=(const IngestStats& o) noexcept {
  accepted += o.accepted;
  duplicates += o.duplicates;
  reordered += o.reordered;
  late_dropped += o.late_dropped;
  missing_rows += o.missing_rows;
  resets += o.resets;
  windows_emitted += o.windows_emitted;
  windows_dropped += o.windows_dropped;
  windows_flushed += o.windows_flushed;
  rejected_backpressure += o.rejected_backpressure;
  decode_errors += o.decode_errors;
  return *this;
}

std::string format_ingest_summary(const IngestStats& s) {
  std::string line = strformat(
      "rows: %llu accepted (%llu repaired), %llu dup, %llu late, "
      "%llu missing, %llu resets; windows: %llu emitted, %llu dropped, "
      "%llu flushed",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.reordered),
      static_cast<unsigned long long>(s.duplicates),
      static_cast<unsigned long long>(s.late_dropped),
      static_cast<unsigned long long>(s.missing_rows),
      static_cast<unsigned long long>(s.resets),
      static_cast<unsigned long long>(s.windows_emitted),
      static_cast<unsigned long long>(s.windows_dropped),
      static_cast<unsigned long long>(s.windows_flushed));
  if (s.rejected_backpressure > 0 || s.decode_errors > 0) {
    line += strformat(
        "; wire: %llu shed, %llu decode errors",
        static_cast<unsigned long long>(s.rejected_backpressure),
        static_cast<unsigned long long>(s.decode_errors));
  }
  return line;
}

std::string ingest_stats_csv_header() {
  return "label,accepted,duplicates,reordered,late_dropped,missing_rows,"
         "resets,windows_emitted,windows_dropped,windows_flushed,"
         "rejected_backpressure,decode_errors";
}

std::string ingest_stats_csv_row(std::string_view label,
                                 const IngestStats& s) {
  // The label is free-form source text (e.g. a node name from a recorded
  // feed); RFC-4180 quoting keeps a comma or quote in it from shearing
  // columns.
  return csv_escape(std::string(label)) +
         strformat(
             ",%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
             static_cast<unsigned long long>(s.accepted),
             static_cast<unsigned long long>(s.duplicates),
             static_cast<unsigned long long>(s.reordered),
             static_cast<unsigned long long>(s.late_dropped),
             static_cast<unsigned long long>(s.missing_rows),
             static_cast<unsigned long long>(s.resets),
             static_cast<unsigned long long>(s.windows_emitted),
             static_cast<unsigned long long>(s.windows_dropped),
             static_cast<unsigned long long>(s.windows_flushed),
             static_cast<unsigned long long>(s.rejected_backpressure),
             static_cast<unsigned long long>(s.decode_errors));
}

void write_ingest_stats_csv(
    std::ostream& os,
    std::span<const std::pair<std::string, IngestStats>> rows) {
  os << ingest_stats_csv_header() << "\n";
  for (const auto& [label, stats] : rows) {
    os << ingest_stats_csv_row(label, stats) << "\n";
  }
}

StreamIngestor::StreamIngestor(MetricRegistry registry,
                               StreamIngestConfig config)
    : registry_(std::move(registry)), config_(config) {
  ALBA_CHECK(config_.stride > 0) << "stride must be positive";
  ALBA_CHECK(config_.preprocess.trim_head >= 0 &&
             config_.preprocess.trim_tail >= 0);
  const auto head = static_cast<std::size_t>(config_.preprocess.trim_head);
  const auto tail = static_cast<std::size_t>(config_.preprocess.trim_tail);
  ALBA_CHECK(config_.window_length > head + tail + 1)
      << "window_length " << config_.window_length << " too short for trim "
      << head << "+" << tail;
  capacity_ = config_.window_length + config_.stride;
}

void StreamIngestor::mark_row(NodeState& ns, int node, std::uint64_t s,
                              std::span<const double> values, bool delivered,
                              std::vector<TriggeredWindow>& out) {
  if (s == ns.next_open) {
    ns.windows.push_back(WindowState{s, 0});
    ns.next_open += config_.stride;
  }

  const std::size_t idx = slot(ns, s);
  if (delivered) {
    double* row = ns.ring.data() + idx * registry_.size();
    for (std::size_t m = 0; m < registry_.size(); ++m) row[m] = values[m];
    ns.present[idx] = 1;
    ++ns.stats.accepted;
  } else {
    ns.present[idx] = 0;
    ++ns.stats.missing_rows;
    for (WindowState& w : ns.windows) {
      if (s >= w.start && s < w.start + config_.window_length) ++w.missing;
    }
  }

  // Window ends are strictly increasing by stride, so only the front can
  // complete at this row.
  if (!ns.windows.empty() &&
      s + 1 == ns.windows.front().start + config_.window_length) {
    emit_front(ns, node, out);
  }
}

void StreamIngestor::repair_row(NodeState& ns, std::uint64_t seq,
                                std::span<const double> values) {
  const std::size_t idx = slot(ns, seq);
  double* row = ns.ring.data() + idx * registry_.size();
  for (std::size_t m = 0; m < registry_.size(); ++m) row[m] = values[m];
  ns.present[idx] = 1;
  ++ns.stats.accepted;
  ++ns.stats.reordered;
  --ns.stats.missing_rows;

  for (WindowState& w : ns.windows) {
    if (seq >= w.start && seq < w.start + config_.window_length) --w.missing;
  }
}

void StreamIngestor::emit_front(NodeState& ns, int node,
                                std::vector<TriggeredWindow>& out) {
  const WindowState w = ns.windows.front();
  ns.windows.pop_front();
  ns.frontier = ns.windows.empty() ? ns.next_open : ns.windows.front().start;

  const bool drop =
      config_.gap_policy == GapPolicy::Strict
          ? w.missing > 0
          : w.missing > config_.max_missing;
  if (drop) {
    ++ns.stats.windows_dropped;
    return;
  }

  const std::size_t m_count = registry_.size();
  const std::size_t length = config_.window_length;
  Matrix raw(length, m_count);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t idx = slot(ns, w.start + i);
    std::span<double> dst = raw.row(i);
    if (ns.present[idx]) {
      const double* src = ns.ring.data() + idx * m_count;
      for (std::size_t m = 0; m < m_count; ++m) dst[m] = src[m];
    } else {
      for (std::size_t m = 0; m < m_count; ++m) dst[m] = kNaN;
    }
  }

  TriggeredWindow t;
  t.node = node;
  t.start_seq = w.start;
  t.raw = std::move(raw);
  t.missing_rows = w.missing;
  ++ns.stats.windows_emitted;
  out.push_back(std::move(t));
}

void StreamIngestor::reset_node(NodeState& ns, std::uint64_t seq) {
  ns.stats.windows_dropped += ns.windows.size();
  ++ns.stats.resets;
  ns.windows.clear();
  ns.base = seq;
  ns.frontier = seq;
  ns.next_open = seq;
  ns.next_mark = seq;
}

std::vector<TriggeredWindow> StreamIngestor::push(
    int node, std::uint64_t seq, std::span<const double> values) {
  ALBA_CHECK(values.size() == registry_.size())
      << "row has " << values.size() << " metrics, registry has "
      << registry_.size();
  std::vector<TriggeredWindow> out;
  NodeState& ns = nodes_[node];
  if (!ns.started) {
    ns.started = true;
    ns.ring.assign(capacity_ * registry_.size(), 0.0);
    ns.present.assign(capacity_, 0);
    ns.base = seq;
    ns.frontier = seq;
    ns.next_open = seq;
    ns.next_mark = seq;
  } else if (seq < ns.next_mark) {
    if (seq < ns.frontier) {
      // The row lands inside an already-emitted (or skipped) span: emitted
      // windows are immutable history, so the ring is NOT overwritten.
      ++ns.stats.late_dropped;
      return out;
    }
    if (ns.present[slot(ns, seq)]) {
      ++ns.stats.duplicates;  // first value wins
      return out;
    }
    repair_row(ns, seq, values);
    return out;
  } else if (seq - ns.next_mark >= capacity_) {
    // Forward jump past everything the ring could still complete (a
    // collector restart): drop the in-flight windows and re-anchor.
    reset_node(ns, seq);
  }

  for (std::uint64_t s = ns.next_mark; s <= seq; ++s) {
    mark_row(ns, node, s, values, /*delivered=*/s == seq, out);
  }
  ns.next_mark = seq + 1;
  return out;
}

void StreamIngestor::flush() {
  for (auto& [node, ns] : nodes_) {
    ns.stats.windows_flushed += ns.windows.size();
    ns.windows.clear();
    ns.frontier = ns.next_open;
  }
}

IngestStats StreamIngestor::stats(int node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? IngestStats{} : it->second.stats;
}

IngestStats StreamIngestor::total_stats() const {
  IngestStats total;
  for (const auto& [node, ns] : nodes_) total += ns.stats;
  return total;
}

std::size_t StreamIngestor::windows_in_flight(int node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.windows.size();
}

}  // namespace alba
