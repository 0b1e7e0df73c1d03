// Aggregate instrumentation of the online diagnosis path, following the
// RoundStats idiom from the active-learning loop: the service records phase
// timings (feature extraction vs. model forward pass), window counts, and
// cache accounting as it serves, and exposes an immutable
// snapshot with derived throughput and latency percentiles. Benches and the
// smoke stage consume the same snapshot instead of re-instrumenting the
// service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alba {

/// Snapshot of a DiagnosisService's counters since construction (or the
/// last reset_stats). Latency percentiles cover the most recent windows
/// (an OutcomeWindow of DiagnosisService::kLatencyWindow samples).
struct ServingStats {
  std::uint64_t windows = 0;       // windows diagnosed, cache hits included
  std::uint64_t cache_hits = 0;    // windows answered from the LRU cache
  std::uint64_t cache_misses = 0;  // windows that ran the full pipeline
  // Cache entries evicted because a full-key check disproved a 64-bit hash
  // match (two distinct windows colliding on the same content hash).
  std::uint64_t collision_evictions = 0;
  double extract_seconds = 0.0;    // preprocess + feature extraction
  double predict_seconds = 0.0;    // classifier forward passes
  // Per-call time summed across workers — under concurrent serving this
  // exceeds elapsed time, so throughput must not divide by it.
  double total_seconds = 0.0;
  // Monotonic span from the first window's start to the latest window's
  // end — the denominator of windows_per_second().
  double wall_seconds = 0.0;
  double latency_p50_ms = 0.0;     // per-window latency percentiles
  double latency_p99_ms = 0.0;
  // Tail and floor of the same ring: p99.9 is the metric the per-window
  // serving path optimizes, min bounds what the hardware allows.
  double latency_p999_ms = 0.0;
  double latency_min_ms = 0.0;

  double hit_rate() const noexcept {
    const std::uint64_t n = cache_hits + cache_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(cache_hits) / static_cast<double>(n);
  }
  /// Throughput over the wall-clock serving span. Falls back to the
  /// accumulated per-call time for hand-built snapshots that never set
  /// wall_seconds (single-threaded, the two coincide).
  double windows_per_second() const noexcept {
    const double denom = wall_seconds > 0.0 ? wall_seconds : total_seconds;
    return denom > 0.0 ? static_cast<double>(windows) / denom : 0.0;
  }
};

/// Linear-interpolation percentile over unsorted samples; q in [0, 1].
/// Returns 0 for an empty span.
double latency_percentile(std::span<const double> latencies_ms, double q);

/// Fixed-capacity ring of the most recent (latency ms, failed) outcomes —
/// the one rolling window behind every serving tier's latency percentiles
/// and circuit breakers (service latency ring, host health and queue
/// windows, fleet per-replica windows, rollout guard windows). Once full,
/// each record overwrites the oldest sample. Not thread-safe: the owner
/// guards it with the lock that guards its other counters.
class OutcomeWindow {
 public:
  explicit OutcomeWindow(std::size_t capacity);

  void record(double ms, bool failed);
  void clear() noexcept;

  std::size_t size() const noexcept { return ms_.size(); }
  /// Fraction of the held samples that failed; 0 when empty.
  double error_rate() const noexcept;
  /// latency_percentile over the held samples.
  double percentile(double q) const;
  /// The held latencies, in ring (not arrival) order.
  std::span<const double> samples() const noexcept { return ms_; }

  /// The breaker predicate: with at least `min_samples` held, true when
  /// error_rate() > max_error_rate (strict) or, if max_p99_ms > 0, when
  /// percentile(0.99) > max_p99_ms.
  bool breached(std::size_t min_samples, double max_error_rate,
                double max_p99_ms) const;

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::size_t failures_ = 0;
  std::vector<double> ms_;
  std::vector<bool> failed_;
};

/// One human-readable line, e.g.
///   "640 windows: 123.4 win/s, p50 1.2ms, p99 4.5ms, cache 37.5%
///    (extract 3.1s, predict 1.0s)".
std::string format_serving_summary(const ServingStats& s);

/// CSV column names matching serving_stats_csv_row field order; the leading
/// `label` column tags the configuration (e.g. "threads=4") so one file can
/// hold a whole sweep.
std::string serving_stats_csv_header();
std::string serving_stats_csv_row(std::string_view label,
                                  const ServingStats& s);

/// Writes header + one row per (label, stats) entry — the serving twin of
/// write_round_stats_csv, so sweep output lands in one file per run.
void write_serving_stats_csv(
    std::ostream& os,
    std::span<const std::pair<std::string, ServingStats>> rows);

/// Fleet-level roll-up of per-replica snapshots: counters and phase times
/// sum exactly; wall_seconds is the max (replicas serve concurrently, so
/// their spans overlap rather than concatenate); latency percentiles are
/// window-count-weighted means of the per-replica percentiles — replicas
/// with zero windows contribute nothing. The weighting is a reporting
/// approximation (percentiles do not compose); exact fleet percentiles
/// come from ServingFleet's merged latency sample windows (fleet.hpp).
ServingStats merge_serving_stats(std::span<const ServingStats> parts);

/// write_serving_stats_csv with one per-replica row per entry plus a
/// trailing fleet-aggregate row (label "fleet") from merge_serving_stats.
/// Same RFC-4180 escaping rules, so per-replica labels with commas or
/// quotes parse back intact.
void write_fleet_serving_csv(
    std::ostream& os,
    std::span<const std::pair<std::string, ServingStats>> replicas);

}  // namespace alba
