#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

struct LocalCache {
  std::uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      id_(g_next_tracer_id.fetch_add(1)) {}

std::uint16_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::local_buffer() {
  if (t_cache.tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buf = std::make_unique<Buffer>();
    buf->thread = static_cast<std::uint16_t>(buffers_.size());
    buf->spans.reserve(1 << 16);
    t_cache.buffer = buf.get();
    t_cache.tracer_id = id_;
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<Buffer*>(t_cache.buffer);
}

void Tracer::record(std::uint16_t name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t item) {
  Buffer& buf = local_buffer();
  buf.spans.push_back(Span{name, buf.thread, item, start_ns, end_ns});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) b->spans.clear();
}

std::vector<AnalyzedSpan> analyze(const std::vector<Span>& spans) {
  std::vector<AnalyzedSpan> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i].span = spans[i];
    out[i].self_ns = spans[i].duration();
  }
  // Outer spans first: earlier start, then later end, then later record
  // (an enclosing span with the same bounds closes after its child).
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return a > b;
  });
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    if (!stack.empty() && spans[stack.back()].thread != s.thread) {
      stack.clear();
    }
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.start_ns <= s.start_ns && s.end_ns <= top.end_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      out[i].parent = static_cast<std::int64_t>(stack.back());
      out[stack.back()].self_ns -= s.duration();
    }
    stack.push_back(i);
  }
  return out;
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<AnalyzedSpan>& spans,
    const std::vector<std::string>& names) {
  std::map<std::string, NameTotals> out;
  for (const AnalyzedSpan& a : spans) {
    NameTotals& t = out[names.at(a.span.name)];
    t.self_ns += a.self_ns;
    t.total_ns += a.span.duration();
    t.count += 1;
  }
  return out;
}

void write_trace_csv(std::ostream& os, const std::vector<AnalyzedSpan>& spans,
                     const std::vector<std::string>& names) {
  os << "thread,name,start_ns,end_ns,parent,item\n";
  char line[256];
  for (const AnalyzedSpan& a : spans) {
    const int n = std::snprintf(
        line, sizeof line, "%u,%s,%" PRId64 ",%" PRId64 ",%" PRId64 ",%u\n",
        static_cast<unsigned>(a.span.thread), names.at(a.span.name).c_str(),
        a.span.start_ns, a.span.end_ns, a.parent,
        static_cast<unsigned>(a.span.item));
    os.write(line, n);
  }
}

std::vector<AnalyzedSpan> read_trace_csv(std::istream& is,
                                         std::vector<std::string>& names) {
  std::vector<AnalyzedSpan> out;
  std::string line;
  if (!std::getline(is, line)) return out;  // header
  while (std::getline(is, line)) {
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) f.push_back(cell);
    if (f.size() != 6) throw std::runtime_error("bad trace line: " + line);
    AnalyzedSpan a;
    a.span.thread = static_cast<std::uint16_t>(std::stoul(f[0]));
    const auto it = std::find(names.begin(), names.end(), f[1]);
    a.span.name = static_cast<std::uint16_t>(it - names.begin());
    if (it == names.end()) names.push_back(f[1]);
    a.span.start_ns = std::stoll(f[2]);
    a.span.end_ns = std::stoll(f[3]);
    a.parent = std::stoll(f[4]);
    a.span.item = static_cast<std::uint32_t>(std::stoul(f[5]));
    out.push_back(a);
  }
  return out;
}

std::string trace_self_test() {
  // 100.000000123 s into a run, 0.7 us long, plus an enclosing span and a
  // second thread's span, so parent recovery is exercised too.
  const std::int64_t t0 = 100'000'000'123;
  std::vector<Span> spans = {
      {1, 0, 7, t0, t0 + 700},
      {0, 0, 7, t0 - 5, t0 + 1'000},
      {1, 1, 8, t0 + 3, t0 + 4},
  };
  const std::vector<std::string> names = {"outer", "inner"};
  const std::vector<AnalyzedSpan> analyzed = analyze(spans);
  if (analyzed[0].parent != 1 || analyzed[1].parent != -1 ||
      analyzed[2].parent != -1) {
    return "parent recovery by containment failed";
  }
  if (analyzed[1].self_ns != 1'005 - 700 || analyzed[0].self_ns != 700) {
    return "self time is not duration minus children";
  }
  std::stringstream ss;
  write_trace_csv(ss, analyzed, names);
  std::vector<std::string> back_names;
  const std::vector<AnalyzedSpan> back = read_trace_csv(ss, back_names);
  if (back.size() != analyzed.size()) return "span count changed";
  for (std::size_t i = 0; i < back.size(); ++i) {
    const Span& a = analyzed[i].span;
    const Span& b = back[i].span;
    if (back_names.at(b.name) != names.at(a.name) || a.thread != b.thread ||
        a.item != b.item || a.start_ns != b.start_ns ||
        a.end_ns != b.end_ns || analyzed[i].parent != back[i].parent) {
      return "span " + std::to_string(i) + " did not round-trip exactly";
    }
  }
  if (back[0].span.duration() != 700) return "sub-us duration was rounded";
  return {};
}

}  // namespace perfbench
