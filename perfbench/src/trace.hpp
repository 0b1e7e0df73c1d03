// In-memory span recorder for the traced benchmark run.
//
// A span is (name, thread, start, end, item): `item` is the identifier the
// spans of one unit of work share (a feed tick, a query round), so spans
// recorded on pool threads can be joined to the feeder thread's work.
// Parents are not stored while recording; they are recovered afterwards by
// interval containment on each thread (spans on one thread nest, because
// every span closes before its enclosing one does).
//
// Timestamps are integer nanoseconds since the recorder's epoch, all from
// one std::chrono::steady_clock, and the CSV writer prints them as
// integers, so a span late in a long run keeps its sub-microsecond
// duration exactly.
//
// Recording is thread-safe: each thread appends to its own buffer, so the
// hot path takes no lock once a thread has registered.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint16_t name = 0;    // index into Tracer::names()
  std::uint16_t thread = 0;  // registration order; 0 = first thread seen
  std::uint32_t item = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration() const noexcept { return end_ns - start_ns; }
};

/// A span plus what the analysis derives for it.
struct AnalyzedSpan {
  Span span;
  std::int64_t parent = -1;   // index of the enclosing span, same thread
  std::int64_t self_ns = 0;   // duration minus the direct children
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name; call once per name, outside the hot path.
  std::uint16_t intern(std::string_view name);
  const std::vector<std::string>& names() const noexcept { return names_; }

  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Appends a finished span from the calling thread.
  void record(std::uint16_t name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t item = 0);

  /// Every span recorded so far, thread by thread, in recording order.
  /// Call only while no thread is recording.
  std::vector<Span> spans() const;
  void clear();

 private:
  struct Buffer {
    std::uint16_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t id_;  // distinguishes tracers in the thread-local cache
  std::vector<std::string> names_;
  mutable std::mutex mutex_;  // guards buffers_ (registration, snapshot)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on the calling thread; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint16_t name, std::uint32_t item = 0)
      : tracer_(tracer), name_(name), item_(item),
        start_(tracer != nullptr ? tracer->now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, start_, tracer_->now_ns(), item_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint16_t name_;
  std::uint32_t item_;
  std::int64_t start_;
};

/// Recovers parents and self times per thread by interval containment.
std::vector<AnalyzedSpan> analyze(const std::vector<Span>& spans);

/// Self time and call count per span name.
struct NameTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
};
std::map<std::string, NameTotals> totals_by_name(
    const std::vector<AnalyzedSpan>& spans,
    const std::vector<std::string>& names);

/// CSV: thread,name,start_ns,end_ns,parent,item — integers throughout.
void write_trace_csv(std::ostream& os, const std::vector<AnalyzedSpan>& spans,
                     const std::vector<std::string>& names);
/// Parses write_trace_csv output back (names re-interned in file order).
std::vector<AnalyzedSpan> read_trace_csv(std::istream& is,
                                         std::vector<std::string>& names);

/// Round-trips a span starting past 100 s with a sub-microsecond duration
/// through the CSV writer and reader; returns an empty string on success,
/// else what differed.
std::string trace_self_test();

}  // namespace perfbench
