// Shared plumbing of the benchmark workloads: run options, the metric
// record every workload fills, sample-count-checked percentiles, the
// result CRC, and the final JSON line.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "serving/diagnoser.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smaller data set and feed for the benchmark's own tests; the minimum
  // sample counts still hold.
  bool tiny = false;
  // Flips one bit of one result before the output check, to prove the
  // check catches it (the benchmark's own tests use this).
  bool perturb = false;
  std::string trace_csv;  // where the traced run writes its spans, if set
};

/// One reported number. `samples` is how many observations it summarizes
/// (0 for counts and for layers the workload does not exercise). Units
/// come from the metric tables below.
struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The metrics of BENCHMARK.json, in its order: end-to-end ones in an
/// untraced run, per-layer ones in a traced run.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// What a workload hands back to main.
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  // why `correct` is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;      // end-to-end or per-layer, per the mode
  std::vector<std::string> report;  // human-readable lines (stderr)
  std::string thread_budget;        // e.g. "feeder 1 + host workers 2"

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void add(std::string name, double value, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, samples});
  }
};

using Clock = std::chrono::steady_clock;
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// q-quantile (linear interpolation) that refuses to answer unless at least
/// ten samples lie beyond it: n * (1 - q) >= 10. Throws std::runtime_error
/// naming `what` otherwise. An empty input returns 0 (a layer the workload
/// does not exercise).
double checked_quantile(std::vector<double> values, double q,
                        const std::string& what);
double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Folds a diagnosis result (status, label, probability bits) into a
/// running CRC-32, in emit order.
std::uint32_t fold_result(std::uint32_t crc, const alba::DiagnosisResult& r);

/// Pins every thread of the process to the CPU the constructing thread runs
/// on, and restores each thread's affinity on destruction. The volta
/// stream hands every window from the feeder to a fleet host worker and
/// back; on one CPU those hand-offs are plain context switches instead of
/// wake-ups of another, possibly idle, virtual CPU, whose latency varies
/// with the machine's other load.
class PinThreads {
 public:
  PinThreads();
  ~PinThreads();
  PinThreads(const PinThreads&) = delete;
  PinThreads& operator=(const PinThreads&) = delete;

 private:
  std::vector<std::pair<pid_t, cpu_set_t>> saved_;
};

/// Threads the global pool was sized to (ALBA_THREADS).
std::size_t pool_threads();

/// Orders `out.metrics` as `specs` lists them. In a traced run a layer the
/// workload does not exercise is reported as 0 with 0 samples; any other
/// missing or unknown name is an error (std::runtime_error).
void order_metrics(Outcome& out, const std::vector<MetricSpec>& specs,
                   bool fill_missing);

/// Rows per simulated job run (T), and so per training sample.
constexpr std::size_t kRunRows = 64;

/// Set-ups per run; setup_s is their median (1 with Options::tiny).
constexpr int kSetupRepeats = 3;

/// The Volta (TSFRESH) or Eclipse (MVTS) data set, scaled so one set-up
/// takes a few seconds: 4 applications x 3 inputs, 4-node runs of kRunRows
/// rows, anomalous runs only, everything seeded from `seed`. `tiny` is a
/// third of that.
alba::DatasetConfig dataset_config(bool volta, std::uint64_t seed, bool tiny);

/// The workloads. Each fills `out` (metrics per opt.trace) and throws
/// std::exception on anything that stops it from measuring.
void run_stream_workload(const Options& opt, Outcome& out);
void run_al_workload(const Options& opt, Outcome& out);

}  // namespace perfbench
