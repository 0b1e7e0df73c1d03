#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/thread_pool.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},   {"macro_f1", "ratio"},
      {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"wire.bytes_per_row", "count"},
      {"wire.client_us_per_row", "us"},
      {"wire.transport_us_per_row", "us"},
      {"wire.rows_rejected", "count"},
      {"wire.duplicates_dropped", "count"},
      {"wire.decode_errors", "count"},
      {"streaming.server_us_per_row", "us"},
      {"streaming.push_us_per_row", "us"},
      {"streaming.diagnose_block_share", "ratio"},
      {"serving.diagnose_p50_us", "us"},
      {"serving.diagnose_p99_us", "us"},
      {"serving.queue_us_p50", "us"},
      {"serving.cache_hit_rate", "ratio"},
      {"serving.spilled_share", "ratio"},
      {"serving.rejected_share", "ratio"},
      {"features.extract_us_per_window", "us"},
      {"ml.predict_us_per_window", "us"},
      {"ml.fit_ms_p50", "ms"},
      {"ml.fit_ms_p95", "ms"},
      {"ml.pool_predict_us_per_row", "us"},
      {"active.select_ms_p50", "ms"},
      {"active.eval_ms_p50", "ms"},
      {"active.labels_to_target", "count"},
      {"setup.dataset_s", "s"},
      {"setup.train_s", "s"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return specs;
}

double checked_quantile(std::vector<double> values, double q,
                        const std::string& what) {
  if (values.empty()) return 0.0;
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (beyond < 10.0) {
    char msg[256];
    std::snprintf(msg, sizeof msg,
                  "%s: %zu samples leave %.1f beyond the %g quantile; "
                  "at least 10 are required",
                  what.c_str(), values.size(), beyond, q);
    throw std::runtime_error(msg);
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::uint32_t fold_result(std::uint32_t crc, const alba::DiagnosisResult& r) {
  const auto fold = [&crc](const void* p, std::size_t n) {
    crc = alba::crc32_update(
        crc, {static_cast<const std::uint8_t*>(p), n});
  };
  const auto status = static_cast<std::int32_t>(r.status);
  fold(&status, sizeof status);
  fold(&r.diagnosis.label, sizeof r.diagnosis.label);
  for (const double p : r.diagnosis.probs) fold(&p, sizeof p);
  return crc;
}

alba::DatasetConfig dataset_config(bool volta, std::uint64_t seed,
                                   bool tiny) {
  alba::DatasetConfig cfg = volta ? alba::volta_config() : alba::eclipse_config();
  cfg.num_apps = tiny ? 2 : 4;
  cfg.inputs_per_app = tiny ? 2 : 3;
  cfg.sim.duration_steps = kRunRows;
  cfg.plan.node_counts.clear();
  cfg.plan.nodes_per_run = 4;
  // Node 0 of every anomalous run carries the anomaly; no extra healthy
  // runs, so every class has enough samples for a steady F1.
  cfg.plan.anomaly_ratio = 0.25;
  cfg.plan.seed = seed;
  cfg.seed = seed;
  return cfg;
}

PinThreads::PinThreads() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename()));
    cpu_set_t old;
    if (sched_getaffinity(tid, sizeof old, &old) != 0) continue;
    if (sched_setaffinity(tid, sizeof one, &one) != 0) continue;
    saved_.emplace_back(tid, old);
  }
}

PinThreads::~PinThreads() {
  for (const auto& [tid, mask] : saved_) {
    sched_setaffinity(tid, sizeof mask, &mask);
  }
}

std::size_t pool_threads() { return alba::global_pool().size(); }

void order_metrics(Outcome& out, const std::vector<MetricSpec>& specs,
                   bool fill_missing) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    const auto it =
        std::find_if(out.metrics.begin(), out.metrics.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (it != out.metrics.end()) {
      ordered.push_back(*it);
    } else if (fill_missing) {
      ordered.push_back({spec.name, 0.0, 0});
    } else {
      throw std::runtime_error(std::string("metric not measured: ") +
                               spec.name);
    }
  }
  for (const Metric& m : out.metrics) {
    const bool known =
        std::any_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
          return m.name == s.name;
        });
    if (!known) throw std::runtime_error("unknown metric: " + m.name);
  }
  out.metrics = std::move(ordered);
}

}  // namespace perfbench
