// perfbench: the end-to-end benchmark of the ALBADross pipeline.
//
//   perfbench --workload <volta_sliding|eclipse_tumbling|volta_al_session>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-csv <path>] [--tiny] [--perturb]
//   perfbench --self-test
//
// Standard output ends with one JSON line {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The line before it starts with
// "perfbench-run " and records the run discipline (machine, thread budget,
// build, sample counts). Human-readable detail goes to standard error.
// Exit codes: 0 correct, 1 an output or conservation check failed (the
// result line says correct=false), 2 the run could not measure.
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* unit_of(const std::string& name,
                    const std::vector<MetricSpec>& specs) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return s.unit;
  }
  return "";
}

void print_result(const Options& opt, const std::string& commit,
                  const Outcome& out) {
  const std::vector<MetricSpec>& specs =
      opt.trace ? per_layer_specs() : end_to_end_specs();
  std::string run = "perfbench-run {\"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + number(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"pool_threads\": " + std::to_string(pool_threads()) +
                    ", \"thread_budget\": \"" + json_escape(out.thread_budget) +
                    "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                    "\", \"commit\": \"" + json_escape(commit) +
                    "\", \"samples\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    run += (i ? ", \"" : "\"") + out.metrics[i].name +
           "\": " + std::to_string(out.metrics[i].samples);
  }
  run += "}, \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    run += (i ? ", \"" : "\"") + json_escape(out.errors[i]) + "\"";
  }
  run += "]}";
  std::printf("%s\n", run.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + unit_of(m.name, specs) +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int trace = 0;
  bool self_test = false;
  std::string commit = "unknown";
  alba::Cli cli("perfbench",
                "End-to-end benchmark of the ALBADross pipeline: streamed "
                "telemetry to typed diagnoses, and the active-learning "
                "query loop.");
  cli.flag("workload", &opt.workload,
           "volta_sliding | eclipse_tumbling | volta_al_session");
  cli.flag("seed", &opt.seed, "seeds the data set, the feed and the split");
  cli.flag("seconds", &opt.seconds, "measured time per run");
  cli.flag("trace", &trace, "1 = traced run reporting per-layer metrics");
  cli.flag("commit", &commit, "source revision, recorded in the result");
  cli.flag("trace-csv", &opt.trace_csv, "write the traced run's spans here");
  cli.flag("tiny", &opt.tiny, "smaller set-up, for the benchmark's tests");
  cli.flag("perturb", &opt.perturb,
           "flip one result bit to prove the output check fails");
  cli.flag("self-test", &self_test, "round-trip the trace writer and exit");
  cli.parse(argc, argv);
  alba::set_log_level(alba::LogLevel::Warn);
  opt.trace = trace != 0;
  // A fixed mmap threshold: large blocks always go straight back to the
  // OS, so peak RSS does not depend on glibc's adaptive threshold, which
  // moves with the order of earlier frees.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);

  if (self_test) {
    const std::string err = trace_self_test();
    std::printf("trace self-test: %s\n", err.empty() ? "ok" : err.c_str());
    return err.empty() ? 0 : 1;
  }

  Outcome out;
  try {
    if (opt.workload == "volta_sliding" ||
        opt.workload == "eclipse_tumbling") {
      run_stream_workload(opt, out);
    } else if (opt.workload == "volta_al_session") {
      run_al_workload(opt, out);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    order_metrics(out, opt.trace ? per_layer_specs() : end_to_end_specs(),
                  opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& line : out.report) {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  for (const std::string& err : out.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", err.c_str());
  }
  print_result(opt, commit, out);
  return out.correct ? 0 : 1;
}
