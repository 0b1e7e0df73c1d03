// Streaming ingestion benchmark: how fast the front end turns a 1 Hz
// per-node feed into triggered raw windows.
//
// The sweep replays synthetic multi-node telemetry through StreamIngestor
// across window-length x stride configurations and reports ingest
// throughput (rows/sec) and windows emitted.
//
// --smoke runs the CI gate instead: a T=60 replay (clean + a gapped,
// NaN-ridden segment) asserting
//   * the feed has the intended shape — windows emit and dropouts leave
//     gaps;
//   * row conservation — accepted + duplicates + late_dropped equals the
//     rows pushed;
//   * window conservation — after a flush, emitted + dropped + flushed
//     equals the windows the feed opened;
//   * nonzero ingest throughput.
// Results (both modes) land in BENCH_stream.json for the CI artifact.
//
//   ./build/bench/bench_stream_ingest           # the sweep
//   ./build/bench/bench_stream_ingest --smoke   # CI gate, exit 1 on failure
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "alba.hpp"
#include "common/rng.hpp"

using namespace alba;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Synthetic 1 Hz rows: cumulative counters, sinusoid+noise gauges,
// optional NaN cells.
std::vector<std::vector<double>> make_rows(const MetricRegistry& registry,
                                           std::size_t t_total,
                                           std::uint64_t seed,
                                           double nan_cell_rate) {
  Rng rng(seed);
  const std::size_t m_count = registry.size();
  std::vector<double> level(m_count, 0.0);
  std::vector<std::vector<double>> rows(t_total,
                                        std::vector<double>(m_count));
  for (std::size_t t = 0; t < t_total; ++t) {
    for (std::size_t m = 0; m < m_count; ++m) {
      if (registry.metric(m).kind == MetricKind::Counter) {
        level[m] += rng.uniform(0.0, 5.0);
        rows[t][m] = level[m];
      } else {
        rows[t][m] = std::sin(0.3 * static_cast<double>(t) +
                              static_cast<double>(m)) +
                     0.1 * rng.normal();
      }
      if (nan_cell_rate > 0.0 && rng.uniform() < nan_cell_rate) {
        rows[t][m] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return rows;
}

struct ReplayResult {
  std::size_t windows = 0;
  IngestStats stats;          // summed over nodes, after the final flush
  double replay_seconds = 0;  // wall clock for the whole replay
  std::uint64_t rows_pushed = 0;
  std::uint64_t windows_opened = 0;  // counted from the feed shape
};

ReplayResult replay(const MetricRegistry& registry,
                    const StreamIngestConfig& cfg, std::size_t nodes,
                    std::size_t rows_per_node, std::uint64_t seed,
                    double nan_cell_rate, std::size_t gap_every) {
  std::vector<std::vector<std::vector<double>>> feeds;
  feeds.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    feeds.push_back(
        make_rows(registry, rows_per_node, seed + n, nan_cell_rate));
  }

  const auto dropped = [gap_every](std::size_t t, std::size_t n) {
    return gap_every != 0 && (t + n) % gap_every == 3;  // dropouts
  };

  StreamIngestor ingestor(registry, cfg);
  ReplayResult result;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < rows_per_node; ++t) {
    for (std::size_t n = 0; n < nodes; ++n) {
      if (dropped(t, n)) continue;
      result.windows +=
          ingestor.push(static_cast<int>(n), t, feeds[n][t]).size();
      ++result.rows_pushed;
    }
  }
  result.replay_seconds = seconds_since(t0);
  ingestor.flush();
  result.stats = ingestor.total_stats();

  // Windows open every `stride` rows from a node's first delivered row to
  // its last; no dropout run is long enough to reset a node.
  for (std::size_t n = 0; n < nodes; ++n) {
    std::size_t first = 0;
    while (first < rows_per_node && dropped(first, n)) ++first;
    std::size_t last = rows_per_node;
    while (last > first && dropped(last - 1, n)) --last;
    if (first < last) {
      result.windows_opened += (last - 1 - first) / cfg.stride + 1;
    }
  }
  return result;
}

struct BenchRow {
  std::string label;
  std::size_t window_length = 0;
  std::size_t stride = 0;
  std::uint64_t rows = 0;
  std::size_t windows = 0;
  double rows_per_sec = 0;
};

void write_json(const std::vector<BenchRow>& rows, const char* path) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    os << "  {\"config\": \"" << r.label << "\""
       << ", \"window_length\": " << r.window_length
       << ", \"stride\": " << r.stride << ", \"rows\": " << r.rows
       << ", \"windows\": " << r.windows
       << ", \"rows_per_sec\": " << r.rows_per_sec << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

BenchRow bench_row(std::string label, const StreamIngestConfig& cfg,
                   const ReplayResult& r) {
  BenchRow row;
  row.label = std::move(label);
  row.window_length = cfg.window_length;
  row.stride = cfg.stride;
  row.rows = r.rows_pushed;
  row.windows = r.windows;
  row.rows_per_sec =
      r.replay_seconds > 0
          ? static_cast<double>(r.rows_pushed) / r.replay_seconds
          : 0.0;
  return row;
}

int run_smoke(const MetricRegistry& registry, std::uint64_t seed) {
  std::size_t violations = 0;
  const auto check = [&violations](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("[smoke] VIOLATION: %s\n", what);
    }
  };

  // The acceptance configuration: T=60 windows, 4 nodes, overlapping
  // stride, light NaN cells plus periodic dropouts — a production-shaped
  // feed, not a best case.
  StreamIngestConfig cfg;
  cfg.window_length = 60;
  cfg.stride = 30;
  const ReplayResult r = replay(registry, cfg, /*nodes=*/4,
                                /*rows_per_node=*/3000, seed,
                                /*nan_cell_rate=*/0.03, /*gap_every=*/97);
  const BenchRow row = bench_row("smoke/T=60", cfg, r);
  const IngestStats& s = r.stats;

  check(r.windows > 0, "replay emitted no windows");
  check(s.missing_rows > 0, "dropouts injected no gaps (feed inert?)");
  check(s.accepted + s.duplicates + s.late_dropped == r.rows_pushed,
        "accepted + duplicates + late_dropped != rows pushed");
  check(s.windows_emitted == r.windows,
        "windows_emitted != windows returned by push");
  check(s.windows_emitted + s.windows_dropped + s.windows_flushed ==
            r.windows_opened,
        "emitted + dropped + flushed windows != windows opened");

  std::printf("[smoke] %s\n", format_ingest_summary(s).c_str());
  std::printf("[smoke] %zu windows (T=%zu) of %llu opened, %llu rows at "
              "%.0f rows/s\n",
              r.windows, cfg.window_length,
              static_cast<unsigned long long>(r.windows_opened),
              static_cast<unsigned long long>(r.rows_pushed),
              row.rows_per_sec);

  check(row.rows_per_sec > 0.0, "ingest throughput is zero");

  write_json({row}, "BENCH_stream.json");
  std::printf("[smoke] results written to BENCH_stream.json\n");

  if (violations != 0) {
    std::printf("[smoke] FAILED: %zu violated invariants\n", violations);
    return 1;
  }
  std::printf("[smoke] ok: rows and windows conserved across %zu windows\n",
              r.windows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 4;
  std::size_t rows_per_node = 5000;
  std::uint64_t seed = 11;
  bool smoke = false;
  Cli cli("bench_stream_ingest",
          "Streaming ingestion benchmark: rows/sec throughput across window "
          "shapes (--smoke for the CI conservation gate).");
  cli.flag("nodes", &nodes, "concurrently streamed nodes");
  cli.flag("rows", &rows_per_node, "1 Hz rows per node");
  cli.flag("seed", &seed, "feed generation seed");
  cli.flag("smoke", &smoke,
           "T=60 replay: assert row and window conservation");
  cli.parse(argc, argv);
  set_log_level(LogLevel::Warn);

  const MetricRegistry registry((SystemKind::Volta), RegistryConfig{});
  std::printf("[setup] %zu metrics, %zu nodes, %zu rows/node\n",
              registry.size(), nodes, rows_per_node);

  if (smoke) return run_smoke(registry, seed);

  const std::vector<std::pair<std::size_t, std::size_t>> configs = {
      {48, 24}, {48, 48}, {60, 30}, {96, 48}, {192, 96}};
  TextTable table({"config", "windows", "rows/s"});
  std::vector<BenchRow> rows;
  for (const auto& [length, stride] : configs) {
    StreamIngestConfig cfg;
    cfg.window_length = length;
    cfg.stride = stride;
    const BenchRow row =
        bench_row(strformat("L=%zu/S=%zu", length, stride), cfg,
                  replay(registry, cfg, nodes, rows_per_node, seed,
                         /*nan_cell_rate=*/0.02, /*gap_every=*/0));
    table.add_row({row.label, std::to_string(row.windows),
                   strformat("%.0f", row.rows_per_sec)});
    rows.push_back(row);
  }
  std::printf("\nstreaming ingest sweep (%zu nodes x %zu rows)\n%s\n",
              nodes, rows_per_node, table.render().c_str());
  write_json(rows, "BENCH_stream.json");
  std::printf("results written to BENCH_stream.json\n");
  return 0;
}
