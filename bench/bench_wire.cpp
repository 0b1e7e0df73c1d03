// Wire transport benchmark + CI gates: the framed socket layer
// (WireClient -> IngestServer -> StreamIngestor) under clean and hostile
// networks.
//
// The default sweep replays synthetic 1 Hz telemetry through the loopback
// transport across node counts and reports wire throughput (rows/sec),
// bytes on the wire, and windows triggered.
//
// --smoke runs the CI gate: a clean loopback replay asserting
//   * conservation — every offered row is acked and disposed exactly once
//     (watermark == ingested + typed-rejected, nothing lost);
//   * bit-identical windows — start sequences and raw matrices match an
//     in-process StreamIngestor::push replay of the same feed;
//   * diagnosis parity — a trained RF bundle attached to the server
//     diagnoses a streamed run identically (label + bit-equal probas) to
//     DiagnosisService::diagnose on the same series in process;
//   * nonzero wire throughput.
//
// --chaos-smoke runs the resilience gate: seeded scenarios (frame
// corruption, duplicated frames, torn-frame drops with reconnect,
// slow-loris trickle, backpressure flood, server restart from snapshot)
// each asserting the conservation invariant — every sent row ends exactly
// once in {ingested, typed-rejected}, never double-ingested, never
// silently lost — plus the scenario's own expectations (typed decode
// errors, duplicate drops, timeouts, reconnects, sheds). Results (all
// modes) land in BENCH_wire.json for the CI artifact.
//
//   ./build/bench/bench_wire                 # the sweep
//   ./build/bench/bench_wire --smoke         # CI gate, exit 1 on failure
//   ./build/bench/bench_wire --chaos-smoke   # CI resilience gate
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alba.hpp"
#include "common/rng.hpp"

using namespace alba;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool bits_equal(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Small registry so scenarios run in milliseconds of wall clock.
MetricRegistry bench_registry() {
  RegistryConfig rc;
  rc.cores = 2;
  rc.nics = 1;
  rc.filler_gauges = 1;
  return MetricRegistry(SystemKind::Volta, rc);
}

StreamIngestConfig bench_stream_config() {
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 8;
  cfg.preprocess.trim_head = 2;
  cfg.preprocess.trim_tail = 2;
  return cfg;
}

// Synthetic 1 Hz rows: cumulative counters, sinusoid+noise gauges,
// occasional NaN cells (the same feed shape bench_stream_ingest uses).
std::vector<std::vector<double>> make_rows(const MetricRegistry& registry,
                                           std::size_t t_total,
                                           std::uint64_t seed) {
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
      if (rng.uniform() < 0.01) {
        rows[t][m] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return rows;
}

// ------------------------------------------------------ scenario runner ---

struct ScenarioSpec {
  std::string label;
  std::size_t nodes = 2;
  std::size_t rows_per_node = 150;
  WireChaosConfig chaos;        // zero rates = clean wire
  bool use_chaos = false;
  std::size_t disarm_at_step = 0;   // 0 = never armed
  std::size_t node_rows_per_poll = 100000;  // effectively unlimited
  double peer_timeout_ms = 10000.0;
  bool restart_server = false;      // kill + resume from snapshot midway
  std::size_t max_steps = 30000;
  // Post-run expectations (beyond conservation, which always applies).
  bool expect_window_parity = true;   // off when sheds can drop rows
  bool expect_decode_errors = false;
  bool expect_duplicates = false;
  bool expect_timeouts = false;
  bool expect_reconnects = false;
  bool expect_sheds = false;
};

struct ScenarioResult {
  std::string label;
  std::size_t nodes = 0;
  std::uint64_t offered = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t bytes_sent = 0;
  std::size_t windows = 0;
  double wall_seconds = 0.0;
  double rows_per_sec = 0.0;
  std::size_t violations = 0;
};

ScenarioResult run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioResult res;
  res.label = spec.label;
  res.nodes = spec.nodes;
  std::size_t violations = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("[chaos] VIOLATION in %s: %s\n", spec.label.c_str(), what);
    }
  };

  const MetricRegistry registry = bench_registry();
  const StreamIngestConfig stream_cfg = bench_stream_config();

  // Per-node feeds, plus the in-process reference replay they must match.
  std::vector<std::vector<std::vector<double>>> feeds;
  StreamIngestor reference(registry, stream_cfg);
  std::vector<std::vector<TriggeredWindow>> ref_windows(spec.nodes);
  for (std::size_t n = 0; n < spec.nodes; ++n) {
    feeds.push_back(make_rows(registry, spec.rows_per_node, seed + n));
    for (std::size_t t = 0; t < feeds[n].size(); ++t) {
      for (TriggeredWindow& w :
           reference.push(static_cast<int>(n), t, feeds[n][t])) {
        ref_windows[n].push_back(std::move(w));
      }
    }
  }

  LoopbackHub hub;
  StreamIngestor ingestor(registry, stream_cfg);
  IngestServerConfig server_cfg;
  server_cfg.node_rows_per_poll = spec.node_rows_per_poll;
  server_cfg.peer_timeout_ms = spec.peer_timeout_ms;
  auto server = std::make_unique<IngestServer>(hub.make_listener(), ingestor,
                                               server_cfg);

  std::unique_ptr<WireChaos> chaos;
  Connector connect = [&hub] { return hub.connect(); };
  if (spec.use_chaos) {
    WireChaosConfig cc = spec.chaos;
    cc.seed = seed ^ 0xC4A05u;
    chaos = std::make_unique<WireChaos>(cc);
    connect = chaos->wrap(connect);
    chaos->arm(spec.disarm_at_step > 0);
  }

  std::vector<std::unique_ptr<WireClient>> clients;
  std::vector<std::size_t> next_offer(spec.nodes, 0);
  for (std::size_t n = 0; n < spec.nodes; ++n) {
    WireClientConfig cc;
    cc.node = static_cast<std::uint32_t>(n);
    cc.metric_count = static_cast<std::uint32_t>(registry.size());
    cc.max_rows_per_step = 512;
    cc.reconnect.seed = seed + 71 * n;
    cc.reconnect.max_attempts = 1 << 20;
    cc.reconnect.initial_delay_ms = 1.0;
    cc.reconnect.max_delay_ms = 8.0;
    clients.push_back(std::make_unique<WireClient>(connect, cc));
  }

  std::vector<ServedWindow> served;
  IngestServerSnapshot snap;
  bool restarted = false;
  std::size_t server_down_until = 0;
  double now = 0.0;
  std::size_t step = 0;
  const Clock::time_point t0 = Clock::now();
  for (; step < spec.max_steps; ++step) {
    if (chaos != nullptr) {
      if (spec.disarm_at_step > 0 && step == spec.disarm_at_step) {
        chaos->arm(false);
      }
      chaos->set_now(now);
    }
    // Server restart fault: once half the first node's feed is disposed,
    // kill the server (clients see dead connections + refused reconnects),
    // then bring up a new incarnation from the snapshot.
    if (spec.restart_server && !restarted && server != nullptr &&
        server->watermark(0) >= spec.rows_per_node / 2) {
      snap = server->snapshot();
      for (ServedWindow& w : server->take_served()) {
        served.push_back(std::move(w));
      }
      server.reset();
      restarted = true;
      server_down_until = step + 25;
    }
    if (restarted && server == nullptr && step >= server_down_until) {
      server = std::make_unique<IngestServer>(hub.make_listener(), ingestor,
                                              snap, server_cfg);
    }

    bool all_idle = true;
    for (std::size_t n = 0; n < spec.nodes; ++n) {
      WireClient& c = *clients[n];
      while (next_offer[n] < feeds[n].size() &&
             c.offer(next_offer[n], static_cast<double>(next_offer[n]),
                     feeds[n][next_offer[n]])) {
        ++next_offer[n];
      }
      c.step(now);
      if (next_offer[n] < feeds[n].size() || !c.idle()) all_idle = false;
    }
    if (server != nullptr) {
      server->poll_once(now);
      for (ServedWindow& w : server->take_served()) {
        served.push_back(std::move(w));
      }
    }
    for (auto& c : clients) c->step(now);
    now += 1.0;
    if (all_idle && server != nullptr) break;
  }
  res.wall_seconds = seconds_since(t0);

  // ---- conservation: acked == offered, disposed exactly once ------------
  check(step < spec.max_steps, "scenario did not converge to idle");
  if (server == nullptr) {
    check(false, "server still down at scenario end");
    res.violations = violations;
    return res;
  }
  for (std::size_t n = 0; n < spec.nodes; ++n) {
    const WireClient& c = *clients[n];
    res.offered += c.stats().rows_offered;
    res.retransmits += c.stats().retransmits;
    res.reconnects += c.stats().disconnects;
    res.bytes_sent += c.stats().bytes_sent;
    check(c.stats().rows_offered == feeds[n].size(), "offer() refused rows");
    check(c.stats().rows_acked == c.stats().rows_offered,
          "rows offered but never acked");
    check(c.unacked() == 0, "rows left pending after convergence");
    check(server->watermark(static_cast<int>(n)) == feeds[n].size(),
          "watermark != rows offered");
    const IngestStats s = server->stats(static_cast<int>(n));
    check(s.accepted + s.duplicates + s.late_dropped +
                  s.rejected_backpressure ==
              feeds[n].size(),
          "node rows not conserved across ingest dispositions");
  }
  // Snapshot counters are cumulative across a server restart (the wire
  // stats of a restarted incarnation are not), so the per-node invariant
  // is checked there: every index below the watermark was disposed exactly
  // once, as an ingest or a typed shed.
  const IngestServerSnapshot end_snap = server->snapshot();
  for (const IngestServerSnapshot::Node& n : end_snap.nodes) {
    check(n.watermark == n.rows_pushed + n.rejected_backpressure,
          "watermark != ingested + shed");
    res.ingested += n.rows_pushed;
    res.shed += n.rejected_backpressure;
    res.decode_errors += n.decode_errors;
  }
  const WireServerStats& ws = server->wire_stats();
  res.duplicates_dropped = ws.duplicates_dropped;
  res.timeouts = ws.timeouts;
  res.windows = served.size();
  res.rows_per_sec = res.wall_seconds > 0
                         ? static_cast<double>(res.offered) / res.wall_seconds
                         : 0.0;

  // ---- parity: the wire changed nothing the ingestor could observe ------
  if (spec.expect_window_parity) {
    check(res.shed == 0, "unexpected sheds in a parity scenario");
    std::vector<std::vector<const TriggeredWindow*>> by_node(spec.nodes);
    for (const ServedWindow& w : served) {
      const auto n = static_cast<std::size_t>(w.window.node);
      if (n < spec.nodes) by_node[n].push_back(&w.window);
    }
    for (std::size_t n = 0; n < spec.nodes; ++n) {
      check(by_node[n].size() == ref_windows[n].size(),
            "window count differs from in-process replay");
      if (by_node[n].size() != ref_windows[n].size()) continue;
      for (std::size_t i = 0; i < by_node[n].size(); ++i) {
        const TriggeredWindow& a = *by_node[n][i];
        const TriggeredWindow& b = ref_windows[n][i];
        bool same = a.start_seq == b.start_seq &&
                    a.raw.rows() == b.raw.rows() &&
                    a.raw.cols() == b.raw.cols();
        for (std::size_t r = 0; same && r < a.raw.rows(); ++r) {
          for (std::size_t c = 0; same && c < a.raw.cols(); ++c) {
            same = bits_equal(a.raw.row(r)[c], b.raw.row(r)[c]);
          }
        }
        if (!same) {
          check(false, "window differs bitwise from in-process replay");
          break;
        }
      }
    }
  }

  // ---- scenario-specific expectations -----------------------------------
  if (spec.expect_decode_errors) {
    check(res.decode_errors > 0, "expected typed decode errors, saw none");
  }
  if (spec.expect_duplicates) {
    check(ws.duplicates_dropped > 0, "expected duplicate drops, saw none");
  }
  if (spec.expect_timeouts) {
    check(ws.timeouts > 0, "expected rx-idle timeouts, saw none");
  }
  if (spec.expect_reconnects) {
    check(res.reconnects > 0, "expected client reconnects, saw none");
  }
  if (spec.expect_sheds) {
    check(ws.rows_rejected > 0, "expected backpressure sheds, saw none");
  }
  if (spec.restart_server) {
    std::uint64_t failures = 0;
    for (const auto& c : clients) failures += c->stats().connect_failures;
    check(failures > 0, "restart scenario saw no refused connects");
  }

  res.violations = violations;
  return res;
}

void write_json(const std::vector<ScenarioResult>& rows, const char* path) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioResult& r = rows[i];
    os << "  {\"scenario\": \"" << r.label << "\""
       << ", \"nodes\": " << r.nodes << ", \"rows\": " << r.offered
       << ", \"ingested\": " << r.ingested << ", \"shed\": " << r.shed
       << ", \"duplicates_dropped\": " << r.duplicates_dropped
       << ", \"decode_errors\": " << r.decode_errors
       << ", \"timeouts\": " << r.timeouts
       << ", \"reconnects\": " << r.reconnects
       << ", \"retransmits\": " << r.retransmits
       << ", \"windows\": " << r.windows
       << ", \"bytes_sent\": " << r.bytes_sent
       << ", \"rows_per_sec\": " << r.rows_per_sec
       << ", \"violations\": " << r.violations << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

// ------------------------------------------------------------ CI gates ---

// Streams one generated run over the wire into a server with a trained RF
// bundle attached as its Diagnoser; the resulting diagnosis must match
// DiagnosisService::diagnose on the same series bit-for-bit.
std::size_t diagnosis_parity_gate(std::uint64_t seed) {
  std::size_t violations = 0;
  const auto check = [&violations](bool ok, const char* what) {
    if (!ok) {
      ++violations;
      std::printf("[smoke] VIOLATION: %s\n", what);
    }
  };

  std::printf("[smoke] training the parity bundle (tiny dataset)...\n");
  DatasetConfig cfg = tiny_config();
  cfg.seed = seed;
  const ExperimentData data = build_experiment_data(cfg);
  const SplitIndices split = make_split(data, cfg.test_fraction, 5);
  const PreparedSplit prepared = prepare_split(data, split, cfg.select_k);
  ParamSet params = table4_optimum("rf", false);
  params["n_estimators"] = "15";
  auto model = make_model_factory("rf", kNumClasses, 9)(params);
  model->fit(prepared.train_x, prepared.train_y);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bundle(ss, make_model_bundle(data, prepared, *model));
  ss.seekg(0);
  DiagnosisService service(load_model_bundle(ss));

  const RunGenerator generator(cfg.system, cfg.registry, cfg.sim);
  RunSpec spec;
  spec.app_id = 0;
  spec.nodes = 1;
  spec.anomaly = kAnomalyTypes[0];
  spec.intensity = 1.0;
  spec.run_id = 9900;
  spec.seed = seed + 777;
  const Sample sample = generator.generate_run(spec)[0];
  const DiagnosisResult in_process = service.diagnose({&sample.series});
  check(in_process.ok(), "in-process reference diagnose failed");
  const Diagnosis& reference = in_process.diagnosis;

  // One tumbling window spanning the run makes the served window's raw
  // matrix the series itself.
  const MetricRegistry registry(cfg.system, cfg.registry);
  StreamIngestConfig stream_cfg;
  stream_cfg.window_length = sample.series.rows();
  stream_cfg.stride = sample.series.rows();
  stream_cfg.preprocess = cfg.preprocess;
  StreamIngestor ingestor(registry, stream_cfg);
  LoopbackHub hub;
  IngestServer server(hub.make_listener(), ingestor, {}, &service);

  WireClientConfig ccfg;
  ccfg.node = 0;
  ccfg.metric_count = static_cast<std::uint32_t>(registry.size());
  ccfg.reconnect.seed = seed;
  WireClient client([&hub] { return hub.connect(); }, ccfg);
  std::size_t next = 0;
  double now = 0.0;
  for (std::size_t step = 0; step < 5000; ++step) {
    while (next < sample.series.rows() &&
           client.offer(next, static_cast<double>(next),
                        sample.series.row(next))) {
      ++next;
    }
    client.step(now);
    server.poll_once(now);
    client.step(now);
    now += 1.0;
    if (next == sample.series.rows() && client.idle()) break;
  }
  const std::vector<ServedWindow> served = server.take_served();
  check(client.idle(), "parity stream did not drain");
  check(served.size() == 1, "expected exactly one tumbling window");
  if (served.size() == 1) {
    const ServedWindow& w = served[0];
    check(w.diagnosed, "server did not route the window to the diagnoser");
    check(w.result.ok(), "wire-side diagnosis returned a non-Ok status");
    check(w.result.diagnosis.label == reference.label,
          "wire-side label differs from in-process diagnose()");
    check(w.result.diagnosis.probs.size() == reference.probs.size(),
          "probability vector size mismatch");
    for (std::size_t i = 0; i < reference.probs.size() &&
                            i < w.result.diagnosis.probs.size();
         ++i) {
      if (!bits_equal(w.result.diagnosis.probs[i], reference.probs[i])) {
        check(false, "wire-side probabilities differ bitwise");
        break;
      }
    }
  }
  return violations;
}

int run_smoke(std::uint64_t seed) {
  ScenarioSpec clean;
  clean.label = "smoke/clean-loopback";
  clean.nodes = 2;
  clean.rows_per_node = 200;
  const ScenarioResult r = run_scenario(clean, seed);
  std::printf(
      "[smoke] %s: %llu rows -> %llu ingested, %zu windows, %.0f rows/s "
      "(%zu violations)\n",
      r.label.c_str(), static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.ingested), r.windows, r.rows_per_sec,
      r.violations);
  std::size_t violations = r.violations;
  if (r.rows_per_sec <= 0.0) {
    ++violations;
    std::printf("[smoke] VIOLATION: zero wire throughput\n");
  }
  violations += diagnosis_parity_gate(seed);

  write_json({r}, "BENCH_wire.json");
  std::printf("[smoke] results written to BENCH_wire.json\n");
  if (violations != 0) {
    std::printf("[smoke] FAILED: %zu violated invariants\n", violations);
    return 1;
  }
  std::printf(
      "[smoke] ok: conservation, window parity, and diagnosis parity all "
      "held\n");
  return 0;
}

int run_chaos_smoke(std::uint64_t seed) {
  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec s;
    s.label = "clean";
    specs.push_back(s);
  }
  {
    ScenarioSpec s;
    s.label = "corrupt-storm";
    s.use_chaos = true;
    s.chaos.corrupt_rate = 0.1;
    s.chaos.partial_writes = true;
    s.chaos.grace_frames = 2;
    s.disarm_at_step = 800;
    s.expect_decode_errors = true;
    s.expect_reconnects = true;
    specs.push_back(s);
  }
  {
    ScenarioSpec s;
    s.label = "duplicate-storm";
    s.use_chaos = true;
    s.chaos.duplicate_rate = 0.5;
    s.chaos.partial_writes = true;
    s.chaos.grace_frames = 1;
    s.disarm_at_step = 800;
    s.expect_duplicates = true;
    specs.push_back(s);
  }
  {
    ScenarioSpec s;
    s.label = "drop-reconnect";
    s.use_chaos = true;
    s.chaos.drop_rate = 0.15;
    s.chaos.grace_frames = 2;
    s.disarm_at_step = 800;
    s.expect_reconnects = true;
    specs.push_back(s);
  }
  {
    ScenarioSpec s;
    s.label = "slow-loris";
    s.nodes = 1;
    s.rows_per_node = 60;
    s.use_chaos = true;
    s.chaos.stall_ms = 50.0;
    s.chaos.partial_writes = true;
    s.disarm_at_step = 500;
    s.peer_timeout_ms = 40.0;
    s.expect_timeouts = true;
    s.expect_reconnects = true;
    specs.push_back(s);
  }
  {
    ScenarioSpec s;
    s.label = "backpressure-flood";
    s.nodes = 1;
    s.rows_per_node = 300;
    s.node_rows_per_poll = 4;
    s.expect_window_parity = false;
    s.expect_sheds = true;
    specs.push_back(s);
  }
  {
    ScenarioSpec s;
    s.label = "server-restart";
    s.restart_server = true;
    s.expect_reconnects = true;
    specs.push_back(s);
  }

  std::vector<ScenarioResult> results;
  std::size_t violations = 0;
  for (const ScenarioSpec& s : specs) {
    const ScenarioResult r = run_scenario(s, seed);
    std::printf(
        "[chaos] %-18s rows=%-5llu ingested=%-5llu shed=%-4llu dup=%-4llu "
        "decode_err=%-3llu timeouts=%-3llu reconnects=%-3llu "
        "retransmits=%-4llu violations=%zu\n",
        r.label.c_str(), static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.ingested),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.duplicates_dropped),
        static_cast<unsigned long long>(r.decode_errors),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.reconnects),
        static_cast<unsigned long long>(r.retransmits), r.violations);
    violations += r.violations;
    results.push_back(r);
  }

  write_json(results, "BENCH_wire.json");
  std::printf("[chaos] results written to BENCH_wire.json\n");
  if (violations != 0) {
    std::printf("[chaos] FAILED: %zu violated invariants\n", violations);
    return 1;
  }
  std::printf("[chaos] ok: conservation held across all %zu scenarios\n",
              results.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 17;
  std::size_t rows = 10000;
  bool smoke = false;
  bool chaos_smoke = false;
  Cli cli("bench_wire",
          "Wire transport benchmark: framed socket ingestion throughput "
          "over the loopback transport (--smoke for the CI conservation + "
          "parity gate, --chaos-smoke for the network fault gate).");
  cli.flag("seed", &seed, "feed + chaos seed");
  cli.flag("rows", &rows, "rows per node in the sweep");
  cli.flag("smoke", &smoke,
           "clean replay: conservation, window parity, diagnosis parity");
  cli.flag("chaos-smoke", &chaos_smoke,
           "seeded fault scenarios, each asserting row conservation");
  cli.parse(argc, argv);
  set_log_level(LogLevel::Warn);

  if (smoke) return run_smoke(seed);
  if (chaos_smoke) return run_chaos_smoke(seed);

  TextTable table(
      {"nodes", "rows", "windows", "rows/s", "MB sent", "retransmits"});
  std::vector<ScenarioResult> results;
  for (const std::size_t nodes : {1u, 2u, 4u}) {
    ScenarioSpec s;
    s.label = strformat("sweep/nodes=%zu", nodes);
    s.nodes = nodes;
    s.rows_per_node = rows;
    s.max_steps = rows * 4 + 1000;
    const ScenarioResult r = run_scenario(s, seed);
    table.add_row({std::to_string(r.nodes),
                   std::to_string(r.offered),
                   std::to_string(r.windows),
                   strformat("%.0f", r.rows_per_sec),
                   strformat("%.1f", static_cast<double>(r.bytes_sent) / 1e6),
                   std::to_string(r.retransmits)});
    results.push_back(r);
  }
  std::printf("\nwire ingestion sweep (loopback transport)\n%s\n",
              table.render().c_str());
  write_json(results, "BENCH_wire.json");
  std::printf("results written to BENCH_wire.json\n");
  return 0;
}
