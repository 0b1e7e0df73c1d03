// The two streaming workloads: 1 Hz node telemetry goes through WireClient
// -> IngestServer -> StreamIngestor -> a Diagnoser tier and comes out as
// typed DiagnosisResults.
//
//   volta_sliding     TSFRESH RF bundle, 4 WireClients over loopback TCP,
//                     sliding windows (stride = half the length), a
//                     2-replica ServingFleet (1 worker each, consistent-hash
//                     routing, WindowCache on).
//   eclipse_tumbling  MVTS RF bundle, 4 WireClients over the in-memory
//                     LoopbackHub, tumbling windows, a bare
//                     DiagnosisService; no OS sockets, no extra threads.
//
// The feed is a sequence of simulated 4-node job runs, each T rows long;
// node n streams node n of every run back to back. Windows are T rows, so
// a window that starts on a run boundary is exactly one node's series of
// one run and is scored against that run's injected label; a sliding
// window straddling two runs is diagnosed and checked but not scored.
//
// One feeder thread runs a closed loop on an injected 1 Hz clock: each
// tick offers one row per node, then steps clients and server alternately
// until every row is acked. Node n's feed starts n/4 of a stride later than
// node 0's, so different nodes' windows close on different ticks. The
// server diagnoses triggered windows inside poll_once, so every result of a
// tick is taken before the next tick. Runs are simulated between ticks,
// while nothing is in flight, and that time is excluded from the measured
// wall time.
//
// After the timed region the whole feed is pushed into a fresh
// StreamIngestor and every window re-diagnosed by a fresh
// DiagnosisService; the served results must match bit for bit (and their
// CRC-32 in emit order), rows must be conserved, and every triggered
// window must have exactly one typed result.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alba.hpp"
#include "common.hpp"
#include "decorators.hpp"

namespace perfbench {
namespace {

using namespace alba;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kMinWindows = 1000;  // p99 needs 10 samples beyond

struct Shape {
  bool volta = true;  // volta_sliding, else eclipse_tumbling
  std::size_t window = kRunRows;
  std::size_t stride = kRunRows;
};

// SplitMix64 finalizer of (seed, i): an independent seed per run.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The replayed runs: classes cycle healthy + every anomaly type, apps and
// inputs cycle, intensities alternate between the ends of the training
// grid, and every run draws its own simulation seed.
class Feed {
 public:
  Feed(const DatasetConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), seed_(seed),
        generator_(cfg.system, cfg.registry, cfg.sim) {}

  std::vector<Sample> run(std::size_t r) const {
    RunSpec spec;
    spec.app_id = static_cast<int>(r % cfg_.num_apps);
    spec.input_id = static_cast<int>((r / cfg_.num_apps) % cfg_.inputs_per_app);
    spec.nodes = static_cast<int>(kNodes);
    const std::size_t cls = r % (kNumAnomalyTypes + 1);
    if (cls > 0) {
      spec.anomaly = kAnomalyTypes[cls - 1];
      const std::vector<double> grid =
          cfg_.system == SystemKind::Volta ? volta_intensities()
                                           : eclipse_intensities(spec.anomaly);
      spec.intensity = (r / (kNumAnomalyTypes + 1)) % 2 == 0 ? grid.front()
                                                             : grid.back();
    }
    spec.run_id = static_cast<int>(1'000'000 + r);
    spec.seed = mix_seed(seed_, r);
    std::vector<Sample> samples = generator_.generate_run(spec);
    for (const Sample& s : samples) {
      if (s.series.rows() != kRunRows) {
        throw std::runtime_error("simulated run has an unexpected length");
      }
    }
    return samples;
  }

 private:
  DatasetConfig cfg_;
  std::uint64_t seed_;
  RunGenerator generator_;
};

// Span names, interned once per tracer.
struct Names {
  std::uint16_t tick, client, read, write, server, diagnose, collect;
  explicit Names(Tracer& t)
      : tick(t.intern("bench.tick")), client(t.intern("wire.client")),
        read(t.intern("wire.transport.read")),
        write(t.intern("wire.transport.write")),
        server(t.intern("streaming.server")),
        diagnose(t.intern("serving.diagnose")),
        collect(t.intern("bench.collect")) {}
};

// Everything set-up builds: the trained bundle, the serving tier, the
// ingest server and the connected clients.
struct Rig {
  std::string bundle_bytes;
  MetricRegistry registry{SystemKind::Volta, RegistryConfig{}};
  StreamIngestConfig stream_cfg;
  std::shared_ptr<DiagnosisService> bare;  // eclipse_tumbling
  std::unique_ptr<ServingFleet> fleet;     // volta_sliding
  std::unique_ptr<TracedDiagnoser> traced_diagnoser;
  std::unique_ptr<StreamIngestor> ingestor;
  LoopbackHub hub;
  std::unique_ptr<IngestServer> server;
  std::vector<std::unique_ptr<WireClient>> clients;
  std::size_t needed_metrics = 0;  // metrics the selected features read
  double dataset_s = 0.0;
  double train_s = 0.0;
  double setup_s = 0.0;

  ServingStats serving_stats() const {
    if (fleet == nullptr) return bare->stats();
    std::vector<ServingStats> parts;
    for (const ReplicaStats& r : fleet->stats().replicas) {
      parts.push_back(r.service);
    }
    return merge_serving_stats(parts);
  }
};

std::unique_ptr<DiagnosisService> load_service(const std::string& bytes,
                                               ServingConfig sc = {}) {
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  return std::make_unique<DiagnosisService>(load_model_bundle(ss), sc);
}

std::unique_ptr<Rig> set_up(const Shape& shape, const DatasetConfig& cfg,
                            std::uint64_t seed, bool traced,
                            const TraceContext& ctx, const Names* names) {
  auto rig = std::make_unique<Rig>();
  const Clock::time_point t0 = Clock::now();
  const ExperimentData data = build_experiment_data(cfg);
  const Clock::time_point t1 = Clock::now();
  const SplitIndices split = make_split(data, cfg.test_fraction, seed + 5);
  const PreparedSplit prepared = prepare_split(data, split, cfg.select_k);
  std::unique_ptr<Classifier> model = make_model_factory(
      "rf", kNumClasses, seed + 9)(table4_optimum("rf", !shape.volta));
  model->fit(prepared.train_x, prepared.train_y);
  {
    const ModelBundle bundle = make_model_bundle(data, prepared, *model);
    std::set<std::string> metrics;
    for (const std::string& name : bundle.selected_names) {
      metrics.insert(name.substr(0, name.find('|')));
    }
    rig->needed_metrics = metrics.size();
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    save_model_bundle(ss, bundle);
    rig->bundle_bytes = ss.str();
  }
  const Clock::time_point t2 = Clock::now();

  rig->registry = MetricRegistry(cfg.system, cfg.registry);
  rig->stream_cfg.window_length = shape.window;
  rig->stream_cfg.stride = shape.stride;
  rig->stream_cfg.preprocess = cfg.preprocess;
  rig->stream_cfg.gap_policy = GapPolicy::Strict;
  Diagnoser* tier = nullptr;
  if (shape.volta) {
    std::vector<std::shared_ptr<DiagnosisService>> replicas;
    for (int i = 0; i < 2; ++i) {
      replicas.push_back(load_service(rig->bundle_bytes));
    }
    FleetConfig fc;
    fc.routing = RoutingPolicy::ConsistentHash;
    fc.seed = seed;
    fc.host.workers = 1;
    fc.host.queue_capacity = 8;
    rig->fleet = std::make_unique<ServingFleet>(std::move(replicas), fc);
    tier = rig->fleet.get();
  } else {
    rig->bare = load_service(rig->bundle_bytes);
    tier = rig->bare.get();
  }
  if (traced) {
    rig->traced_diagnoser =
        std::make_unique<TracedDiagnoser>(*tier, ctx, names->diagnose);
    tier = rig->traced_diagnoser.get();
  }
  rig->ingestor = std::make_unique<StreamIngestor>(rig->registry,
                                                   rig->stream_cfg);

  std::unique_ptr<Listener> listener;
  Connector connect;
  if (shape.volta) {
    std::unique_ptr<TcpListener> tcp = TcpListener::bind_loopback(0);
    const std::uint16_t port = tcp->port();
    listener = std::move(tcp);
    connect = [port] { return tcp_connect("127.0.0.1", port); };
  } else {
    listener = rig->hub.make_listener();
    Rig* r = rig.get();
    connect = [r] { return r->hub.connect(); };
  }
  if (traced) {
    listener = std::make_unique<TracedListener>(std::move(listener), ctx,
                                                names->read, names->write);
    connect = [inner = std::move(connect), &ctx,
               names]() -> std::unique_ptr<Connection> {
      std::unique_ptr<Connection> c = inner();
      if (c == nullptr) return nullptr;
      return std::make_unique<TracedConnection>(std::move(c), ctx,
                                                names->read, names->write);
    };
  }
  IngestServerConfig sc;
  sc.node_rows_per_poll = 1 << 20;  // the closed loop never needs shedding
  rig->server = std::make_unique<IngestServer>(std::move(listener),
                                               *rig->ingestor, sc, tier);
  for (std::size_t n = 0; n < kNodes; ++n) {
    WireClientConfig cc;
    cc.node = static_cast<std::uint32_t>(n);
    cc.metric_count = static_cast<std::uint32_t>(rig->registry.size());
    cc.reconnect.seed = seed + n;
    rig->clients.push_back(std::make_unique<WireClient>(connect, cc));
  }
  // Handshake every client before timing.
  for (int i = 0; i < 100000; ++i) {
    bool all = true;
    for (auto& c : rig->clients) {
      c->step(0.0);
      all = all && c->idle();
    }
    if (all) break;
    rig->server->poll_once(0.0);
  }
  for (auto& c : rig->clients) {
    if (!c->idle()) throw std::runtime_error("client handshake did not finish");
  }

  // One untimed warm-up diagnosis through the whole tier, on a window no
  // measured run reuses.
  {
    const Feed warm(cfg, seed ^ 0x5EEDull);
    const std::vector<Sample> run = warm.run(0);
    DiagnoseRequest req;
    req.window = &run[0].series;
    if (!tier->diagnose(req).ok()) {
      throw std::runtime_error("warm-up diagnosis failed");
    }
  }
  const Clock::time_point t3 = Clock::now();
  rig->dataset_s = seconds_between(t0, t1);
  rig->train_s = seconds_between(t1, t2);
  rig->setup_s = seconds_between(t0, t3);
  return rig;
}

// One served window, as the benchmark took it.
struct Served {
  int node = 0;
  std::uint64_t start_seq = 0;
  std::uint64_t raw_hash = 0;
  DiagnosisResult result;
};

// What one measured stretch of ticks produced.
struct Segment {
  std::size_t runs = 0;
  std::uint64_t rows = 0;
  std::size_t ticks = 0;
  double wall_s = 0.0;  // sum of tick times, simulation excluded
  std::vector<double> latency_ms;
  std::size_t windows = 0;
  std::size_t not_ok = 0;
};

class Feeder {
 public:
  Feeder(Rig& rig, const Feed& feed, TraceContext& ctx, const Names* names,
         bool perturb)
      : rig_(rig), feed_(feed), ctx_(ctx), names_(names), perturb_(perturb) {
    // Node n starts n/4 of a stride late, so the nodes' windows close on
    // different ticks and each latency sample is one window's own.
    for (std::size_t n = 0; n < kNodes; ++n) {
      offset_[n] = n * rig.stream_cfg.stride / kNodes;
    }
  }

  // Streams until `seconds` of tick time have passed and at least
  // `min_windows` windows came back, then lets every node finish the run
  // it is in, so each node has streamed the same whole runs.
  Segment stream(double seconds, std::size_t min_windows) {
    Segment seg;
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    const std::size_t runs_before = runs_streamed();
    for (std::size_t k = 0;; ++k) {
      if (limit == std::numeric_limits<std::uint64_t>::max() &&
          next_row_[0] % kRunRows == 0 && next_row_[0] > 0 &&
          seg.wall_s >= seconds && seg.windows >= min_windows) {
        limit = next_row_[0];
      }
      bool any = false;
      for (std::size_t n = 0; n < kNodes; ++n) {
        active_[n] = k >= offset_[n] && next_row_[n] < limit;
        any = any || active_[n];
      }
      if (!any) break;
      tick(seg);
    }
    seg.runs = runs_streamed() - runs_before;
    return seg;
  }

  const std::vector<Served>& served() const noexcept { return served_; }
  std::size_t runs_streamed() const noexcept {
    return static_cast<std::size_t>(next_row_[0] / kRunRows);
  }
  std::uint32_t crc() const noexcept { return crc_; }

 private:
  // The simulated run holding row `row` of every node's feed; runs every
  // node has finished are dropped.
  const std::vector<Sample>& run_for(std::uint64_t row) {
    const std::size_t r = static_cast<std::size_t>(row / kRunRows);
    auto it = runs_.find(r);
    if (it == runs_.end()) it = runs_.emplace(r, feed_.run(r)).first;
    std::uint64_t oldest = next_row_[0];
    for (const std::uint64_t n : next_row_) oldest = std::min(oldest, n);
    while (!runs_.empty() && runs_.begin()->first < oldest / kRunRows) {
      runs_.erase(runs_.begin());
    }
    return it->second;
  }

  void tick(Segment& seg) {
    // Simulate before the clock starts: nothing is in flight between ticks.
    std::array<const Sample*, kNodes> rows{};
    for (std::size_t n = 0; n < kNodes; ++n) {
      if (active_[n]) rows[n] = &run_for(next_row_[n])[n];
    }
    Tracer* tr = ctx_.tracer;
    ctx_.item = static_cast<std::uint32_t>(ticks_);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan tick_span(tr, names_->tick, ctx_.item);
      for (std::size_t n = 0; n < kNodes; ++n) {
        if (!active_[n]) continue;
        ScopedSpan s(tr, names_->client, ctx_.item);
        const std::uint64_t seq = next_row_[n];
        if (!rig_.clients[n]->offer(seq, static_cast<double>(seq),
                                    rows[n]->series.row(seq % kRunRows))) {
          throw std::runtime_error("client refused a row");
        }
      }
      const Clock::time_point offered = Clock::now();
      for (int spin = 0;; ++spin) {
        for (auto& c : rig_.clients) {
          ScopedSpan s(tr, names_->client, ctx_.item);
          c->step(now_ms_);
        }
        {
          ScopedSpan s(tr, names_->server, ctx_.item);
          rig_.server->poll_once(now_ms_);
        }
        {
          ScopedSpan s(tr, names_->collect, ctx_.item);
          collect(offered, seg);
        }
        bool idle = true;
        for (auto& c : rig_.clients) {
          ScopedSpan s(tr, names_->client, ctx_.item);
          c->step(now_ms_);
          idle = idle && c->idle();
        }
        if (idle) break;
        if (spin > 1'000'000) throw std::runtime_error("tick never acked");
      }
    }
    seg.wall_s += seconds_between(start, Clock::now());
    for (std::size_t n = 0; n < kNodes; ++n) {
      if (!active_[n]) continue;
      ++next_row_[n];
      ++seg.rows;
    }
    ++ticks_;
    ++seg.ticks;
    now_ms_ += 1000.0;
  }

  void collect(Clock::time_point offered, Segment& seg) {
    std::vector<ServedWindow> windows = rig_.server->take_served();
    if (windows.empty()) return;
    const Clock::time_point taken = Clock::now();
    for (ServedWindow& w : windows) {
      const auto n = static_cast<std::size_t>(w.window.node);
      if (n >= kNodes || !active_[n] ||
          w.window.start_seq + rig_.stream_cfg.window_length - 1 !=
              next_row_[n]) {
        throw std::runtime_error("window closed outside its closing tick");
      }
      Served s;
      s.node = w.window.node;
      s.start_seq = w.window.start_seq;
      s.raw_hash = hash_window(w.window.raw);
      s.result = std::move(w.result);
      if (!w.diagnosed) s.result.status = RequestStatus::Failed;
      if (perturb_ && served_.empty() && !s.result.diagnosis.probs.empty()) {
        double& p = s.result.diagnosis.probs[0];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &p, sizeof bits);
        bits ^= 1u;
        std::memcpy(&p, &bits, sizeof bits);
      }
      crc_ = fold_result(crc_, s.result);
      seg.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(taken - offered).count());
      seg.windows += 1;
      if (!s.result.ok()) seg.not_ok += 1;
      served_.push_back(std::move(s));
    }
  }

  Rig& rig_;
  const Feed& feed_;
  TraceContext& ctx_;
  const Names* names_;
  bool perturb_;
  std::array<std::size_t, kNodes> offset_{};
  std::array<std::uint64_t, kNodes> next_row_{};  // next row per node
  std::array<bool, kNodes> active_{};             // offers this tick
  std::map<std::size_t, std::vector<Sample>> runs_;
  std::uint64_t ticks_ = 0;
  double now_ms_ = 1000.0;
  std::vector<Served> served_;
  std::uint32_t crc_ = 0;
};

// Output and conservation checks after the timed region; returns the
// reference push time per row.
double verify(Rig& rig, const Feed& feed, const Feeder& feeder,
              Outcome& out) {
  const std::size_t runs = feeder.runs_streamed();
  const std::uint64_t rows_per_node = runs * kRunRows;

  // Conservation: every offered row acked and disposed exactly once.
  std::uint64_t offered = 0;
  for (const auto& c : rig.clients) {
    offered += c->stats().rows_offered;
    out.check(c->stats().rows_acked == c->stats().rows_offered,
              "a client has offered rows that were never acked");
  }
  out.check(offered == rows_per_node * kNodes,
            "rows offered differ from rows fed");
  std::uint64_t disposed = 0;
  for (const IngestServerSnapshot::Node& n : rig.server->snapshot().nodes) {
    out.check(n.watermark == rows_per_node, "a node's watermark is short");
    out.check(n.watermark == n.rows_pushed + n.rejected_backpressure,
              "rows offered != ingested + typed-rejected");
    disposed += n.rows_pushed + n.rejected_backpressure;
  }
  out.check(disposed == offered, "rows disposed differ from rows offered");

  // Reference: the same feed pushed in process, every window re-diagnosed
  // by a fresh service with the cache off.
  ServingConfig ref_cfg;
  ref_cfg.cache_capacity = 0;
  const std::unique_ptr<DiagnosisService> reference =
      load_service(rig.bundle_bytes, ref_cfg);
  StreamIngestor ingestor(rig.registry, rig.stream_cfg);
  std::map<std::pair<int, std::uint64_t>, std::size_t> by_key;
  const std::vector<Served>& served = feeder.served();
  for (std::size_t i = 0; i < served.size(); ++i) {
    by_key[{served[i].node, served[i].start_seq}] = i;
  }
  std::vector<DiagnosisResult> expected(served.size());
  std::vector<TriggeredWindow> pending;
  std::vector<std::size_t> pending_index;
  std::size_t triggered = 0;
  double push_s = 0.0;
  const auto diagnose_pending = [&] {
    alba::global_pool().parallel_for(pending.size(), [&](std::size_t i) {
      DiagnoseRequest req;
      req.window = &pending[i].raw;
      expected[pending_index[i]] = reference->diagnose(req);
    });
    pending.clear();
    pending_index.clear();
  };
  for (std::size_t r = 0; r < runs; ++r) {
    const std::vector<Sample> run = feed.run(r);
    for (std::size_t t = 0; t < kRunRows; ++t) {
      const std::uint64_t seq = r * kRunRows + t;
      for (std::size_t n = 0; n < kNodes; ++n) {
        const Clock::time_point p0 = Clock::now();
        std::vector<TriggeredWindow> ws = ingestor.push(
            static_cast<int>(n), seq, run[n].series.row(t));
        push_s += seconds_between(p0, Clock::now());
        for (TriggeredWindow& w : ws) {
          ++triggered;
          const auto it = by_key.find({w.node, w.start_seq});
          if (it == by_key.end()) {
            out.check(false, "a triggered window has no served result");
            continue;
          }
          out.check(served[it->second].raw_hash == hash_window(w.raw),
                    "a served window's rows differ from the replay");
          pending_index.push_back(it->second);
          pending.push_back(std::move(w));
        }
      }
    }
    if (pending.size() >= 64) diagnose_pending();
  }
  diagnose_pending();
  out.check(triggered == served.size(),
            "windows triggered != typed results");

  std::uint32_t crc = 0;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    crc = fold_result(crc, expected[i]);
    const DiagnosisResult& a = served[i].result;
    const DiagnosisResult& b = expected[i];
    const bool same =
        a.status == b.status && a.diagnosis.label == b.diagnosis.label &&
        a.diagnosis.probs.size() == b.diagnosis.probs.size() &&
        std::memcmp(a.diagnosis.probs.data(), b.diagnosis.probs.data(),
                    a.diagnosis.probs.size() * sizeof(double)) == 0;
    if (!same) ++mismatched;
  }
  out.check(crc == feeder.crc(), "result CRC-32 differs from the reference");
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " results differ bitwise from the reference");
  const double rows = static_cast<double>(rows_per_node * kNodes);
  return rows > 0 ? push_s * 1e6 / rows : 0.0;
}

// Macro F1 of the run-aligned windows of the first `runs` runs.
double scored_f1(const std::vector<Served>& served, const Feed& feed,
                 std::size_t runs, std::size_t* scored) {
  std::vector<std::vector<int>> truth(runs);
  std::vector<int> y_true, y_pred;
  for (const Served& s : served) {
    if (s.start_seq % kRunRows != 0) continue;
    const std::size_t r = s.start_seq / kRunRows;
    if (r >= runs || !s.result.ok()) continue;
    if (truth[r].empty()) {
      for (const Sample& smp : feed.run(r)) {
        truth[r].push_back(anomaly_label(smp.label));
      }
    }
    y_true.push_back(truth[r][static_cast<std::size_t>(s.node)]);
    y_pred.push_back(s.result.diagnosis.label);
  }
  *scored = y_true.size();
  return evaluate(y_true, y_pred, kNumClasses).macro_f1;
}

}  // namespace

void run_stream_workload(const Options& opt, Outcome& out) {
  Shape shape;
  shape.volta = opt.workload == "volta_sliding";
  shape.window = kRunRows;
  shape.stride = shape.volta ? kRunRows / 2 : kRunRows;
  const DatasetConfig cfg = dataset_config(shape.volta, opt.seed, opt.tiny);

  Tracer tracer;
  const Names names(tracer);
  TraceContext ctx;  // tracer stays null until the traced stretch

  // Set up several times; keep the last rig, report the median.
  std::vector<double> setup_s, dataset_s, train_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (opt.tiny ? 1 : kSetupRepeats); ++i) {
    rig.reset();
    rig = set_up(shape, cfg, opt.seed, opt.trace, ctx, &names);
    setup_s.push_back(rig->setup_s);
    dataset_s.push_back(rig->dataset_s);
    train_s.push_back(rig->train_s);
  }
  out.thread_budget =
      std::string(shape.volta ? "feeder 1 + fleet host workers 2 (2 replicas "
                                "x 1), pinned to one CPU while streaming"
                              : "feeder 1") +
      "; pool " + std::to_string(pool_threads()) + " for set-up and checks";

  const Feed feed(cfg, opt.seed);
  Feeder feeder(*rig, feed, ctx, &names, opt.perturb);

  if (!opt.trace) {
    Segment seg;
    {
      std::optional<PinThreads> pin;
      if (shape.volta) pin.emplace();
      seg = feeder.stream(opt.seconds, kMinWindows);
    }
    verify(*rig, feed, feeder, out);
    // F1 over the runs every run streams: the first runs that carry
    // kMinWindows windows, independent of machine speed.
    const std::size_t windows_per_run =
        kNodes * ((kRunRows + shape.stride - 1) / shape.stride);
    const std::size_t f1_runs =
        std::min(feeder.runs_streamed(),
                 (kMinWindows + windows_per_run - 1) / windows_per_run);
    std::size_t scored = 0;
    const double f1 = scored_f1(feeder.served(), feed, f1_runs, &scored);
    out.attempted = seg.windows;
    out.failed = seg.not_ok;
    out.add("throughput_per_s", static_cast<double>(seg.rows) / seg.wall_s,
            seg.rows);
    out.add("latency_p50_ms",
            checked_quantile(seg.latency_ms, 0.50, "result latency p50"),
            seg.latency_ms.size());
    out.add("latency_tail_ms",
            checked_quantile(seg.latency_ms, 0.99, "result latency p99"),
            seg.latency_ms.size());
    out.add("macro_f1", f1, scored);
    out.add("setup_s", median(setup_s), setup_s.size());
    out.add("peak_rss_mb", peak_rss_mb());
    char line[256];
    std::snprintf(line, sizeof line,
                  "streamed %zu runs: %llu rows, %zu windows in %.3f s; "
                  "throughput = rows/s, tail = p99 of %zu windows; the "
                  "bundle reads %zu of %zu metrics",
                  feeder.runs_streamed(),
                  static_cast<unsigned long long>(seg.rows), seg.windows,
                  seg.wall_s, seg.latency_ms.size(), rig->needed_metrics,
                  rig->registry.size());
    out.report.push_back(line);
    return;
  }

  // Traced run: an untraced stretch, then a traced one on the same rig;
  // the per-row difference is the tracing overhead. The traced stretch
  // stops at the minimum window count, which bounds the spans it holds.
  std::optional<PinThreads> pin;
  if (shape.volta) pin.emplace();
  const Segment plain = feeder.stream(opt.seconds / 2.0, 0);
  std::vector<WireClientStats> client_before;
  for (const auto& c : rig->clients) client_before.push_back(c->stats());
  const ServingStats serving_before = rig->serving_stats();
  const FleetStats fleet_before =
      rig->fleet ? rig->fleet->stats() : FleetStats{};
  const std::size_t served_before = feeder.served().size();

  tracer.clear();
  ctx.tracer = &tracer;
  const Segment seg = feeder.stream(0.0, kMinWindows);
  ctx.tracer = nullptr;
  pin.reset();

  const double push_us = verify(*rig, feed, feeder, out);
  out.attempted = plain.windows + seg.windows;
  out.failed = plain.not_ok + seg.not_ok;

  const std::vector<AnalyzedSpan> spans = analyze(tracer.spans());
  const auto totals = totals_by_name(spans, tracer.names());
  const auto self_s = [&](const char* n) {
    const auto it = totals.find(n);
    return it == totals.end() ? 0.0 : it->second.self_ns * 1e-9;
  };
  const auto total_s = [&](const char* n) {
    const auto it = totals.find(n);
    return it == totals.end() ? 0.0 : it->second.total_ns * 1e-9;
  };
  std::vector<double> diagnose_us;
  for (const AnalyzedSpan& a : spans) {
    if (a.span.name == names.diagnose) {
      diagnose_us.push_back(a.span.duration() * 1e-3);
    }
  }
  std::vector<double> queue_us;
  for (std::size_t i = served_before; i < feeder.served().size(); ++i) {
    queue_us.push_back(feeder.served()[i].result.queue_ms * 1e3);
  }
  const double rows = static_cast<double>(seg.rows);
  std::uint64_t bytes = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    bytes += rig->clients[n]->stats().bytes_sent - client_before[n].bytes_sent;
  }
  const ServingStats sv = rig->serving_stats();
  const double misses =
      static_cast<double>(sv.cache_misses - serving_before.cache_misses);
  const double hits =
      static_cast<double>(sv.cache_hits - serving_before.cache_hits);
  const WireServerStats& ws = rig->server->wire_stats();

  out.add("wire.bytes_per_row", static_cast<double>(bytes) / rows, seg.rows);
  out.add("wire.client_us_per_row", self_s("wire.client") * 1e6 / rows,
          seg.rows);
  out.add("wire.transport_us_per_row",
          (total_s("wire.transport.read") + total_s("wire.transport.write")) *
              1e6 / rows,
          seg.rows);
  out.add("wire.rows_rejected", static_cast<double>(ws.rows_rejected));
  out.add("wire.duplicates_dropped",
          static_cast<double>(ws.duplicates_dropped));
  out.add("wire.decode_errors", static_cast<double>(ws.decode_errors));
  out.add("streaming.server_us_per_row",
          self_s("streaming.server") * 1e6 / rows, seg.rows);
  out.add("streaming.push_us_per_row", push_us,
          feeder.runs_streamed() * kRunRows * kNodes);
  out.add("streaming.diagnose_block_share",
          total_s("serving.diagnose") / total_s("streaming.server"),
          diagnose_us.size());
  out.add("serving.diagnose_p50_us",
          checked_quantile(diagnose_us, 0.50, "diagnose p50"),
          diagnose_us.size());
  out.add("serving.diagnose_p99_us",
          checked_quantile(diagnose_us, 0.99, "diagnose p99"),
          diagnose_us.size());
  out.add("serving.queue_us_p50",
          checked_quantile(queue_us, 0.50, "queue wait p50"), queue_us.size());
  out.add("serving.cache_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0,
          static_cast<std::size_t>(hits + misses));
  if (rig->fleet != nullptr) {
    const FleetStats fs = rig->fleet->stats();
    const double req =
        static_cast<double>(fs.requests - fleet_before.requests);
    out.add("serving.spilled_share",
            req > 0 ? static_cast<double>(fs.spilled - fleet_before.spilled) /
                          req
                    : 0.0,
            static_cast<std::size_t>(req));
  }
  out.add("serving.rejected_share",
          seg.windows > 0 ? static_cast<double>(seg.not_ok) /
                                static_cast<double>(seg.windows)
                          : 0.0,
          seg.windows);
  out.add("features.extract_us_per_window",
          misses > 0
              ? (sv.extract_seconds - serving_before.extract_seconds) * 1e6 /
                    misses
              : 0.0,
          static_cast<std::size_t>(misses));
  out.add("ml.predict_us_per_window",
          misses > 0
              ? (sv.predict_seconds - serving_before.predict_seconds) * 1e6 /
                    misses
              : 0.0,
          static_cast<std::size_t>(misses));
  out.add("setup.dataset_s", median(dataset_s), dataset_s.size());
  out.add("setup.train_s", median(train_s), train_s.size());
  // Everything inside a tick that no layer span covers.
  out.add("trace.unattributed_share", self_s("bench.tick") / seg.wall_s,
          seg.ticks);
  const double plain_us = plain.wall_s / static_cast<double>(plain.rows);
  const double traced_us = seg.wall_s / rows;
  out.add("trace.overhead_share", traced_us / plain_us - 1.0, plain.rows);

  out.report.push_back("traced stretch: " + std::to_string(seg.runs) +
                       " runs, " + std::to_string(seg.windows) +
                       " windows, wall " + std::to_string(seg.wall_s) + " s");
  out.report.push_back("self time by span (traced wall " +
                       std::to_string(seg.wall_s) + " s):");
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s %10.6f s  %6.2f%%  n=%llu",
                  name.c_str(), t.self_ns * 1e-9,
                  100.0 * t.self_ns * 1e-9 / seg.wall_s,
                  static_cast<unsigned long long>(t.count));
    out.report.push_back(line);
  }
  if (!opt.trace_csv.empty()) {
    std::ofstream os(opt.trace_csv);
    write_trace_csv(os, spans, tracer.names());
    if (!os) throw std::runtime_error("could not write " + opt.trace_csv);
  }
}

}  // namespace perfbench
