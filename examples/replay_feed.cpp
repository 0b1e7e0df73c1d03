// Replay a recorded telemetry feed over the wire protocol: the collector
// side of a deployment, feeding an IngestServer across a real TCP socket.
//
// Two ways to run it:
//
//   * self-serving (default) — binds a loopback TcpListener on an
//     ephemeral port, hosts an IngestServer in-process, and streams the
//     feed to itself through the kernel's TCP stack. At the end the
//     server-side ingest accounting is printed, the triggered windows are
//     counted, and the windows are checked bit-for-bit against an
//     in-process StreamIngestor::push replay of the same rows (the wire
//     must be invisible to the ingestion pipeline);
//
//   * --connect HOST:PORT — client only: stream the feed at some other
//     process hosting an IngestServer (e.g. a second copy of this example
//     left running, or an operational deployment).
//
// The feed is either synthesized (--nodes/--rows, the same 1 Hz
// counter/gauge shape the benches use) or loaded from a CSV recorded by a
// previous run (--csv; write one with --out). --rate R replays at R times
// real time — a 1 Hz feed at --rate 60 sends one simulated minute per
// second; --rate 0 (the default) replays as fast as the wire accepts.
//
// Build & run:
//   ./build/examples/replay_feed                        # self-serve, flat out
//   ./build/examples/replay_feed --rate 60 --rows 300   # paced replay
//   ./build/examples/replay_feed --out feed.csv         # record the feed
//   ./build/examples/replay_feed --csv feed.csv         # replay a recording
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "alba.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

using namespace alba;

namespace {

using Clock = std::chrono::steady_clock;

// One recorded row: which node said what at which 1 Hz epoch.
struct FeedRow {
  int node = 0;
  std::uint64_t seq = 0;
  double timestamp = 0.0;
  std::vector<double> values;
};

MetricRegistry feed_registry() {
  RegistryConfig rc;
  rc.cores = 2;
  rc.nics = 1;
  rc.filler_gauges = 1;
  return MetricRegistry(SystemKind::Volta, rc);
}

std::vector<FeedRow> synthesize_feed(const MetricRegistry& registry,
                                     std::size_t nodes, std::size_t rows,
                                     std::uint64_t seed) {
  std::vector<FeedRow> feed;
  for (std::size_t n = 0; n < nodes; ++n) {
    Rng rng(seed + n);
    std::vector<double> level(registry.size(), 0.0);
    for (std::size_t t = 0; t < rows; ++t) {
      FeedRow row;
      row.node = static_cast<int>(n);
      row.seq = t;
      row.timestamp = static_cast<double>(t);
      row.values.resize(registry.size());
      for (std::size_t m = 0; m < registry.size(); ++m) {
        if (registry.metric(m).kind == MetricKind::Counter) {
          level[m] += rng.uniform(0.0, 5.0);
          row.values[m] = level[m];
        } else {
          row.values[m] = std::sin(0.3 * static_cast<double>(t) +
                                   static_cast<double>(m)) +
                          0.1 * rng.normal();
        }
        if (rng.uniform() < 0.01) {
          row.values[m] = std::numeric_limits<double>::quiet_NaN();
        }
      }
      feed.push_back(std::move(row));
    }
  }
  return feed;
}

void write_feed_csv(const std::string& path, const MetricRegistry& registry,
                    const std::vector<FeedRow>& feed) {
  CsvWriter writer(path);
  std::vector<std::string> header = {"node", "seq", "timestamp"};
  for (const std::string& name : registry.names()) header.push_back(name);
  writer.write_header(header);
  std::vector<std::string> fields;
  for (const FeedRow& row : feed) {
    fields.clear();
    fields.push_back(std::to_string(row.node));
    fields.push_back(std::to_string(row.seq));
    fields.push_back(strformat("%.17g", row.timestamp));
    for (const double v : row.values) fields.push_back(strformat("%.17g", v));
    writer.write_row(fields);
  }
}

std::vector<FeedRow> load_feed_csv(const std::string& path,
                                   const MetricRegistry& registry) {
  const CsvTable table = read_csv(path);
  ALBA_CHECK(table.header.size() == registry.size() + 3)
      << "feed CSV has " << table.header.size()
      << " columns, expected node,seq,timestamp + " << registry.size()
      << " metrics — was it recorded with a different registry?";
  std::vector<FeedRow> feed;
  feed.reserve(table.rows.size());
  for (const auto& r : table.rows) {
    FeedRow row;
    row.node = std::stoi(r[0]);
    row.seq = std::stoull(r[1]);
    row.timestamp = std::stod(r[2]);
    row.values.resize(registry.size());
    for (std::size_t m = 0; m < registry.size(); ++m) {
      row.values[m] = std::stod(r[m + 3]);
    }
    feed.push_back(std::move(row));
  }
  return feed;
}

bool bits_equal(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The parity reference: the same feed through StreamIngestor::push in
// process. The wire must produce bit-identical windows.
bool check_parity(const MetricRegistry& registry,
                  const StreamIngestConfig& cfg,
                  const std::vector<FeedRow>& feed,
                  const std::vector<ServedWindow>& served) {
  StreamIngestor reference(registry, cfg);
  std::vector<TriggeredWindow> expected;
  for (const FeedRow& row : feed) {
    for (TriggeredWindow& w :
         reference.push(row.node, row.seq, row.values)) {
      expected.push_back(std::move(w));
    }
  }
  // Emission interleaving across nodes depends on poll timing; compare
  // per-node sequences (delivery within a node is ordered).
  const auto node_windows = [](const auto& all, int node) {
    std::vector<const TriggeredWindow*> out;
    for (const auto& w : all) {
      const TriggeredWindow& t = [&]() -> const TriggeredWindow& {
        if constexpr (std::is_same_v<std::decay_t<decltype(w)>,
                                     ServedWindow>) {
          return w.window;
        } else {
          return w;
        }
      }();
      if (t.node == node) out.push_back(&t);
    }
    return out;
  };
  std::vector<int> nodes;
  for (const FeedRow& r : feed) {
    if (nodes.empty() || nodes.back() != r.node) nodes.push_back(r.node);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const int node : nodes) {
    const auto got = node_windows(served, node);
    const auto want = node_windows(expected, node);
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const TriggeredWindow& a = *got[i];
      const TriggeredWindow& b = *want[i];
      if (a.start_seq != b.start_seq || a.raw.rows() != b.raw.rows() ||
          a.raw.cols() != b.raw.cols()) {
        return false;
      }
      for (std::size_t r = 0; r < a.raw.rows(); ++r) {
        for (std::size_t c = 0; c < a.raw.cols(); ++c) {
          if (!bits_equal(a.raw(r, c), b.raw(r, c))) return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 2;
  std::size_t rows = 240;
  std::uint64_t seed = 29;
  double rate = 0.0;
  std::string csv_path;
  std::string out_path;
  std::string connect_spec;
  std::string stats_out;
  Cli cli("replay_feed",
          "Stream a recorded (or synthesized) telemetry feed over the wire "
          "protocol into an IngestServer, self-hosted over loopback TCP by "
          "default.");
  cli.flag("nodes", &nodes, "nodes to synthesize (ignored with --csv)");
  cli.flag("rows", &rows, "1 Hz rows per node (ignored with --csv)");
  cli.flag("seed", &seed, "feed synthesis seed");
  cli.flag("rate", &rate,
           "replay speed-up vs real time (0 = as fast as possible)");
  cli.flag("csv", &csv_path, "replay this recorded feed CSV");
  cli.flag("out", &out_path, "record the feed to this CSV and exit");
  cli.flag("connect", &connect_spec,
           "HOST:PORT of an external ingest server (default: self-serve)");
  cli.flag("stats-out", &stats_out,
           "write per-node ingest stats CSV here when self-serving");
  cli.parse(argc, argv);
  set_log_level(LogLevel::Warn);

  const MetricRegistry registry = feed_registry();
  const std::vector<FeedRow> feed =
      csv_path.empty() ? synthesize_feed(registry, nodes, rows, seed)
                       : load_feed_csv(csv_path, registry);
  std::printf("[feed] %zu rows, %zu metrics%s\n", feed.size(),
              registry.size(),
              csv_path.empty() ? " (synthesized)" : " (recorded)");
  if (!out_path.empty()) {
    write_feed_csv(out_path, registry, feed);
    std::printf("[feed] recorded to %s\n", out_path.c_str());
    return 0;
  }

  // ---- transport: self-serve over loopback TCP, or client-only ----------
  StreamIngestConfig stream_cfg;
  stream_cfg.window_length = 48;
  stream_cfg.stride = 24;
  stream_cfg.preprocess.trim_head = 4;
  stream_cfg.preprocess.trim_tail = 4;
  std::unique_ptr<StreamIngestor> ingestor;
  std::unique_ptr<IngestServer> server;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  if (connect_spec.empty()) {
    auto listener = TcpListener::bind_loopback(0);
    port = listener->port();
    std::printf("[serve] ingest server on 127.0.0.1:%u\n", port);
    ingestor = std::make_unique<StreamIngestor>(registry, stream_cfg);
    server = std::make_unique<IngestServer>(std::move(listener), *ingestor);
  } else {
    const auto colon = connect_spec.rfind(':');
    ALBA_CHECK(colon != std::string::npos) << "--connect expects HOST:PORT";
    host = connect_spec.substr(0, colon);
    port = static_cast<std::uint16_t>(
        std::stoi(connect_spec.substr(colon + 1)));
    std::printf("[connect] streaming at %s:%u\n", host.c_str(), port);
  }

  // One wire client per node in the feed, rows offered in recorded order.
  std::vector<int> node_ids;
  for (const FeedRow& r : feed) node_ids.push_back(r.node);
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());
  std::vector<std::unique_ptr<WireClient>> clients;
  for (const int n : node_ids) {
    WireClientConfig cc;
    cc.node = static_cast<std::uint32_t>(n);
    cc.metric_count = static_cast<std::uint32_t>(registry.size());
    cc.reconnect.seed = seed + static_cast<std::uint64_t>(n);
    cc.reconnect.max_attempts = 1 << 20;
    clients.push_back(std::make_unique<WireClient>(
        [host, port] { return tcp_connect(host, port); }, cc));
  }
  const auto client_for = [&](int node) -> WireClient& {
    const auto it = std::find(node_ids.begin(), node_ids.end(), node);
    ALBA_CHECK(it != node_ids.end()) << "no client for node " << node;
    return *clients[static_cast<std::size_t>(it - node_ids.begin())];
  };

  // ---- the replay loop ---------------------------------------------------
  // A row with epoch `seq` becomes eligible at seq/rate wall seconds;
  // rate 0 lifts the pacing entirely.
  const Clock::time_point t0 = Clock::now();
  const auto now_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  std::vector<ServedWindow> served;
  std::size_t next = 0;
  std::uint64_t offered = 0;
  const double deadline_ms =
      60000.0 + (rate > 0.0 ? 1000.0 * static_cast<double>(feed.size()) /
                                  rate
                            : 0.0);
  while (true) {
    const double t = now_ms();
    while (next < feed.size()) {
      const FeedRow& row = feed[next];
      if (rate > 0.0 &&
          static_cast<double>(row.seq) * 1000.0 / rate > t) {
        break;
      }
      if (!client_for(row.node).offer(row.seq, row.timestamp, row.values)) {
        break;  // inflight budget full; step() below drains acks
      }
      ++next;
      ++offered;
    }
    bool idle = next == feed.size();
    for (auto& c : clients) {
      c->step(t);
      idle = idle && c->idle();
    }
    if (server != nullptr) {
      server->poll_once(t);
      for (ServedWindow& w : server->take_served()) {
        served.push_back(std::move(w));
      }
    }
    for (auto& c : clients) c->step(t);
    if (idle) break;
    if (t > deadline_ms) {
      std::printf("[replay] gave up after %.1fs with %zu/%zu rows acked\n",
                  t / 1000.0, next, feed.size());
      return 1;
    }
    if (rate > 0.0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed = now_ms() / 1000.0;

  // ---- the accounting ----------------------------------------------------
  std::uint64_t bytes = 0;
  for (const auto& c : clients) bytes += c->stats().bytes_sent;
  std::printf("[replay] %llu rows acked in %.2fs (%.0f rows/s, %.1f KB on "
              "the wire)\n",
              static_cast<unsigned long long>(offered), elapsed,
              elapsed > 0 ? static_cast<double>(offered) / elapsed : 0.0,
              static_cast<double>(bytes) / 1e3);
  if (server == nullptr) return 0;

  std::printf("[serve] %s\n",
              format_ingest_summary(server->total_stats()).c_str());
  std::printf("[serve] %zu windows triggered\n", served.size());
  if (!stats_out.empty()) {
    std::vector<std::pair<std::string, IngestStats>> labelled;
    for (const int n : node_ids) {
      labelled.emplace_back(strformat("node=%d", n), server->stats(n));
    }
    labelled.emplace_back("total", server->total_stats());
    std::ofstream os(stats_out);
    write_ingest_stats_csv(os, labelled);
    std::printf("[serve] ingest stats written to %s\n", stats_out.c_str());
  }

  const bool parity = check_parity(registry, stream_cfg, feed, served);
  std::printf("[parity] wire windows %s the in-process replay\n",
              parity ? "bit-identical to" : "DIFFER from");
  return parity ? 0 : 1;
}
