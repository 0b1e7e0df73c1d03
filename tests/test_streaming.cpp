// Tests for the streaming front end and the unified Diagnoser interface:
// every emitted raw window checked bitwise against the feed that was
// pushed (first delivery wins, undelivered rows are NaN) across clean /
// NaN-cell / gapped / out-of-order / fault-injected replays, the
// late_dropped ring-immutability regression, and streamed windows flowing
// through all three serving tiers behind one Diagnoser.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "serving/fleet.hpp"
#include "streaming/ingest.hpp"
#include "telemetry/faults.hpp"
#include "serving_fixture.hpp"
#include "telemetry/run_generator.hpp"

namespace alba {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetricRegistry test_registry() {
  RegistryConfig cfg;
  cfg.cores = 2;
  cfg.nics = 1;
  cfg.filler_gauges = 1;
  return MetricRegistry(SystemKind::Volta, cfg);
}

// Synthetic raw rows: counters cumulative (non-negative increments),
// gauges sinusoid + noise; optional per-cell NaN dropout like the
// simulator's sparse misses.
std::vector<std::vector<double>> make_rows(const MetricRegistry& registry,
                                           std::size_t t_total,
                                           std::uint64_t seed,
                                           double nan_cell_rate = 0.0) {
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
        rows[t][m] = kNaN;
      }
    }
  }
  return rows;
}

// The feed as pushed: each (node, seq)'s first delivery. Pushing through
// a Feed checks every window the moment it is emitted: raw row i is
// bitwise the first delivery of seq start_seq + i, or all-NaN when that
// seq has not been delivered.
class Feed {
 public:
  explicit Feed(StreamIngestor& ingestor) : ingestor_(ingestor) {}

  std::vector<TriggeredWindow> push(int node, std::uint64_t seq,
                                    std::span<const double> values) {
    first_.try_emplace({node, seq}, values.begin(), values.end());
    std::vector<TriggeredWindow> windows = ingestor_.push(node, seq, values);
    for (const TriggeredWindow& w : windows) expect_raw_is_feed(w);
    return windows;
  }

  std::size_t windows_checked() const noexcept { return checked_; }

 private:
  void expect_raw_is_feed(const TriggeredWindow& w) {
    ++checked_;
    ASSERT_EQ(w.raw.rows(), ingestor_.config().window_length);
    ASSERT_EQ(w.raw.cols(), ingestor_.registry().size());
    for (std::size_t i = 0; i < w.raw.rows(); ++i) {
      const auto it = first_.find({w.node, w.start_seq + i});
      for (std::size_t m = 0; m < w.raw.cols(); ++m) {
        const double want = it == first_.end() ? kNaN : it->second[m];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w.raw(i, m)),
                  std::bit_cast<std::uint64_t>(want))
            << "node " << w.node << " seq " << w.start_seq + i << " metric "
            << m;
      }
    }
  }

  StreamIngestor& ingestor_;
  std::map<std::pair<int, std::uint64_t>, std::vector<double>> first_;
  std::size_t checked_ = 0;
};

std::vector<TriggeredWindow> replay(
    StreamIngestor& ingestor, int node,
    const std::vector<std::vector<double>>& rows,
    std::uint64_t first_seq = 0) {
  Feed feed(ingestor);
  std::vector<TriggeredWindow> out;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (TriggeredWindow& w : feed.push(node, first_seq + t, rows[t])) {
      out.push_back(std::move(w));
    }
  }
  return out;
}

// --------------------------------------------------------- clean replays ---

TEST(StreamIngest, CleanReplayTriggersSlidingWindowsWithParity) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);

  const auto rows = make_rows(registry, 200, 11);
  const auto windows = replay(ingestor, 0, rows);

  // Starts 0, 24, ..., 144: the last window fitting 200 rows.
  ASSERT_EQ(windows.size(), 7u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start_seq, 24u * i);
    EXPECT_EQ(windows[i].missing_rows, 0u);
  }

  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.accepted, 200u);
  EXPECT_EQ(s.windows_emitted, 7u);
  EXPECT_EQ(s.reordered + s.duplicates + s.late_dropped + s.missing_rows, 0u);
  EXPECT_EQ(ingestor.windows_in_flight(0), 2u);  // starts 168 and 192
  ingestor.flush();
  EXPECT_EQ(ingestor.stats(0).windows_flushed, 2u);
  EXPECT_EQ(ingestor.windows_in_flight(0), 0u);
}

TEST(StreamIngest, WindowRawIsTheDeliveredRows) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 16, 3);
  const auto windows = replay(ingestor, 4, rows);
  ASSERT_EQ(windows.size(), 1u);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (std::size_t m = 0; m < registry.size(); ++m) {
      EXPECT_EQ(windows[0].raw(t, m), rows[t][m]);
    }
  }
  EXPECT_EQ(windows[0].node, 4);
}

// ------------------------------------------------------ gaps and repairs ---

TEST(StreamIngest, UndeliveredRowsEmitAsNaNUnderRepairPolicy) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 48;
  cfg.max_missing = 8;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 96, 31);

  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t % 13 == 7) continue;  // drop ~7% of rows outright
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 2u);
  for (const TriggeredWindow& w : windows) {
    EXPECT_GT(w.missing_rows, 0u);
    EXPECT_LE(w.missing_rows, cfg.max_missing);
    bool saw_nan_row = false;
    for (std::size_t t = 0; t < w.raw.rows() && !saw_nan_row; ++t) {
      saw_nan_row = std::isnan(w.raw(t, 0));
    }
    EXPECT_TRUE(saw_nan_row);
  }
  EXPECT_GT(ingestor.stats(0).missing_rows, 0u);
}

TEST(StreamIngest, StrictPolicyDropsIncompleteWindows) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  cfg.gap_policy = GapPolicy::Strict;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 48, 5);

  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t == 20) continue;  // one hole, inside the second window
    for (TriggeredWindow& w : ingestor.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 2u);  // windows 0 and 32 emit; 16 is dropped
  EXPECT_EQ(windows[0].start_seq, 0u);
  EXPECT_EQ(windows[1].start_seq, 32u);
  EXPECT_EQ(ingestor.stats(0).windows_dropped, 1u);
}

TEST(StreamIngest, RepairPolicyDropsWindowsPastMaxMissing) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  cfg.max_missing = 2;
  StreamIngestor ingestor(registry, cfg);
  const auto rows = make_rows(registry, 32, 5);

  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t >= 18 && t < 22) continue;  // 4 missing rows > max_missing
    for (TriggeredWindow& w : ingestor.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start_seq, 0u);
  EXPECT_EQ(ingestor.stats(0).windows_dropped, 1u);
}

TEST(StreamIngest, GapFillAheadOfTheAnchorRepairsExactly) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 48;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 48, 17);

  // Row 20 goes missing while rows 21-22 arrive as all-NaN rows, then 20
  // shows up late: the repair lands in the ring, and the delivered NaN
  // rows stay NaN.
  const std::vector<double> nan_row(registry.size(), kNaN);
  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t == 20) continue;
    const std::span<const double> row =
        (t == 21 || t == 22) ? std::span<const double>(nan_row)
                             : std::span<const double>(rows[t]);
    if (t == 23) {
      for (TriggeredWindow& w : feed.push(0, 20, rows[20])) {
        windows.push_back(std::move(w));
      }
    }
    for (TriggeredWindow& w : feed.push(0, t, row)) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].missing_rows, 0u);  // 20 repaired; 21-22 delivered
  EXPECT_EQ(windows[0].raw(20, 0), rows[20][0]);
  EXPECT_TRUE(std::isnan(windows[0].raw(21, 0)));
  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.reordered, 1u);
  EXPECT_EQ(s.missing_rows, 0u);  // net: marked missing, then repaired
}

TEST(StreamIngest, LateRowBehindDeliveredRowsLandsInTheWindow) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 48;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 48, 19);

  // Row 20 goes missing, rows 21-24 are delivered, THEN 20 shows up: the
  // repair lands behind finite values already in the ring, and the late
  // value is in the emitted window.
  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t == 20) continue;
    if (t == 25) {
      for (TriggeredWindow& w : feed.push(0, 20, rows[20])) {
        windows.push_back(std::move(w));
      }
    }
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].missing_rows, 0u);
  EXPECT_EQ(windows[0].raw(20, 0), rows[20][0]);
  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.reordered, 1u);
}

TEST(StreamIngest, BoundedSkewReplayEmitsCompleteWindows) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 144, 29);

  // Swap every 6th adjacent pair (offset so no swap touches the stream
  // head or a window's last row): a dense out-of-order trace where every
  // swap is a repair behind the watermark.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t t = 0; t < rows.size(); ++t) order[t] = t;
  for (std::size_t t = 2; t + 1 < order.size(); t += 6) {
    std::swap(order[t], order[t + 1]);
  }
  std::vector<TriggeredWindow> windows;
  for (const std::size_t t : order) {
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_GE(windows.size(), 4u);
  for (const TriggeredWindow& w : windows) {
    EXPECT_EQ(w.missing_rows, 0u);
  }
  const IngestStats s = ingestor.stats(0);
  EXPECT_GT(s.reordered, 0u);
  EXPECT_EQ(s.late_dropped, 0u);
  EXPECT_EQ(s.missing_rows, 0u);
}

// ------------------------------------------- late arrivals + duplicates ---

// A sample landing inside an already-emitted window must be counted
// late_dropped and must NOT be written into the ring, where a future window
// mapping onto the same slot would read it as a delivered row.
TEST(StreamIngest, LateArrivalInsideEmittedWindowIsDroppedNotWritten) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  cfg.max_missing = 2;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 48, 37);

  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < 16; ++t) {
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 1u);  // window [0, 16) emitted

  // Row 7 re-arrives late. Ring capacity is window_length + stride = 32,
  // so seq 39 of the third window maps onto the same ring slot as seq 7:
  // a buggy write-through would make the (undelivered) row 39 look
  // delivered with row 7's stale values.
  std::vector<double> poison(registry.size(), 1e9);
  EXPECT_TRUE(feed.push(0, 7, poison).empty());
  const IngestStats after_late = ingestor.stats(0);
  EXPECT_EQ(after_late.late_dropped, 1u);
  EXPECT_EQ(after_late.duplicates, 0u);
  EXPECT_EQ(after_late.accepted, 16u);

  for (std::size_t t = 16; t < 48; ++t) {
    if (t == 39) continue;  // never delivered
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 3u);
  const TriggeredWindow& third = windows[2];
  EXPECT_EQ(third.start_seq, 32u);
  EXPECT_EQ(third.missing_rows, 1u);
  // Row 39 (slot shared with the dropped late row 7) must be NaN, not 1e9.
  EXPECT_TRUE(std::isnan(third.raw(7, 0)));
}

TEST(StreamIngest, DuplicateRowsKeepTheFirstValue) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 16, 41);

  std::vector<TriggeredWindow> windows;
  std::vector<double> poison(registry.size(), -777.0);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
    if (t == 5) {
      EXPECT_TRUE(feed.push(0, 5, poison).empty());
    }
  }
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(ingestor.stats(0).duplicates, 1u);
  EXPECT_EQ(windows[0].raw(5, 0), rows[5][0]);  // first delivery won
}

TEST(StreamIngest, ForwardJumpPastTheRingResetsAndRecovers) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 16;
  cfg.stride = 16;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 48, 43);

  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < 24; ++t) {
    for (TriggeredWindow& w : feed.push(0, t, rows[t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(ingestor.windows_in_flight(0), 1u);

  // A collector restart: the sequence jumps far past the ring. In-flight
  // windows are dropped; streaming re-anchors at the new sequence.
  for (std::size_t t = 0; t < 16; ++t) {
    for (TriggeredWindow& w : feed.push(0, 5000 + t, rows[24 + t])) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].start_seq, 5000u);
  EXPECT_EQ(windows[1].missing_rows, 0u);
  const IngestStats s = ingestor.stats(0);
  EXPECT_EQ(s.resets, 1u);
  EXPECT_EQ(s.windows_dropped, 1u);
}

// ------------------------------------------------- fault-injected replay ---

TEST(StreamIngest, FaultInjectedReplayKeepsParity) {
  NodeSimConfig sim;
  sim.duration_steps = 96;
  const RunGenerator generator(SystemKind::Volta, RegistryConfig{2, 1, 1},
                               sim);

  FaultConfig faults = production_faults();
  faults.truncate_prob = 0.0;  // keep full-length streams for this replay
  const TelemetryFaultInjector injector(faults);

  StreamIngestConfig cfg;
  cfg.window_length = 32;
  cfg.stride = 16;
  std::size_t windows_checked = 0;
  for (int run = 0; run < 3; ++run) {
    RunSpec spec;
    spec.app_id = run % 2;
    spec.nodes = 1;
    spec.run_id = 7000 + run;
    spec.seed = 100 + static_cast<std::uint64_t>(run);
    if (run != 0) {
      spec.anomaly = kAnomalyTypes[static_cast<std::size_t>(run) %
                                   kAnomalyTypes.size()];
      spec.intensity = 1.0;
    }
    for (Sample& sample : generator.generate_run(spec)) {
      Rng rng(900 + static_cast<std::uint64_t>(run));
      injector.apply(sample.series, generator.registry(), rng);

      StreamIngestor ingestor(generator.registry(), cfg);
      Feed feed(ingestor);
      for (std::size_t t = 0; t < sample.series.rows(); ++t) {
        (void)feed.push(sample.node_index, t, sample.series.row(t));
      }
      windows_checked += feed.windows_checked();
    }
  }
  EXPECT_GE(windows_checked, 10u);
}

// Bitwise equality of two windows' raw matrices.
bool same_raw_bits(const TriggeredWindow& a, const TriggeredWindow& b) {
  if (a.start_seq != b.start_seq || a.raw.rows() != b.raw.rows() ||
      a.raw.cols() != b.raw.cols()) {
    return false;
  }
  for (std::size_t i = 0; i < a.raw.rows(); ++i) {
    for (std::size_t m = 0; m < a.raw.cols(); ++m) {
      if (std::bit_cast<std::uint64_t>(a.raw(i, m)) !=
          std::bit_cast<std::uint64_t>(b.raw(i, m))) {
        return false;
      }
    }
  }
  return true;
}

TEST(StreamIngest, NodesAreIndependentOfInterleaving) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 32;
  cfg.stride = 16;

  const auto rows_a = make_rows(registry, 96, 51);
  const auto rows_b = make_rows(registry, 96, 53, /*nan_cell_rate=*/0.1);

  StreamIngestor solo_a(registry, cfg);
  StreamIngestor solo_b(registry, cfg);
  const auto windows_a = replay(solo_a, 1, rows_a);
  const auto windows_b = replay(solo_b, 2, rows_b);

  StreamIngestor mixed(registry, cfg);
  std::vector<TriggeredWindow> windows_1;
  std::vector<TriggeredWindow> windows_2;
  for (std::size_t t = 0; t < rows_a.size(); ++t) {
    for (TriggeredWindow& w : mixed.push(1, t, rows_a[t])) {
      windows_1.push_back(std::move(w));
    }
    for (TriggeredWindow& w : mixed.push(2, t, rows_b[t])) {
      windows_2.push_back(std::move(w));
    }
  }

  ASSERT_EQ(windows_1.size(), windows_a.size());
  ASSERT_EQ(windows_2.size(), windows_b.size());
  for (std::size_t i = 0; i < windows_a.size(); ++i) {
    EXPECT_TRUE(same_raw_bits(windows_1[i], windows_a[i])) << "window " << i;
  }
  for (std::size_t i = 0; i < windows_b.size(); ++i) {
    EXPECT_TRUE(same_raw_bits(windows_2[i], windows_b[i])) << "window " << i;
  }
  const IngestStats total = mixed.total_stats();
  EXPECT_EQ(total.accepted,
            mixed.stats(1).accepted + mixed.stats(2).accepted);
}

// -------------------------------------------- determinism across threads ---

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Replays a gapped, NaN-ridden, partially out-of-order stream and hashes
// every emitted raw bit plus the stats counters. Run directly it checks
// each window against the feed; run from the re-exec harness below it also
// prints the hash for the parent to compare across ALBA_THREADS settings.
TEST(StreamThreads, ChildReplayAndHash) {
  const MetricRegistry registry = test_registry();
  StreamIngestConfig cfg;
  cfg.window_length = 48;
  cfg.stride = 24;
  StreamIngestor ingestor(registry, cfg);
  Feed feed(ingestor);
  const auto rows = make_rows(registry, 240, 61, /*nan_cell_rate=*/0.05);

  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t emitted = 0;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (t % 17 == 5) continue;  // gap
    if (t % 29 == 11 && t > 0) {
      (void)feed.push(0, t - 1, rows[t - 1]);  // duplicate
    }
    for (const TriggeredWindow& w : feed.push(0, t, rows[t])) {
      ++emitted;
      h = fnv1a(h, w.start_seq);
      for (std::size_t i = 0; i < w.raw.rows(); ++i) {
        for (const double v : w.raw.row(i)) {
          h = fnv1a(h, std::bit_cast<std::uint64_t>(v));
        }
      }
    }
  }
  const IngestStats s = ingestor.stats(0);
  h = fnv1a(h, s.accepted);
  h = fnv1a(h, s.reordered);
  h = fnv1a(h, s.duplicates);
  h = fnv1a(h, s.missing_rows);
  h = fnv1a(h, s.windows_emitted);
  EXPECT_GT(emitted, 4u);
  std::printf("STREAM_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// Streaming is single-threaded by design, but its outputs must not depend
// on the process-wide pool size (registry setup must stay off the pool):
// re-exec with ALBA_THREADS pinned and compare.
TEST(StreamThreads, WindowsIdenticalAcrossPoolSizes) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) GTEST_SKIP() << "/proc/self/exe unavailable";
  self[len] = '\0';

  std::vector<std::string> hashes;
  for (const char* threads : {"1", "2", "8"}) {
    const std::string cmd =
        std::string("ALBA_THREADS=") + threads + " '" + self +
        "' --gtest_filter=StreamThreads.ChildReplayAndHash 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
      const std::string s(line);
      const auto pos = s.find("STREAM_HASH=");
      if (pos != std::string::npos) hash = s.substr(pos + 12, 16);
    }
    const int rc = pclose(pipe);
    ASSERT_EQ(rc, 0) << "child run with ALBA_THREADS=" << threads
                     << " failed";
    ASSERT_EQ(hash.size(), 16u) << "child printed no hash";
    hashes.push_back(hash);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

// --------------------------------------------------- the Diagnoser tiers ---

const ServingFixture& tier_env() {
  static const ServingFixture* shared = train_serving_fixture();
  return *shared;
}

Sample fresh_sample(const ServingFixture& e, std::uint64_t seed) {
  const RunGenerator generator(e.cfg.system, e.cfg.registry, e.cfg.sim);
  RunSpec spec;
  spec.app_id = 0;
  spec.nodes = 1;
  spec.anomaly = kAnomalyTypes[0];
  spec.intensity = 1.0;
  spec.run_id = 9900;
  spec.seed = seed;
  return generator.generate_run(spec)[0];
}

TEST(DiagnoserTiers, StreamedWindowDiagnosesIdenticallyAcrossAllTiers) {
  const ServingFixture& e = tier_env();
  const Sample sample = fresh_sample(e, 777);

  // Stream the sample's series as a 1 Hz feed; one tumbling window spans
  // the full run, so its raw matrix is bit-identical to the series.
  StreamIngestConfig cfg;
  cfg.window_length = sample.series.rows();
  cfg.stride = sample.series.rows();
  cfg.preprocess = e.cfg.preprocess;
  StreamIngestor ingestor(MetricRegistry(e.cfg.system, e.cfg.registry), cfg);
  std::vector<TriggeredWindow> windows;
  for (std::size_t t = 0; t < sample.series.rows(); ++t) {
    for (TriggeredWindow& w : ingestor.push(0, t, sample.series.row(t))) {
      windows.push_back(std::move(w));
    }
  }
  ASSERT_EQ(windows.size(), 1u);

  auto service = make_service(e.bundle_a);
  const DiagnosisResult served = service->diagnose({&sample.series});
  ASSERT_TRUE(served.ok()) << served.error;
  const Diagnosis& reference = served.diagnosis;

  ServiceHost host(make_service(e.bundle_a));
  ServingFleet fleet({make_service(e.bundle_a), make_service(e.bundle_a)});

  const std::vector<Diagnoser*> tiers = {service.get(), &host, &fleet};
  for (Diagnoser* tier : tiers) {
    const DiagnosisResult r = tier->diagnose(DiagnoseRequest{&windows[0].raw});
    ASSERT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
    EXPECT_EQ(r.diagnosis.label, reference.label);
    EXPECT_EQ(r.generation, 1u);
    ASSERT_EQ(r.diagnosis.probs.size(), reference.probs.size());
    for (std::size_t i = 0; i < reference.probs.size(); ++i) {
      EXPECT_EQ(r.diagnosis.probs[i], reference.probs[i]);
    }
  }
  fleet.drain();
  host.drain();
}

TEST(DiagnoserTiers, ExpiredDeadlineIsATypedRejectionEverywhere) {
  const ServingFixture& e = tier_env();
  const Sample sample = fresh_sample(e, 778);

  auto service = make_service(e.bundle_a);
  ServiceHost host(make_service(e.bundle_a));
  ServingFleet fleet({make_service(e.bundle_a)});

  const std::vector<Diagnoser*> tiers = {service.get(), &host, &fleet};
  for (Diagnoser* tier : tiers) {
    const DiagnosisResult r = tier->diagnose(
        DiagnoseRequest{&sample.series, Deadline::after_ms(-1.0)});
    EXPECT_EQ(r.status, RequestStatus::RejectedDeadline);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.diagnosis.probs.empty());
  }
  fleet.drain();
  host.drain();
}

TEST(DiagnoserTiers, PipelineFaultIsAFailedStatusNotAnException) {
  const ServingFixture& e = tier_env();
  const Sample sample = fresh_sample(e, 779);

  ServingConfig serving;
  serving.cache_capacity = 0;
  serving.extraction_hook = [](const Matrix&) { throw Error("injected"); };
  auto service = make_service(e.bundle_a, serving);

  Diagnoser& tier = *service;
  const DiagnosisResult r = tier.diagnose(DiagnoseRequest{&sample.series});
  EXPECT_EQ(r.status, RequestStatus::Failed);
  EXPECT_NE(r.error.find("injected"), std::string::npos);
}

TEST(DiagnoserTiers, GenericRetryRecoversOnAnyTier) {
  const ServingFixture& e = tier_env();
  const Sample sample = fresh_sample(e, 780);

  std::atomic<int> calls{0};
  ServingConfig serving;
  serving.cache_capacity = 0;
  serving.extraction_hook = [&](const Matrix&) {
    if (calls.fetch_add(1) < 2) throw Error("transient");
  };
  auto service = make_service(e.bundle_a, serving);

  BackoffConfig backoff;
  backoff.max_attempts = 5;
  backoff.initial_delay_ms = 0.5;
  backoff.seed = 7;
  const DiagnosisResult r = diagnose_with_retry(
      *service, DiagnoseRequest{&sample.series}, backoff);
  EXPECT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
}

}  // namespace
}  // namespace alba
