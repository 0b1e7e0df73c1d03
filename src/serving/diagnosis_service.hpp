// Online diagnosis serving: the first end-to-end inference path from a raw
// per-node telemetry window (T x M matrix, as collected) to an anomaly
// label, using nothing but a frozen ModelBundle. The service replays the
// training-time pipeline — preprocess, extract, project onto the selected
// training columns, Min-Max scale, predict — with two serving-only
// optimizations that keep results bit-identical to the offline path:
//
//  * only metrics that feed at least one selected feature are preprocessed,
//    and each is extracted through a FeaturePlan compiled at load time
//    that computes only that metric's selected features (preprocessing and
//    extraction are per-metric and a plan runs the same table entries as
//    training, so the skipped work cannot change the kept columns);
//  * scaling and column selection are composed per selected column: each
//    planned feature is Min-Max scaled and clamped straight into its model
//    input column, so no feature_names-wide row is ever materialized.
//
// Each call serves one window: the preprocessed column, the plan outputs,
// the plan intermediates, the feature row and the probability matrix are
// per-thread scratch that keep their capacity across requests, and the
// classifier sees a batch of one. An LRU cache keyed on the window's content
// hash answers repeated windows (a stalled collector re-delivering the same
// scan, a dashboard re-asking about the same incident) without touching
// the pipeline.
//
// Thread-safety contract: diagnose may be called concurrently from any
// number of threads. The cache and the statistics are mutex-guarded; the
// pipeline itself only reads the frozen bundle. stats()/reset_stats() are
// safe concurrently with serving.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "features/extractor.hpp"
#include "linalg/matrix.hpp"
#include "serving/diagnoser.hpp"
#include "serving/model_bundle.hpp"
#include "serving/serving_stats.hpp"
#include "telemetry/registry.hpp"

namespace alba {

struct ServingConfig {
  // LRU entries keyed on window content hash; 0 disables caching.
  std::size_t cache_capacity = 1024;
  // Called once per window at the start of feature extraction; the chaos
  // harness (serving/chaos.hpp) uses it to inject slow or failing
  // extractions. A throw from the hook aborts that window's pipeline pass,
  // which diagnose reports as Failed — exactly like a real extraction
  // failure. Leave empty in production.
  std::function<void(const Matrix&)> extraction_hook;
};

/// Full cache identity of a raw window: the 64-bit content hash
/// plus a cheap verifier (shape and the bit patterns of the first and last
/// cells). The cache indexes by `hash` but only answers when the verifier
/// matches too — a 64-bit hash collision between distinct windows must not
/// silently return another window's diagnosis.
struct WindowKey {
  std::uint64_t hash = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t first_bits = 0;  // bit pattern of cell (0, 0); 0 if empty
  std::uint64_t last_bits = 0;   // bit pattern of the last cell; 0 if empty

  bool matches(const WindowKey& o) const noexcept {
    return hash == o.hash && rows == o.rows && cols == o.cols &&
           first_bits == o.first_bits && last_bits == o.last_bits;
  }
};

/// Computes the full cache key of a window. Exposed for tests.
WindowKey window_key(const Matrix& window) noexcept;

/// Thread-safe LRU keyed on WindowKey — the DiagnosisService's window
/// cache, factored out so hash-collision handling is testable with
/// synthetic keys (crafting real 64-bit hash collisions is infeasible).
/// A lookup whose hash matches but whose verifier does not is a miss; an
/// insert over such an entry evicts it and counts a collision eviction.
class WindowCache {
 public:
  /// `capacity` of 0 disables the cache (lookup misses, insert drops).
  explicit WindowCache(std::size_t capacity) : capacity_(capacity) {}

  /// On a verified hit, copies the stored diagnosis into `out` with
  /// cache_hit flagged and refreshes recency.
  bool lookup(const WindowKey& key, Diagnosis& out);
  void insert(const WindowKey& key, const Diagnosis& d);

  std::size_t size() const;
  /// Entries replaced because the full key disproved a hash match.
  std::uint64_t collision_evictions() const;

 private:
  struct Entry {
    WindowKey key;
    Diagnosis result;  // stored with cache_hit=false; flagged on lookup
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // most-recent at the front; map points into it
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t collision_evictions_ = 0;
};

class DiagnosisService : public Diagnoser {
 public:
  /// Latency-percentile window: stats() computes p50/p99 over at most this
  /// many most-recent windows.
  static constexpr std::size_t kLatencyWindow = 4096;

  /// Takes ownership of the bundle and precomputes the serving plan
  /// (needed metrics, per-column scaling). Throws when the bundle's
  /// feature names cannot be produced by its own registry/extractor
  /// configuration.
  explicit DiagnosisService(ModelBundle bundle, ServingConfig config = {});

  /// Diagnoses one raw T x M window. Never throws for the window: a
  /// pipeline error — including a window whose M differs from the bundle's
  /// registry or whose T does not exceed the configured trim — comes back
  /// Failed with `error` naming it; a request whose deadline is already
  /// expired (or that finishes past it) comes back RejectedDeadline with no
  /// diagnosis, the Ok-met-its-deadline contract of the hosted tiers.
  /// Reports generation 1 (a bare service never reloads), replica 0,
  /// attempts 1.
  DiagnosisResult diagnose(const DiagnoseRequest& request) override;

  const ModelBundle& bundle() const noexcept { return bundle_; }
  const ServingConfig& config() const noexcept { return config_; }
  const MetricRegistry& registry() const noexcept { return registry_; }
  std::string_view label_name(int label) const;

  /// Counter snapshot including latency percentiles; see ServingStats.
  ServingStats stats() const;
  void reset_stats();

 private:
  // Extraction plan for one needed metric: the compiled plan of its
  // selected features and, per plan output, its model-input column.
  struct MetricPlan {
    std::size_t metric = 0;  // registry column
    FeaturePlan features;
    std::vector<std::size_t> cols;
  };

  // The pipeline body behind diagnose; throws alba::Error on a malformed
  // window or a failed extraction.
  Diagnosis run_pipeline(const Matrix& window);
  void extract_row(const Matrix& window, std::span<double> out) const;
  void record_request(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end,
                      double extract_s, double predict_s, bool cache_hit);

  ModelBundle bundle_;
  ServingConfig config_;
  MetricRegistry registry_;

  // Precomputed plan: per-needed-metric compiled feature plans and, per
  // model input column, the Min-Max parameters of its source feature column.
  std::vector<MetricPlan> plan_;
  std::vector<double> col_min_;
  std::vector<double> col_max_;

  // Window cache with verified (collision-safe) hits.
  WindowCache cache_;

  // Aggregate counters + per-window latency ring (RoundStats idiom).
  // wall-clock span endpoints: first request start, latest request end.
  mutable std::mutex stats_mutex_;
  ServingStats totals_;
  OutcomeWindow latency_{kLatencyWindow};
  bool span_started_ = false;
  std::chrono::steady_clock::time_point span_first_{};
  std::chrono::steady_clock::time_point span_last_{};
  // Cache collision count at the last reset_stats (the cache itself is
  // not reset, so stats() reports the delta).
  std::uint64_t collisions_at_reset_ = 0;
};

/// Content hash of a raw window (shape + bit pattern of every cell, NaNs by
/// payload), mixed a 64-bit word at a time and avalanched — the
/// cache key. Exposed for tests.
std::uint64_t hash_window(const Matrix& window) noexcept;

}  // namespace alba
