#include "serving/diagnosis_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "features/preprocessing.hpp"

namespace alba {

namespace {

std::uint64_t cell_bits(const double* p) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, p, sizeof(bits));
  return bits;
}

// xxHash64's accumulate round: multiply-rotate-multiply, so every bit of
// `word` reaches the high and (via the rotation) the low half of `acc`.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;

std::uint64_t hash_round(std::uint64_t acc, std::uint64_t word) noexcept {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

}  // namespace

std::uint64_t hash_window(const Matrix& window) noexcept {
  // Word-wise over the raw bit pattern of every cell (NaNs hash by payload,
  // which is what content-identity wants), in four independent lanes so
  // the multiplies overlap; the lanes, the shape and the tail cells are
  // then folded in order and the result is avalanched.
  const double* cells = window.data();
  const std::size_t n = window.size();
  std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      lane[l] = hash_round(lane[l], cell_bits(cells + i + l));
    }
  }
  std::uint64_t h = 0;
  for (const std::uint64_t l : lane) h = hash_round(h, l);
  h = hash_round(h, window.rows());
  h = hash_round(h, window.cols());
  for (; i < n; ++i) h = hash_round(h, cell_bits(cells + i));
  return splitmix_finalize(h);
}

WindowKey window_key(const Matrix& window) noexcept {
  WindowKey key;
  key.hash = hash_window(window);
  key.rows = window.rows();
  key.cols = window.cols();
  if (window.size() > 0) {
    key.first_bits = cell_bits(window.data());
    key.last_bits = cell_bits(window.data() + window.size() - 1);
  }
  return key;
}

bool WindowCache::lookup(const WindowKey& key, Diagnosis& out) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key.hash);
  if (it == index_.end()) return false;
  // Verified hit only: a hash match with a differing full key is another
  // window's entry, which must not be served as this window's answer.
  if (!it->second->key.matches(key)) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  out = it->second->result;
  out.cache_hit = true;
  return true;
}

void WindowCache::insert(const WindowKey& key, const Diagnosis& d) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key.hash);
  if (it != index_.end()) {
    if (it->second->key.matches(key)) return;  // a concurrent miss won
    // Hash collision between distinct windows: evict the old entry in
    // favor of the new one and account for it.
    ++collision_evictions_;
    it->second->key = key;
    it->second->result = d;
    it->second->result.cache_hit = false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, d});
  lru_.front().result.cache_hit = false;
  index_.emplace(key.hash, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key.hash);
    lru_.pop_back();
  }
}

std::size_t WindowCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t WindowCache::collision_evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return collision_evictions_;
}

DiagnosisService::DiagnosisService(ModelBundle bundle, ServingConfig config)
    : bundle_(std::move(bundle)),
      config_(config),
      registry_(bundle_.features.system, bundle_.features.registry),
      cache_(config.cache_capacity) {
  ALBA_CHECK(bundle_.model && bundle_.model->fitted())
      << "DiagnosisService needs a fitted model";

  // Resolve every selected feature name against the raw feature space this
  // registry/extractor pair produces (column j*F+f is feature f of metric
  // j, as in extract_features), composing projection + scaling into a
  // per-input-column plan grouped by metric.
  const auto extractor = make_extractor(bundle_.features.extractor);
  const std::size_t f = extractor->num_features();
  const auto& extractor_features = extractor->feature_names();
  std::unordered_map<std::string, std::size_t> raw_index;
  raw_index.reserve(registry_.size() * f);
  for (std::size_t j = 0; j < registry_.size(); ++j) {
    for (std::size_t k = 0; k < f; ++k) {
      raw_index.emplace(registry_.metric(j).name + "|" + extractor_features[k],
                        j * f + k);
    }
  }

  const std::size_t inputs = bundle_.selected.size();
  col_min_.resize(inputs);
  col_max_.resize(inputs);
  // Per needed metric, in order of first use: (metric, features, columns).
  struct Selection {
    std::size_t metric;
    std::vector<std::size_t> features;
    std::vector<std::size_t> cols;
  };
  std::vector<Selection> selections;
  std::unordered_map<std::size_t, std::size_t> metric_slot;
  for (std::size_t c = 0; c < inputs; ++c) {
    const auto sel = static_cast<std::size_t>(bundle_.selected[c]);
    const std::string& name = bundle_.feature_names[sel];
    const auto it = raw_index.find(name);
    ALBA_CHECK(it != raw_index.end())
        << "bundle feature '" << name
        << "' is not produced by its own registry/extractor config";
    const std::size_t metric = it->second / f;
    col_min_[c] = bundle_.scaler_mins[sel];
    col_max_[c] = bundle_.scaler_maxs[sel];

    const auto [slot_it, inserted] =
        metric_slot.emplace(metric, selections.size());
    if (inserted) selections.push_back(Selection{metric, {}, {}});
    selections[slot_it->second].features.push_back(it->second % f);
    selections[slot_it->second].cols.push_back(c);
  }
  plan_.reserve(selections.size());
  for (Selection& s : selections) {
    plan_.push_back(MetricPlan{s.metric, extractor->plan(std::move(s.features)),
                               std::move(s.cols)});
  }
}

void DiagnosisService::extract_row(const Matrix& window,
                                   std::span<double> out) const {
  ALBA_DCHECK(out.size() == bundle_.selected.size());
  if (config_.extraction_hook) config_.extraction_hook(window);
  struct Scratch {
    std::vector<double> clean;   // one preprocessed metric column
    std::vector<double> values;  // one metric's planned features
    FeatureScratch features;
  };
  thread_local Scratch scratch;
  for (const MetricPlan& mp : plan_) {
    preprocess_metric_column(window, mp.metric, registry_,
                             bundle_.features.preprocess, scratch.clean);
    scratch.values.resize(mp.features.size());
    mp.features.run(scratch.clean, scratch.values, scratch.features);
    for (std::size_t k = 0; k < mp.cols.size(); ++k) {
      // Same composition as the offline path: non-finite extraction output
      // becomes 0 (select_features_by_name), then the training-time
      // Min-Max map with clipping (MinMaxScaler::transform).
      const std::size_t col = mp.cols[k];
      double v = scratch.values[k];
      if (!std::isfinite(v)) v = 0.0;
      const double span = col_max_[col] - col_min_[col];
      v = span > 0.0 ? (v - col_min_[col]) / span : 0.0;
      out[col] = std::clamp(v, 0.0, 1.0);
    }
  }
}

Diagnosis DiagnosisService::run_pipeline(const Matrix& window) {
  const auto start = std::chrono::steady_clock::now();
  const WindowKey key = window_key(window);
  Diagnosis out;
  if (cache_.lookup(key, out)) {
    record_request(start, std::chrono::steady_clock::now(), 0.0, 0.0, true);
    return out;
  }

  // Per-thread scratch: reshape keeps capacity, so after the first request
  // on a thread neither matrix allocates again. The predictor sees a batch
  // of one, which predict_dispatch routes to the small-batch threshold
  // kernel.
  Timer phase;
  thread_local Matrix x;
  thread_local Matrix probs;
  x.reshape(1, bundle_.selected.size());
  extract_row(window, x.row(0));
  const double extract_s = phase.seconds();

  phase.reset();
  static constexpr std::size_t kRow0[1] = {0};
  bundle_.model->predict_proba_rows(x, std::span<const std::size_t>(kRow0, 1),
                                    probs);
  const double predict_s = phase.seconds();

  const auto row = probs.row(0);
  out.probs.assign(row.begin(), row.end());
  out.label = argmax_label(row);
  out.confidence = row[static_cast<std::size_t>(out.label)];
  out.cache_hit = false;
  cache_.insert(key, out);
  record_request(start, std::chrono::steady_clock::now(), extract_s,
                 predict_s, false);
  return out;
}

DiagnosisResult DiagnosisService::diagnose(const DiagnoseRequest& request) {
  ALBA_CHECK(request.window != nullptr) << "DiagnoseRequest needs a window";
  DiagnosisResult r;
  r.generation = 1;
  if (request.deadline.expired()) {
    r.status = RequestStatus::RejectedDeadline;
    return r;
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    r.diagnosis = run_pipeline(*request.window);
    r.status = RequestStatus::Ok;
  } catch (const std::exception& e) {
    r.status = RequestStatus::Failed;
    r.error = e.what();
  }
  const auto end = std::chrono::steady_clock::now();
  r.service_ms = std::chrono::duration<double, std::milli>(end - start).count();
  r.total_ms = r.service_ms;
  if (r.status == RequestStatus::Ok && request.deadline.expired()) {
    // Ok always met its deadline — same contract as the hosted tiers.
    r.status = RequestStatus::RejectedDeadline;
    r.diagnosis = Diagnosis{};
  }
  return r;
}

std::string_view DiagnosisService::label_name(int label) const {
  ALBA_CHECK(label >= 0 &&
             static_cast<std::size_t>(label) < bundle_.label_names.size())
      << "label " << label << " outside the bundle's label space";
  return bundle_.label_names[static_cast<std::size_t>(label)];
}

void DiagnosisService::record_request(
    std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end, double extract_s,
    double predict_s, bool cache_hit) {
  const double total_s = std::chrono::duration<double>(end - start).count();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  totals_.windows += 1;
  totals_.cache_hits += cache_hit ? 1 : 0;
  totals_.cache_misses += cache_hit ? 0 : 1;
  totals_.extract_seconds += extract_s;
  totals_.predict_seconds += predict_s;
  totals_.total_seconds += total_s;
  // Wall-clock span: first request's start to the latest end, so
  // concurrent workers don't double-count overlapping time the way the
  // summed total_seconds does.
  if (!span_started_ || start < span_first_) {
    span_first_ = start;
    span_started_ = true;
  }
  if (end > span_last_) span_last_ = end;
  totals_.wall_seconds =
      std::chrono::duration<double>(span_last_ - span_first_).count();
  latency_.record(total_s * 1e3, false);
}

ServingStats DiagnosisService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ServingStats s = totals_;
  // The cache owns its collision counter; report growth since the last
  // reset_stats so the snapshot window matches every other counter.
  s.collision_evictions =
      cache_.collision_evictions() - collisions_at_reset_;
  s.latency_p50_ms = latency_.percentile(0.50);
  s.latency_p99_ms = latency_.percentile(0.99);
  s.latency_p999_ms = latency_.percentile(0.999);
  s.latency_min_ms = latency_.percentile(0.0);
  return s;
}

void DiagnosisService::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  totals_ = ServingStats{};
  latency_.clear();
  span_started_ = false;
  collisions_at_reset_ = cache_.collision_evictions();
}

}  // namespace alba
