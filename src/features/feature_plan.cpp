#include "features/feature_plan.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "stats/descriptive.hpp"
#include "stats/fft.hpp"

namespace alba {

namespace {

void sorted_copy(std::span<const double> x, std::vector<double>& out) {
  out.assign(x.begin(), x.end());
  std::sort(out.begin(), out.end());
}

// Stride-decimates x to at most `cap` points (for the O(n²) entropies); a
// series already within the cap is used as is.
std::span<const double> decimate(std::span<const double> x, std::size_t cap,
                                 std::vector<double>& out) {
  if (x.size() <= cap) return x;
  out.resize(cap);
  const double stride =
      static_cast<double>(x.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out[i] = x[static_cast<std::size_t>(static_cast<double>(i) * stride)];
  }
  return out;
}

}  // namespace

FeatureDef quantile_feature(std::string name, double q) {
  return {std::move(name), kNeedSorted, [q](const SeriesView& s) {
            return stats::quantile_sorted(s.sorted, q);
          }};
}

std::vector<FeatureDef> trend_features() {
  return {
      {"trend_slope", kNeedTrend,
       [](const SeriesView& s) { return s.trend.slope; }},
      {"trend_intercept", kNeedTrend,
       [](const SeriesView& s) { return s.trend.intercept; }},
      {"trend_rvalue", kNeedTrend,
       [](const SeriesView& s) { return s.trend.rvalue; }},
      {"trend_stderr", kNeedTrend,
       [](const SeriesView& s) { return s.trend.stderr_; }},
  };
}

FeaturePlan::FeaturePlan(std::shared_ptr<const FeatureTable> table,
                         std::vector<std::size_t> indices)
    : table_(std::move(table)), indices_(std::move(indices)) {
  ALBA_CHECK(table_ != nullptr);
  for (const std::size_t i : indices_) {
    ALBA_CHECK(i < table_->features.size())
        << "feature index " << i << " outside the " << table_->extractor
        << " table (" << table_->features.size() << " features)";
    needs_ |= table_->features[i].needs;
  }
}

void FeaturePlan::run(std::span<const double> x, std::span<double> out,
                      FeatureScratch& scratch) const {
  ALBA_CHECK(out.size() == indices_.size())
      << "plan computes " << indices_.size() << " features, output has "
      << out.size() << " slots";
  ALBA_CHECK(x.size() >= table_->min_length)
      << "series too short for " << table_->extractor << " extraction ("
      << x.size() << " < " << table_->min_length << ")";

  SeriesView view;
  view.x = x;
  if (needs_ & kNeedSorted) {
    sorted_copy(x, scratch.sorted);
    view.sorted = scratch.sorted;
  }
  if (needs_ & kNeedSortedHalves) {
    const std::size_t half = x.size() / 2;
    sorted_copy(x.first(half), scratch.sorted_first);
    sorted_copy(x.subspan(half), scratch.sorted_second);
    view.sorted_first = scratch.sorted_first;
    view.sorted_second = scratch.sorted_second;
  }
  if (needs_ & kNeedMean) view.mean = stats::mean(x);
  if (needs_ & kNeedSpectrum) {
    stats::fft_real(x, scratch.spectrum);
    view.spectrum = scratch.spectrum;
  }
  if (needs_ & kNeedPsd) {
    stats::welch_psd(x, /*segment_length=*/64, /*fs=*/1.0, scratch.psd);
    view.psd = &scratch.psd;
  }
  if (needs_ & kNeedDecimated) {
    view.decimated = decimate(x, table_->entropy_cap, scratch.decimated);
  }
  if (needs_ & kNeedTrend) view.trend = stats::linear_trend(x);

  for (std::size_t k = 0; k < indices_.size(); ++k) {
    out[k] = table_->features[indices_[k]].compute(view);
  }
}

FeatureExtractor::FeatureExtractor(FeatureTable table)
    : table_(std::make_shared<const FeatureTable>(std::move(table))),
      all_(table_, [this] {
        std::vector<std::size_t> all(table_->features.size());
        std::iota(all.begin(), all.end(), std::size_t{0});
        return all;
      }()) {
  names_.reserve(table_->features.size());
  for (const FeatureDef& def : table_->features) names_.push_back(def.name);
}

FeaturePlan FeatureExtractor::plan(std::vector<std::size_t> indices) const {
  return FeaturePlan(table_, std::move(indices));
}

void FeatureExtractor::extract(std::span<const double> series,
                               std::span<double> out) const {
  thread_local FeatureScratch scratch;
  all_.run(series, out, scratch);
}

}  // namespace alba
