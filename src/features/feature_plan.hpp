// Table-driven per-metric feature extraction. Every MVTS/TSFRESH feature is
// one FeatureDef: its name, the shared per-series intermediates it reads,
// and a compute function. A FeaturePlan is compiled once from a table and
// a list of feature indices; running it builds only the intermediates the
// listed features need (the sorted copy once for every quantile, the FFT
// spectrum once for every coefficient, ...) and computes only the listed
// features. Training extracts through the all-index plan
// (FeatureExtractor::extract); serving compiles one plan per needed metric
// holding just the features its bundle selected. Both are the same code,
// so the served features are bit-identical to the training features.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/regression.hpp"
#include "stats/welch.hpp"

namespace alba {

/// Shared per-series intermediates, as bit flags in FeatureDef::needs.
/// Each one is built at most once per series, and only when a planned
/// feature needs it.
enum FeatureNeed : std::uint32_t {
  kNeedSorted = 1u << 0,        // ascending copy of the series
  kNeedSortedHalves = 1u << 1,  // ascending copies of x[0, n/2), x[n/2, n)
  kNeedMean = 1u << 2,          // stats::mean(x)
  kNeedSpectrum = 1u << 3,      // stats::fft_real(x)
  kNeedPsd = 1u << 4,           // stats::welch_psd(x, 64)
  kNeedDecimated = 1u << 5,     // x stride-decimated to entropy_cap points
  kNeedTrend = 1u << 6,         // stats::linear_trend(x)
};

/// What a feature's compute function reads: the series and the
/// intermediates its FeatureDef declared (the others are left empty).
struct SeriesView {
  std::span<const double> x;
  std::span<const double> sorted;
  std::span<const double> sorted_first;
  std::span<const double> sorted_second;
  double mean = 0.0;
  std::span<const std::complex<double>> spectrum;
  const stats::WelchResult* psd = nullptr;
  std::span<const double> decimated;
  stats::LinearTrend trend;
};

struct FeatureDef {
  std::string name;
  std::uint32_t needs = 0;  // FeatureNeed flags
  std::function<double(const SeriesView&)> compute;
};

/// One extractor's whole feature set, in output order.
struct FeatureTable {
  std::string extractor;        // "mvts" / "tsfresh"
  std::size_t min_length = 0;   // shorter series are rejected
  std::size_t entropy_cap = 0;  // kNeedDecimated's point budget
  std::vector<FeatureDef> features;
};

// Table-building helpers shared by the extractors.

/// A feature that is one stats:: call on the whole series.
template <typename F>
FeatureDef on_series(std::string name, F f) {
  return {std::move(name), 0,
          [f](const SeriesView& s) { return static_cast<double>(f(s.x)); }};
}

/// A feature that is one stats:: call on the whole series plus a parameter.
template <typename F, typename P>
FeatureDef with_param(std::string name, F f, P param) {
  return {std::move(name), 0, [f, param](const SeriesView& s) {
            return static_cast<double>(f(s.x, param));
          }};
}

/// The q-quantile, interpolated in the shared sorted copy.
FeatureDef quantile_feature(std::string name, double q);

/// trend_slope, trend_intercept, trend_rvalue, trend_stderr.
std::vector<FeatureDef> trend_features();

/// Per-thread buffers for the intermediates; they keep their capacity
/// across series, so a warm plan run does not allocate them.
struct FeatureScratch {
  std::vector<double> sorted;
  std::vector<double> sorted_first;
  std::vector<double> sorted_second;
  std::vector<double> decimated;
  std::vector<std::complex<double>> spectrum;
  stats::WelchResult psd;
};

class FeaturePlan {
 public:
  /// Plans the features `indices` of `table`, in that order. Throws when an
  /// index is out of range.
  FeaturePlan(std::shared_ptr<const FeatureTable> table,
              std::vector<std::size_t> indices);

  std::size_t size() const noexcept { return indices_.size(); }

  /// Writes the k-th planned feature of series `x` into out[k]. Throws when
  /// `out` has the wrong size or `x` is shorter than the table allows.
  void run(std::span<const double> x, std::span<double> out,
           FeatureScratch& scratch) const;

 private:
  std::shared_ptr<const FeatureTable> table_;
  std::vector<std::size_t> indices_;
  std::uint32_t needs_ = 0;  // union over the planned features
};

/// A named feature table plus its all-index plan: the per-metric extractor
/// the training pipeline runs over every metric column.
class FeatureExtractor {
 public:
  virtual ~FeatureExtractor() = default;

  /// Extractor id ("mvts" / "tsfresh").
  const std::string& name() const noexcept { return table_->extractor; }

  /// Names of the features produced for a single metric, in output order.
  const std::vector<std::string>& feature_names() const noexcept {
    return names_;
  }
  std::size_t num_features() const noexcept { return names_.size(); }

  /// Compiles a plan computing only the features `indices`.
  FeaturePlan plan(std::vector<std::size_t> indices) const;

  /// Computes all features of one metric's (preprocessed) series into `out`,
  /// which must have exactly num_features() slots.
  void extract(std::span<const double> series, std::span<double> out) const;

 protected:
  explicit FeatureExtractor(FeatureTable table);

 private:
  std::shared_ptr<const FeatureTable> table_;
  std::vector<std::string> names_;
  FeaturePlan all_;
};

}  // namespace alba
