#include "features/mvts.hpp"

#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace alba {

namespace {
using namespace alba::stats;

// |f(first half) - f(second half)|.
template <typename F>
FeatureDef half_diff(std::string name, F f) {
  return {std::move(name), 0, [f](const SeriesView& s) {
            const std::size_t half = s.x.size() / 2;
            return std::abs(f(s.x.first(half)) - f(s.x.subspan(half)));
          }};
}

FeatureDef half_quantile_diff(std::string name, double q) {
  return {std::move(name), kNeedSortedHalves, [q](const SeriesView& s) {
            return std::abs(quantile_sorted(s.sorted_first, q) -
                            quantile_sorted(s.sorted_second, q));
          }};
}

FeatureTable mvts_table() {
  FeatureTable t;
  t.extractor = "mvts";
  t.min_length = 4;
  t.features = {
      // 14 whole-series descriptive statistics
      {"mean", kNeedMean, [](const SeriesView& s) { return s.mean; }},
      on_series("std", stddev),
      on_series("var", variance),
      on_series("min", minimum),
      on_series("max", maximum),
      on_series("range", range),
      quantile_feature("median", 0.5),
      quantile_feature("q05", 0.05),
      quantile_feature("q25", 0.25),
      quantile_feature("q75", 0.75),
      quantile_feature("q95", 0.95),
      on_series("skewness", skewness),
      on_series("kurtosis", kurtosis),
      {"iqr", kNeedSorted,
       [](const SeriesView& s) {
         return quantile_sorted(s.sorted, 0.75) -
                quantile_sorted(s.sorted, 0.25);
       }},
      // 11 first/second-half absolute differences
      half_diff("d_mean", mean),
      half_diff("d_std", stddev),
      half_diff("d_var", variance),
      half_diff("d_min", minimum),
      half_diff("d_max", maximum),
      half_quantile_diff("d_median", 0.5),
      half_quantile_diff("d_q25", 0.25),
      half_quantile_diff("d_q75", 0.75),
      half_diff("d_skewness", skewness),
      half_diff("d_kurtosis", kurtosis),
      half_diff("d_range", range),
      // 4 long-run trends
      on_series("longest_inc_run", longest_strictly_increasing_run),
      on_series("longest_dec_run", longest_strictly_decreasing_run),
      on_series("longest_above_mean", longest_run_above_mean),
      on_series("longest_below_mean", longest_run_below_mean),
      // 19 change / location / trend statistics
      on_series("mean_abs_change", mean_abs_change),
      on_series("mean_change", mean_change),
      on_series("abs_sum_changes", absolute_sum_of_changes),
      on_series("mean_second_derivative", mean_second_derivative_central),
      on_series("count_above_mean", count_above_mean),
      on_series("count_below_mean", count_below_mean),
      on_series("first_loc_max", first_location_of_maximum),
      on_series("first_loc_min", first_location_of_minimum),
      on_series("last_loc_max", last_location_of_maximum),
      on_series("last_loc_min", last_location_of_minimum),
      {"crossings_mean", kNeedMean,
       [](const SeriesView& s) {
         return static_cast<double>(number_of_crossings(s.x, s.mean));
       }},
      with_param("num_peaks3", number_of_peaks, std::size_t{3}),
  };
  for (FeatureDef& def : trend_features()) t.features.push_back(std::move(def));
  t.features.push_back(with_param("cid_norm", cid_ce, /*normalize=*/true));
  t.features.push_back(on_series("variation_coef", variation_coefficient));
  t.features.push_back(on_series("rms", root_mean_square));
  ALBA_CHECK(t.features.size() == 48)
      << "MVTS must emit 48 features, has " << t.features.size();
  return t;
}
}  // namespace

MvtsExtractor::MvtsExtractor() : FeatureExtractor(mvts_table()) {}

}  // namespace alba
