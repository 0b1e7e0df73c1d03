#include "features/tsfresh.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "stats/autocorr.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/welch.hpp"

namespace alba {

namespace {
using namespace alba::stats;

// Energy of chunk k out of `chunks` equal slices, as a fraction of total.
double energy_ratio_by_chunk(std::span<const double> x, std::size_t chunks,
                             std::size_t k) {
  const double total = abs_energy(x);
  if (total < 1e-300 || x.empty()) return 0.0;
  const std::size_t chunk_len = (x.size() + chunks - 1) / chunks;
  const std::size_t begin = k * chunk_len;
  if (begin >= x.size()) return 0.0;
  const std::size_t len = std::min(chunk_len, x.size() - begin);
  return abs_energy(x.subspan(begin, len)) / total;
}

// Relative index where the cumulative |x| mass reaches fraction q.
double index_mass_quantile(std::span<const double> x, double q) {
  double total = 0.0;
  for (double v : x) total += std::abs(v);
  if (total < 1e-300) return 1.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += std::abs(x[i]);
    if (acc >= q * total) {
      return static_cast<double>(i + 1) / static_cast<double>(x.size());
    }
  }
  return 1.0;
}

// Equal-value runs of a NaN-free ascending series: how many distinct values
// it holds and how many of them occur more than once. Values are equal
// under ==, as std::unordered_map<double> keys them, so ±0 are one value.
struct ValueRuns {
  std::size_t distinct = 0;
  std::size_t repeated = 0;
};

ValueRuns value_runs(std::span<const double> sorted) noexcept {
  ValueRuns runs;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    ++runs.distinct;
    if (j - i > 1) ++runs.repeated;
    i = j;
  }
  return runs;
}

// The map keys every NaN apart, which runs in a sorted copy cannot
// reproduce: a series holding a NaN takes the stats:: map pass.
bool holds_nan(std::span<const double> x) noexcept {
  return std::any_of(x.begin(), x.end(),
                     [](double v) { return std::isnan(v); });
}

// symmetry_looking(x, r), |mean - median| < r * range, with the median
// read off the shared sorted copy.
FeatureDef symmetry_feature(std::string name, double r) {
  return {std::move(name), kNeedSorted | kNeedMean, [r](const SeriesView& s) {
            return std::abs(s.mean - quantile_sorted(s.sorted, 0.5)) <
                           r * range(s.x)
                       ? 1.0
                       : 0.0;
          }};
}

FeatureTable tsfresh_table(const TsfreshConfig& config) {
  ALBA_CHECK(config.acf_lags >= 1 && config.pacf_lags >= 1);
  ALBA_CHECK(config.fft_coeffs >= 1 && config.psd_bins >= 1);
  ALBA_CHECK(config.entropy_cap >= 8);
  FeatureTable t;
  t.extractor = "tsfresh";
  t.min_length = 8;
  t.entropy_cap = config.entropy_cap;
  auto& f = t.features;

  // --- distribution / descriptive ---
  f = {on_series("sum", sum),
       {"mean", kNeedMean, [](const SeriesView& s) { return s.mean; }},
       on_series("std", stddev),
       on_series("var", variance),
       on_series("min", minimum),
       on_series("max", maximum),
       quantile_feature("median", 0.5),
       on_series("skewness", skewness),
       on_series("kurtosis", kurtosis),
       on_series("rms", root_mean_square),
       on_series("abs_energy", abs_energy),
       on_series("variation_coef", variation_coefficient),
       {"iqr", kNeedSorted, [](const SeriesView& s) {
          return quantile_sorted(s.sorted, 0.75) -
                 quantile_sorted(s.sorted, 0.25);
        }}};
  for (int q = 1; q <= 9; ++q) {
    f.push_back(quantile_feature(strformat("quantile_q%d0", q), 0.1 * q));
  }

  // --- change statistics ---
  f.push_back(on_series("mean_abs_change", mean_abs_change));
  f.push_back(on_series("mean_change", mean_change));
  f.push_back(
      on_series("mean_second_derivative", mean_second_derivative_central));
  f.push_back(on_series("abs_sum_changes", absolute_sum_of_changes));
  f.push_back(with_param("cid_norm", cid_ce, true));
  f.push_back(with_param("cid_raw", cid_ce, false));

  // --- counts / locations / runs ---
  f.push_back(on_series("count_above_mean", count_above_mean));
  f.push_back(on_series("count_below_mean", count_below_mean));
  f.push_back({"crossings_mean", kNeedMean, [](const SeriesView& s) {
                 return static_cast<double>(number_of_crossings(s.x, s.mean));
               }});
  for (const std::size_t support : {1, 3, 5}) {
    f.push_back(with_param(strformat("num_peaks%zu", support),
                           number_of_peaks, support));
  }
  f.push_back(on_series("longest_above_mean", longest_run_above_mean));
  f.push_back(on_series("longest_below_mean", longest_run_below_mean));
  f.push_back(on_series("longest_inc_run", longest_strictly_increasing_run));
  f.push_back(on_series("longest_dec_run", longest_strictly_decreasing_run));
  f.push_back(on_series("first_loc_max", first_location_of_maximum));
  f.push_back(on_series("first_loc_min", first_location_of_minimum));
  f.push_back(on_series("last_loc_max", last_location_of_maximum));
  f.push_back(on_series("last_loc_min", last_location_of_minimum));
  for (const double r : {1.0, 2.0, 3.0}) {
    f.push_back(with_param(strformat("ratio_beyond_%.0fsigma", r),
                           ratio_beyond_r_sigma, r));
  }

  // --- recurrence / duplicates / symmetry ---
  // has_duplicate and perc_reoccurring count equal-value runs in the sorted
  // copy; sum_reoccurring keeps its map pass, which sums in map order.
  f.push_back({"has_duplicate", kNeedSorted, [](const SeriesView& s) {
                 if (holds_nan(s.x)) return has_duplicate(s.x) ? 1.0 : 0.0;
                 return value_runs(s.sorted).repeated > 0 ? 1.0 : 0.0;
               }});
  f.push_back(on_series("has_duplicate_max", has_duplicate_max));
  f.push_back(on_series("has_duplicate_min", has_duplicate_min));
  f.push_back(on_series("sum_reoccurring", sum_of_reoccurring_values));
  f.push_back({"perc_reoccurring", kNeedSorted, [](const SeriesView& s) {
                 if (holds_nan(s.x)) {
                   return percentage_of_reoccurring_datapoints(s.x);
                 }
                 const ValueRuns runs = value_runs(s.sorted);
                 return static_cast<double>(runs.repeated) /
                        static_cast<double>(runs.distinct);
               }});
  f.push_back(with_param("large_std_r025", large_standard_deviation, 0.25));
  f.push_back(symmetry_feature("symmetry_r005", 0.05));
  f.push_back(symmetry_feature("symmetry_r025", 0.25));

  // --- autocorrelation family ---
  for (std::size_t lag = 1; lag <= config.acf_lags; ++lag) {
    f.push_back(
        with_param(strformat("acf_lag%zu", lag), autocorrelation, lag));
  }
  f.push_back(with_param("agg_acf_mean_abs", agg_autocorrelation_mean_abs,
                         config.acf_lags));
  for (std::size_t lag = 1; lag <= config.pacf_lags; ++lag) {
    f.push_back(with_param(strformat("pacf_lag%zu", lag),
                           partial_autocorrelation, lag));
  }

  // --- entropies (ApEn/SampEn on the decimated series: they are O(n²)) ---
  f.push_back(with_param("binned_entropy10", binned_entropy, std::size_t{10}));
  f.push_back({"approx_entropy", kNeedDecimated, [](const SeriesView& s) {
                 return approximate_entropy(s.decimated, 2, 0.2);
               }});
  f.push_back({"sample_entropy", kNeedDecimated, [](const SeriesView& s) {
                 return sample_entropy(s.decimated, 2, 0.2);
               }});

  // --- nonlinearity ---
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    f.push_back(with_param(strformat("c3_lag%zu", lag), c3, lag));
  }
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    f.push_back(with_param(strformat("time_rev_asym_lag%zu", lag),
                           time_reversal_asymmetry, lag));
  }

  // --- spectral: FFT coefficients + Welch PSD ---
  for (std::size_t k = 1; k <= config.fft_coeffs; ++k) {
    const auto coeff = [k](const SeriesView& s) {
      return k < s.spectrum.size() ? s.spectrum[k]
                                   : std::complex<double>(0.0, 0.0);
    };
    f.push_back({strformat("fft_abs_k%zu", k), kNeedSpectrum,
                 [coeff](const SeriesView& s) { return std::abs(coeff(s)); }});
    f.push_back({strformat("fft_real_k%zu", k), kNeedSpectrum,
                 [coeff](const SeriesView& s) { return coeff(s).real(); }});
    f.push_back({strformat("fft_imag_k%zu", k), kNeedSpectrum,
                 [coeff](const SeriesView& s) { return coeff(s).imag(); }});
  }
  // Band powers: psd_bins equal frequency bands.
  for (std::size_t b = 0; b < config.psd_bins; ++b) {
    f.push_back({strformat("welch_band%zu", b), kNeedPsd,
                 [b, bins = config.psd_bins](const SeriesView& s) {
                   const std::vector<double>& power = s.psd->power;
                   const std::size_t nb = power.size();
                   const std::size_t begin = b * nb / bins;
                   const std::size_t end = (b + 1) * nb / bins;
                   double acc = 0.0;
                   for (std::size_t k = begin; k < end && k < nb; ++k) {
                     acc += power[k];
                   }
                   return acc;
                 }});
  }
  f.push_back({"spectral_centroid", kNeedPsd, [](const SeriesView& s) {
                 return spectral_centroid(*s.psd);
               }});
  f.push_back({"dominant_freq", kNeedPsd, [](const SeriesView& s) {
                 return dominant_frequency(*s.psd);
               }});

  // --- trend / mass distribution ---
  for (FeatureDef& def : trend_features()) f.push_back(std::move(def));
  for (std::size_t k = 0; k < 4; ++k) {
    f.push_back({strformat("energy_chunk%zu", k), 0, [k](const SeriesView& s) {
                   return energy_ratio_by_chunk(s.x, 4, k);
                 }});
  }
  for (const double q : {0.25, 0.50, 0.75}) {
    f.push_back(with_param(strformat("index_mass_q%02.0f", q * 100),
                           index_mass_quantile, q));
  }
  return t;
}
}  // namespace

TsfreshExtractor::TsfreshExtractor(TsfreshConfig config)
    : FeatureExtractor(tsfresh_table(config)) {}

}  // namespace alba
