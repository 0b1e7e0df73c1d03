// Reference feature extractors for the plan parity tests: the monolithic
// MVTS and TSFRESH extraction bodies as they stood before features became
// table entries run by a FeaturePlan, kept verbatim (one straight-line
// function each, every feature through its own stats:: call) so the
// table-driven path can be checked against them bit for bit. The FFT,
// Welch, ACF-family and approximate-entropy calls go to the frozen
// pre-optimisation copies in spectral_reference.hpp, so a change in their
// bits fails here too.
#pragma once

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "features/tsfresh.hpp"
#include "spectral_reference.hpp"
#include "stats/autocorr.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"
#include "stats/fft.hpp"
#include "stats/regression.hpp"
#include "stats/welch.hpp"

namespace alba::reference {

namespace detail {
using namespace alba::stats;

struct HalfStats {
  double mean_, std_, var_, min_, max_, median_, q25_, q75_, skew_, kurt_, range_;
};

inline HalfStats half_stats(std::span<const double> x) {
  HalfStats h;
  h.mean_ = mean(x);
  h.std_ = stddev(x);
  h.var_ = variance(x);
  h.min_ = minimum(x);
  h.max_ = maximum(x);
  h.median_ = median(x);
  h.q25_ = quantile(x, 0.25);
  h.q75_ = quantile(x, 0.75);
  h.skew_ = skewness(x);
  h.kurt_ = kurtosis(x);
  h.range_ = range(x);
  return h;
}

inline std::vector<double> decimate(std::span<const double> x,
                                    std::size_t cap) {
  if (x.size() <= cap) return {x.begin(), x.end()};
  std::vector<double> out;
  out.reserve(cap);
  const double stride =
      static_cast<double>(x.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(x[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

inline double energy_ratio_by_chunk(std::span<const double> x,
                                    std::size_t chunks, std::size_t k) {
  const double total = abs_energy(x);
  if (total < 1e-300 || x.empty()) return 0.0;
  const std::size_t chunk_len = (x.size() + chunks - 1) / chunks;
  const std::size_t begin = k * chunk_len;
  if (begin >= x.size()) return 0.0;
  const std::size_t len = std::min(chunk_len, x.size() - begin);
  return abs_energy(x.subspan(begin, len)) / total;
}

inline double index_mass_quantile(std::span<const double> x, double q) {
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
}  // namespace detail

/// All 48 MVTS features of `x` into `out` (48 slots).
inline void mvts_extract(std::span<const double> x, std::span<double> out) {
  using namespace detail;
  ALBA_CHECK(out.size() == 48);
  ALBA_CHECK(x.size() >= 4) << "series too short for MVTS extraction";
  std::size_t i = 0;

  out[i++] = mean(x);
  out[i++] = stddev(x);
  out[i++] = variance(x);
  out[i++] = minimum(x);
  out[i++] = maximum(x);
  out[i++] = range(x);
  out[i++] = median(x);
  out[i++] = quantile(x, 0.05);
  out[i++] = quantile(x, 0.25);
  out[i++] = quantile(x, 0.75);
  out[i++] = quantile(x, 0.95);
  out[i++] = skewness(x);
  out[i++] = kurtosis(x);
  out[i++] = quantile(x, 0.75) - quantile(x, 0.25);

  const std::size_t half = x.size() / 2;
  const HalfStats a = half_stats(x.subspan(0, half));
  const HalfStats b = half_stats(x.subspan(half));
  out[i++] = std::abs(a.mean_ - b.mean_);
  out[i++] = std::abs(a.std_ - b.std_);
  out[i++] = std::abs(a.var_ - b.var_);
  out[i++] = std::abs(a.min_ - b.min_);
  out[i++] = std::abs(a.max_ - b.max_);
  out[i++] = std::abs(a.median_ - b.median_);
  out[i++] = std::abs(a.q25_ - b.q25_);
  out[i++] = std::abs(a.q75_ - b.q75_);
  out[i++] = std::abs(a.skew_ - b.skew_);
  out[i++] = std::abs(a.kurt_ - b.kurt_);
  out[i++] = std::abs(a.range_ - b.range_);

  out[i++] = static_cast<double>(longest_strictly_increasing_run(x));
  out[i++] = static_cast<double>(longest_strictly_decreasing_run(x));
  out[i++] = static_cast<double>(longest_run_above_mean(x));
  out[i++] = static_cast<double>(longest_run_below_mean(x));

  out[i++] = mean_abs_change(x);
  out[i++] = mean_change(x);
  out[i++] = absolute_sum_of_changes(x);
  out[i++] = mean_second_derivative_central(x);
  out[i++] = static_cast<double>(count_above_mean(x));
  out[i++] = static_cast<double>(count_below_mean(x));
  out[i++] = first_location_of_maximum(x);
  out[i++] = first_location_of_minimum(x);
  out[i++] = last_location_of_maximum(x);
  out[i++] = last_location_of_minimum(x);
  out[i++] = static_cast<double>(number_of_crossings(x, mean(x)));
  out[i++] = static_cast<double>(number_of_peaks(x, 3));
  const LinearTrend trend = linear_trend(x);
  out[i++] = trend.slope;
  out[i++] = trend.intercept;
  out[i++] = trend.rvalue;
  out[i++] = trend.stderr_;
  out[i++] = cid_ce(x, /*normalize=*/true);
  out[i++] = variation_coefficient(x);
  out[i++] = root_mean_square(x);

  ALBA_CHECK(i == out.size());
}

/// Number of TSFRESH features `tsfresh_extract` writes for `config`.
inline std::size_t tsfresh_size(const TsfreshConfig& config) {
  return 13 + 9 + 6 + 17 + 8 + config.acf_lags + 1 + config.pacf_lags + 3 +
         3 + 3 + 3 * config.fft_coeffs + config.psd_bins + 2 + 11;
}

/// All TSFRESH features of `x` for `config` into `out`.
inline void tsfresh_extract(const TsfreshConfig& config,
                            std::span<const double> x, std::span<double> out) {
  using namespace detail;
  ALBA_CHECK(out.size() == tsfresh_size(config));
  ALBA_CHECK(x.size() >= 8) << "series too short for TSFRESH extraction";
  std::size_t i = 0;

  out[i++] = sum(x);
  out[i++] = mean(x);
  out[i++] = stddev(x);
  out[i++] = variance(x);
  out[i++] = minimum(x);
  out[i++] = maximum(x);
  out[i++] = median(x);
  out[i++] = skewness(x);
  out[i++] = kurtosis(x);
  out[i++] = root_mean_square(x);
  out[i++] = abs_energy(x);
  out[i++] = variation_coefficient(x);
  out[i++] = quantile(x, 0.75) - quantile(x, 0.25);
  for (int q = 1; q <= 9; ++q) out[i++] = quantile(x, 0.1 * q);

  out[i++] = mean_abs_change(x);
  out[i++] = mean_change(x);
  out[i++] = mean_second_derivative_central(x);
  out[i++] = absolute_sum_of_changes(x);
  out[i++] = cid_ce(x, true);
  out[i++] = cid_ce(x, false);

  out[i++] = static_cast<double>(count_above_mean(x));
  out[i++] = static_cast<double>(count_below_mean(x));
  out[i++] = static_cast<double>(number_of_crossings(x, mean(x)));
  out[i++] = static_cast<double>(number_of_peaks(x, 1));
  out[i++] = static_cast<double>(number_of_peaks(x, 3));
  out[i++] = static_cast<double>(number_of_peaks(x, 5));
  out[i++] = static_cast<double>(longest_run_above_mean(x));
  out[i++] = static_cast<double>(longest_run_below_mean(x));
  out[i++] = static_cast<double>(longest_strictly_increasing_run(x));
  out[i++] = static_cast<double>(longest_strictly_decreasing_run(x));
  out[i++] = first_location_of_maximum(x);
  out[i++] = first_location_of_minimum(x);
  out[i++] = last_location_of_maximum(x);
  out[i++] = last_location_of_minimum(x);
  out[i++] = ratio_beyond_r_sigma(x, 1.0);
  out[i++] = ratio_beyond_r_sigma(x, 2.0);
  out[i++] = ratio_beyond_r_sigma(x, 3.0);

  out[i++] = has_duplicate(x) ? 1.0 : 0.0;
  out[i++] = has_duplicate_max(x) ? 1.0 : 0.0;
  out[i++] = has_duplicate_min(x) ? 1.0 : 0.0;
  out[i++] = sum_of_reoccurring_values(x);
  out[i++] = percentage_of_reoccurring_datapoints(x);
  out[i++] = large_standard_deviation(x, 0.25) ? 1.0 : 0.0;
  out[i++] = symmetry_looking(x, 0.05) ? 1.0 : 0.0;
  out[i++] = symmetry_looking(x, 0.25) ? 1.0 : 0.0;

  for (std::size_t lag = 1; lag <= config.acf_lags; ++lag) {
    out[i++] = reference::autocorrelation(x, lag);
  }
  out[i++] = reference::agg_autocorrelation_mean_abs(x, config.acf_lags);
  for (std::size_t lag = 1; lag <= config.pacf_lags; ++lag) {
    out[i++] = reference::partial_autocorrelation(x, lag);
  }

  const std::vector<double> xd = decimate(x, config.entropy_cap);
  out[i++] = binned_entropy(x, 10);
  out[i++] = reference::approximate_entropy(xd, 2, 0.2);
  out[i++] = sample_entropy(xd, 2, 0.2);

  for (std::size_t lag = 1; lag <= 3; ++lag) out[i++] = c3(x, lag);
  for (std::size_t lag = 1; lag <= 3; ++lag) {
    out[i++] = time_reversal_asymmetry(x, lag);
  }

  const auto spectrum = reference::fft_real(x);
  for (std::size_t k = 1; k <= config.fft_coeffs; ++k) {
    const std::complex<double> c =
        k < spectrum.size() ? spectrum[k] : std::complex<double>(0.0, 0.0);
    out[i++] = std::abs(c);
    out[i++] = c.real();
    out[i++] = c.imag();
  }

  const WelchResult psd = reference::welch_psd(x, 64);
  for (std::size_t b = 0; b < config.psd_bins; ++b) {
    const std::size_t nb = psd.power.size();
    const std::size_t begin = b * nb / config.psd_bins;
    const std::size_t end = (b + 1) * nb / config.psd_bins;
    double acc = 0.0;
    for (std::size_t k = begin; k < end && k < nb; ++k) acc += psd.power[k];
    out[i++] = acc;
  }
  out[i++] = spectral_centroid(psd);
  out[i++] = dominant_frequency(psd);

  const LinearTrend trend = linear_trend(x);
  out[i++] = trend.slope;
  out[i++] = trend.intercept;
  out[i++] = trend.rvalue;
  out[i++] = trend.stderr_;
  for (std::size_t k = 0; k < 4; ++k) out[i++] = energy_ratio_by_chunk(x, 4, k);
  out[i++] = index_mass_quantile(x, 0.25);
  out[i++] = index_mass_quantile(x, 0.50);
  out[i++] = index_mass_quantile(x, 0.75);

  ALBA_CHECK(i == out.size());
}

}  // namespace alba::reference
