// Reference spectral and autocorrelation kernels for the bit-identity
// tests: the FFT, Welch PSD and ACF-family bodies as they stood before the
// FFT ran from a cached per-size plan, Welch cached its Hann window and
// the ACF family shared one mean and variance sum across lags. Kept
// verbatim (every twiddle through std::complex's recurrence, every
// butterfly through std::complex operator*, a fresh window and buffer per
// call, the mean recomputed per lag) so the optimised kernels can be
// checked against them bit for bit. Approximate entropy is frozen here too,
// as it stood before it counted both template lengths in one pass over
// j > i: two full n² scans, one per length.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "stats/descriptive.hpp"
#include "stats/fft.hpp"
#include "stats/welch.hpp"

namespace alba::reference {

inline void fft_inplace(std::vector<std::complex<double>>& data,
                        bool inverse = false) {
  const std::size_t n = data.size();
  ALBA_CHECK(n > 0 && (n & (n - 1)) == 0)
      << "FFT length must be a power of two, got " << n;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& c : data) c *= inv_n;
  }
}

inline std::vector<std::complex<double>> fft_real(
    std::span<const double> signal) {
  ALBA_CHECK(!signal.empty()) << "FFT of empty signal";
  const std::size_t n = stats::next_pow2(signal.size());
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < signal.size(); ++i) data[i] = signal[i];
  fft_inplace(data);
  return data;
}

inline stats::WelchResult welch_psd(std::span<const double> signal,
                                    std::size_t segment_length = 256,
                                    double fs = 1.0) {
  ALBA_CHECK(!signal.empty()) << "welch_psd of empty signal";
  ALBA_CHECK(fs > 0.0);

  // Clamp segment to the signal and round down to a power of two (>= 8).
  std::size_t seg = std::min(segment_length, signal.size());
  std::size_t p = 1;
  while (p * 2 <= seg) p *= 2;
  seg = std::max<std::size_t>(8, p);
  if (seg > signal.size()) seg = stats::next_pow2(signal.size()) / 2;
  seg = std::max<std::size_t>(2, std::min(seg, signal.size()));
  // Ensure power-of-two after all clamping.
  {
    std::size_t q = 1;
    while (q * 2 <= seg) q *= 2;
    seg = q;
  }

  const std::size_t step = std::max<std::size_t>(1, seg / 2);  // 50% overlap
  const std::size_t nbins = seg / 2 + 1;

  // Hann window and its normalization.
  std::vector<double> window(seg);
  double win_power = 0.0;
  for (std::size_t i = 0; i < seg; ++i) {
    window[i] = 0.5 - 0.5 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                                     static_cast<double>(seg));
    win_power += window[i] * window[i];
  }

  stats::WelchResult result;
  result.frequencies.resize(nbins);
  result.power.assign(nbins, 0.0);
  for (std::size_t k = 0; k < nbins; ++k) {
    result.frequencies[k] =
        fs * static_cast<double>(k) / static_cast<double>(seg);
  }

  std::size_t nsegments = 0;
  std::vector<std::complex<double>> buf(seg);
  for (std::size_t start = 0; start + seg <= signal.size(); start += step) {
    // Detrend (mean removal) per segment, as scipy does by default.
    double seg_mean = 0.0;
    for (std::size_t i = 0; i < seg; ++i) seg_mean += signal[start + i];
    seg_mean /= static_cast<double>(seg);
    for (std::size_t i = 0; i < seg; ++i) {
      buf[i] = (signal[start + i] - seg_mean) * window[i];
    }
    fft_inplace(buf);
    for (std::size_t k = 0; k < nbins; ++k) {
      double scale = 1.0 / (fs * win_power);
      // One-sided spectrum: double everything except DC and Nyquist.
      if (k != 0 && k != seg / 2) scale *= 2.0;
      result.power[k] += std::norm(buf[k]) * scale;
    }
    ++nsegments;
    if (start + seg == signal.size()) break;
  }

  if (nsegments == 0) {
    // Signal shorter than one segment: single zero-padded periodogram.
    for (std::size_t i = 0; i < signal.size(); ++i) buf[i] = signal[i] * window[i];
    for (std::size_t i = signal.size(); i < seg; ++i) buf[i] = 0.0;
    fft_inplace(buf);
    for (std::size_t k = 0; k < nbins; ++k) {
      result.power[k] = std::norm(buf[k]) / (fs * win_power);
    }
    nsegments = 1;
  }

  const double inv = 1.0 / static_cast<double>(nsegments);
  for (auto& pwr : result.power) pwr *= inv;
  return result;
}

namespace acf_detail {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

inline double autocorrelation(std::span<const double> x,
                              std::size_t lag) noexcept {
  using acf_detail::kNaN;
  const std::size_t n = x.size();
  if (lag >= n) return kNaN;
  if (lag == 0) return 1.0;
  const double m = stats::mean(x);
  double var_acc = 0.0;
  for (double v : x) var_acc += (v - m) * (v - m);
  if (var_acc < 1e-300) return kNaN;
  double acc = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    acc += (x[i] - m) * (x[i + lag] - m);
  }
  return acc / var_acc;
}

inline std::vector<double> acf(std::span<const double> x,
                               std::size_t max_lag) {
  std::vector<double> out(max_lag + 1);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    out[lag] = autocorrelation(x, lag);
  }
  return out;
}

inline double agg_autocorrelation_mean_abs(std::span<const double> x,
                                           std::size_t max_lag) {
  using acf_detail::kNaN;
  if (x.size() < 2) return kNaN;
  const std::size_t effective = std::min(max_lag, x.size() - 1);
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t lag = 1; lag <= effective; ++lag) {
    const double r = autocorrelation(x, lag);
    if (!std::isnan(r)) {
      acc += std::abs(r);
      ++count;
    }
  }
  return count ? acc / static_cast<double>(count) : kNaN;
}

inline double partial_autocorrelation(std::span<const double> x,
                                      std::size_t lag) {
  using acf_detail::kNaN;
  if (lag == 0) return 1.0;
  if (x.size() < lag + 1) return kNaN;

  // Durbin–Levinson: phi[k][k] is the PACF at lag k.
  const auto rho = acf(x, lag);
  for (double r : rho) {
    if (std::isnan(r)) return kNaN;
  }
  std::vector<double> phi_prev(lag + 1, 0.0);
  std::vector<double> phi_cur(lag + 1, 0.0);
  phi_prev[1] = rho[1];
  if (lag == 1) return rho[1];

  for (std::size_t k = 2; k <= lag; ++k) {
    double num = rho[k];
    double den = 1.0;
    for (std::size_t j = 1; j < k; ++j) {
      num -= phi_prev[j] * rho[k - j];
      den -= phi_prev[j] * rho[j];
    }
    if (std::abs(den) < 1e-300) return kNaN;
    phi_cur[k] = num / den;
    for (std::size_t j = 1; j < k; ++j) {
      phi_cur[j] = phi_prev[j] - phi_cur[k] * phi_prev[k - j];
    }
    phi_prev = phi_cur;
  }
  return phi_prev[lag];
}

// phi(m) for ApEn: mean over i of log of the fraction of j whose m-length
// templates are within r (Chebyshev distance), self-matches included.
inline double apen_phi(std::span<const double> x, std::size_t m, double r) {
  const std::size_t n = x.size();
  const std::size_t count = n - m + 1;
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t matches = 0;
    for (std::size_t j = 0; j < count; ++j) {
      bool ok = true;
      for (std::size_t k = 0; k < m; ++k) {
        if (std::abs(x[i + k] - x[j + k]) > r) {
          ok = false;
          break;
        }
      }
      matches += ok ? 1 : 0;
    }
    acc += std::log(static_cast<double>(matches) / static_cast<double>(count));
  }
  return acc / static_cast<double>(count);
}

inline double approximate_entropy(std::span<const double> x, std::size_t m,
                                  double r_frac) {
  if (x.size() < m + 2) return 0.0;
  const double s = stats::stddev(x);
  if (s < 1e-300) return 0.0;
  const double r = r_frac * s;
  return apen_phi(x, m, r) - apen_phi(x, m + 1, r);
}

}  // namespace alba::reference
