#include "stats/welch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "stats/fft.hpp"

namespace alba::stats {

namespace {

// Hann window of one segment length and its power sum.
struct HannWindow {
  std::vector<double> window;
  double power = 0.0;
};

// Windows are built on the first use of a (power-of-two) segment length
// and kept per thread, so concurrent estimates share nothing.
const HannWindow& hann_for(std::size_t seg) {
  thread_local std::array<HannWindow, 64> windows;
  HannWindow& w = windows[static_cast<std::size_t>(std::countr_zero(seg))];
  if (w.window.empty()) {
    w.window.resize(seg);
    for (std::size_t i = 0; i < seg; ++i) {
      w.window[i] = 0.5 - 0.5 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                                         static_cast<double>(seg));
      w.power += w.window[i] * w.window[i];
    }
  }
  return w;
}

}  // namespace

WelchResult welch_psd(std::span<const double> signal,
                      std::size_t segment_length, double fs) {
  WelchResult result;
  welch_psd(signal, segment_length, fs, result);
  return result;
}

void welch_psd(std::span<const double> signal, std::size_t segment_length,
               double fs, WelchResult& result) {
  ALBA_CHECK(!signal.empty()) << "welch_psd of empty signal";
  ALBA_CHECK(fs > 0.0);

  // Clamp segment to the signal and round down to a power of two (>= 8).
  std::size_t seg = std::min(segment_length, signal.size());
  std::size_t p = 1;
  while (p * 2 <= seg) p *= 2;
  seg = std::max<std::size_t>(8, p);
  if (seg > signal.size()) seg = next_pow2(signal.size()) / 2;
  seg = std::max<std::size_t>(2, std::min(seg, signal.size()));
  // Ensure power-of-two after all clamping.
  {
    std::size_t q = 1;
    while (q * 2 <= seg) q *= 2;
    seg = q;
  }

  const std::size_t step = std::max<std::size_t>(1, seg / 2);  // 50% overlap
  const std::size_t nbins = seg / 2 + 1;

  const HannWindow& hann = hann_for(seg);
  const std::vector<double>& window = hann.window;
  const double win_power = hann.power;

  result.frequencies.resize(nbins);
  result.power.assign(nbins, 0.0);
  for (std::size_t k = 0; k < nbins; ++k) {
    result.frequencies[k] =
        fs * static_cast<double>(k) / static_cast<double>(seg);
  }

  std::size_t nsegments = 0;
  thread_local std::vector<std::complex<double>> buf;
  buf.resize(seg);
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
}

double spectral_centroid(const WelchResult& psd) noexcept {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t k = 0; k < psd.power.size(); ++k) {
    num += psd.frequencies[k] * psd.power[k];
    den += psd.power[k];
  }
  if (den < 1e-300) return 0.0;
  return num / den;
}

double dominant_frequency(const WelchResult& psd) noexcept {
  if (psd.power.size() < 2) return 0.0;
  std::size_t best = 1;
  for (std::size_t k = 2; k < psd.power.size(); ++k) {
    if (psd.power[k] > psd.power[best]) best = k;
  }
  return psd.frequencies[best];
}

}  // namespace alba::stats
