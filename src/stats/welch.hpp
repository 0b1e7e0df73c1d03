// Welch's method for power spectral density estimation (Welch 1967), the
// same estimator TSFRESH's spkt_welch_density feature uses. Hann-windowed
// overlapping segments, periodograms averaged.
#pragma once

#include <span>
#include <vector>

namespace alba::stats {

struct WelchResult {
  std::vector<double> frequencies;  // cycles per sample, [0, 0.5]
  std::vector<double> power;        // density at each frequency
};

/// Computes the Welch PSD with Hann window. `segment_length` is clamped to
/// the signal length and rounded down to a power of two; overlap is 50%.
/// fs is the sampling rate (1 Hz for LDMS-style telemetry).
/// The Hann window of each segment length is built once and cached per
/// thread (the same cos calls, so the same bits).
WelchResult welch_psd(std::span<const double> signal,
                      std::size_t segment_length = 256, double fs = 1.0);

/// As above, into `result`: with enough capacity left in its vectors from
/// an earlier call, it allocates nothing.
void welch_psd(std::span<const double> signal, std::size_t segment_length,
               double fs, WelchResult& result);

/// Spectral centroid of a PSD (power-weighted mean frequency).
double spectral_centroid(const WelchResult& psd) noexcept;

/// Frequency bin with maximal power (excluding DC).
double dominant_frequency(const WelchResult& psd) noexcept;

}  // namespace alba::stats
