// Iterative radix-2 Cooley–Tukey FFT with zero-padding for arbitrary sizes.
// Feeds the Welch PSD estimator and the TSFRESH-like FFT-coefficient
// features.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace alba::stats {

/// In-place FFT of a power-of-two-length complex buffer.
/// Throws alba::Error when the length is not a power of two.
/// The bit-reversal swaps and twiddles come from a plan built on the first
/// transform of each size and cached per thread. Every output has the bits
/// of the textbook loop (twiddles by the w *= wlen recurrence, butterflies
/// by std::complex multiplication), up to the payload of a NaN.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse = false);

/// FFT of a real signal. The signal is zero-padded to the next power of two;
/// returns the full complex spectrum of the padded length.
std::vector<std::complex<double>> fft_real(std::span<const double> signal);

/// As above, into `out` (resized to the padded length): with enough
/// capacity left from an earlier call, it allocates nothing.
void fft_real(std::span<const double> signal,
              std::vector<std::complex<double>>& out);

/// Returns the smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n) noexcept;

}  // namespace alba::stats
