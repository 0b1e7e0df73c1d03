#include "stats/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace alba::stats {

namespace {

// Everything one power-of-two size needs besides the data: the
// bit-reversal swaps and, per direction, every stage's twiddles
// (stage len contributes len/2 of them, n - 1 in all).
struct FftPlan {
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
  std::array<std::vector<std::complex<double>>, 2> twiddles;  // [inverse]

  explicit FftPlan(std::size_t n) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) swaps.emplace_back(i, j);
    }
    // Each twiddle is the one the in-loop recurrence w *= wlen reached,
    // built by the same std::complex multiply, so it has the same bits.
    for (const bool inverse : {false, true}) {
      auto& tw = twiddles[inverse];
      tw.reserve(n - 1);
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
        const std::complex<double> wlen(std::cos(angle), std::sin(angle));
        std::complex<double> w(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k) {
          tw.push_back(w);
          w *= wlen;
        }
      }
    }
  }
};

// Plans are built on first use of a size and kept for the thread's life,
// so concurrent transforms share nothing.
const FftPlan& plan_for(std::size_t n) {
  thread_local std::array<std::unique_ptr<FftPlan>, 64> plans;
  auto& plan = plans[static_cast<std::size_t>(std::countr_zero(n))];
  if (!plan) plan = std::make_unique<FftPlan>(n);
  return *plan;
}

}  // namespace

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  ALBA_CHECK(n > 0 && (n & (n - 1)) == 0)
      << "FFT length must be a power of two, got " << n;
  const FftPlan& plan = plan_for(n);

  for (const auto& [i, j] : plan.swaps) std::swap(data[i], data[j]);

  // The butterflies work on the (re, im) doubles of each element, which
  // std::complex guarantees are laid out as an array.
  double* d = reinterpret_cast<double*>(data.data());
  const std::complex<double>* w = plan.twiddles[inverse].data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        double* lo = d + 2 * (i + k);
        double* hi = lo + len;
        const double wr = w[k].real();
        const double wi = w[k].imag();
        // v = hi * w as GCC's std::complex operator* computes it: the
        // textbook products, and only when both parts come out NaN the
        // Annex G recovery (__muldc3), through operator* itself.
        double vr = hi[0] * wr - hi[1] * wi;
        double vi = hi[0] * wi + hi[1] * wr;
        if (std::isnan(vr) && std::isnan(vi)) {
          const std::complex<double> v =
              std::complex<double>(hi[0], hi[1]) * w[k];
          vr = v.real();
          vi = v.imag();
        }
        const double ur = lo[0];
        const double ui = lo[1];
        lo[0] = ur + vr;
        lo[1] = ui + vi;
        hi[0] = ur - vr;
        hi[1] = ui - vi;
      }
    }
    w += half;
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& c : data) c *= inv_n;
  }
}

void fft_real(std::span<const double> signal,
              std::vector<std::complex<double>>& out) {
  ALBA_CHECK(!signal.empty()) << "FFT of empty signal";
  out.resize(next_pow2(signal.size()));
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = signal[i];
  for (std::size_t i = signal.size(); i < out.size(); ++i) out[i] = 0.0;
  fft_inplace(out);
}

std::vector<std::complex<double>> fft_real(std::span<const double> signal) {
  std::vector<std::complex<double>> data;
  fft_real(signal, data);
  return data;
}

}  // namespace alba::stats
