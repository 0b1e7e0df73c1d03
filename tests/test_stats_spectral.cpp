// Tests for FFT, Welch PSD, entropies, autocorrelation, regression,
// chi-square scoring, and histograms. The FFT, Welch and ACF-family kernels
// are also checked bit for bit against their frozen pre-optimisation
// bodies (spectral_reference.hpp), serially and on pool threads at once.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"
#include "spectral_reference.hpp"
#include "stats/autocorr.hpp"
#include "stats/chi2.hpp"
#include "stats/entropy.hpp"
#include "stats/fft.hpp"
#include "stats/histogram.hpp"
#include "stats/regression.hpp"
#include "stats/welch.hpp"

namespace alba::stats {
namespace {

// ------------------------------------------------------------------ fft ---

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(129), 256u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(fft_inplace(data), Error);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fft_inplace(data);
  for (const auto& c : data) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Fft, PureToneConcentratesAtOneBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  const std::size_t k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = std::cos(2.0 * M_PI * static_cast<double>(k * i) /
                       static_cast<double>(n));
  }
  fft_inplace(data);
  EXPECT_NEAR(std::abs(data[k]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - k]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[k + 1]), 0.0, 1e-9);
}

TEST(Fft, RoundTripInverse) {
  Rng rng(3);
  std::vector<std::complex<double>> data(32);
  std::vector<std::complex<double>> orig(32);
  for (std::size_t i = 0; i < 32; ++i) {
    data[i] = {rng.uniform(), rng.uniform()};
    orig[i] = data[i];
  }
  fft_inplace(data, false);
  fft_inplace(data, true);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.normal();
  const auto spec = fft_real(x);
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy,
              1e-8);
}

// ---------------------------------------------------------------- welch ---

TEST(Welch, DetectsDominantFrequency) {
  const double f0 = 0.1;  // cycles per sample
  std::vector<double> x(512);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * M_PI * f0 * static_cast<double>(i));
  }
  const WelchResult psd = welch_psd(x, 128);
  EXPECT_NEAR(dominant_frequency(psd), f0, 0.01);
}

TEST(Welch, WhiteNoiseIsFlatish) {
  Rng rng(5);
  std::vector<double> x(2048);
  for (auto& v : x) v = rng.normal();
  const WelchResult psd = welch_psd(x, 128);
  // Total power ≈ variance (one-sided density integrates to sigma²).
  double total = 0.0;
  for (std::size_t k = 0; k < psd.power.size(); ++k) {
    total += psd.power[k] * (psd.frequencies[1] - psd.frequencies[0]);
  }
  EXPECT_NEAR(total, 1.0, 0.3);
}

TEST(Welch, ShortSignalStillWorks) {
  std::vector<double> x{1, 2, 3, 2, 1, 2, 3, 2, 1, 2};
  const WelchResult psd = welch_psd(x, 256);
  EXPECT_FALSE(psd.power.empty());
  for (const double p : psd.power) EXPECT_GE(p, 0.0);
}

TEST(Welch, SpectralCentroidWithinNyquist) {
  Rng rng(6);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.normal();
  const WelchResult psd = welch_psd(x, 64);
  const double c = spectral_centroid(psd);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 0.5);
}

// ------------------------------------------ bit identity vs reference ---

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bit-for-bit equality, zero signs included, except that a NaN only has
// to meet a NaN. When two NaNs meet in an x86 add or multiply the result is
// the first operand's, and which operand comes first is the register
// allocator's choice, not the source's: the old kernels built as a library
// already differ in NaN sign from these same bodies inlined here.
void expect_same_bits(double got, double want, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << ": " << got << " vs reference NaN";
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs reference " << want;
}

void expect_same_bits(std::span<const std::complex<double>> got,
                      std::span<const std::complex<double>> want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string at = what + " [" + std::to_string(i) + "]";
    expect_same_bits(got[i].real(), want[i].real(), at + ".re");
    expect_same_bits(got[i].imag(), want[i].imag(), at + ".im");
  }
}

// With probability `special`, one of the values a transform must treat
// exactly as before: NaN, ±inf, ±0, a subnormal, or a value so large that
// products overflow (so inf·0 makes NaNs and std::complex's NaN recovery
// runs); otherwise an ordinary value.
double awkward_value(Rng& rng, double special) {
  if (rng.uniform() >= special) return rng.normal(0.0, 100.0);
  const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
  switch (rng.uniform_index(5)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return sign * kInf;
    case 2: return sign * 0.0;
    case 3:
      return sign * std::numeric_limits<double>::denorm_min() *
             rng.uniform(1.0, 1e6);
    default: return sign * rng.uniform(0.5, 1.0) * 1e308;
  }
}

// Special-value densities: none, about one per series, a few, most.
constexpr double kSpecialShares[] = {0.0, 0.01, 0.1, 0.6};

TEST(FftBits, InPlaceMatchesReferenceOnAwkwardInputs) {
  Rng rng(11);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    std::vector<std::vector<std::complex<double>>> inputs;
    for (const double special : kSpecialShares) {
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<std::complex<double>> data(n);
        for (auto& c : data) {
          // Real inputs (as fft_real feeds) and fully complex ones.
          c = {awkward_value(rng, special),
               trial % 2 ? awkward_value(rng, special) : 0.0};
        }
        inputs.push_back(data);
      }
    }
    if (n >= 2) {
      // (inf, inf) · (1, 0) is (NaN, NaN) by the textbook products; C99
      // Annex G (GCC's __muldc3) recovers (inf, inf).
      std::vector<std::complex<double>> data(n, {1.0, -2.0});
      data[n / 2] = {kInf, kInf};
      data[n - 1] = {-kInf, kInf};
      inputs.push_back(data);
    }
    for (const auto& data : inputs) {
      for (const bool inverse : {false, true}) {
        auto got = data;
        auto want = data;
        fft_inplace(got, inverse);
        reference::fft_inplace(want, inverse);
        expect_same_bits(got, want,
                         "n=" + std::to_string(n) +
                             (inverse ? " inverse" : " forward"));
      }
    }
  }
}

TEST(FftBits, RealSpectrumMatchesReferenceForEveryPaddedLength) {
  Rng rng(12);
  std::vector<std::complex<double>> reused;
  for (std::size_t n = 1; n <= 600; n += (n < 80 ? 1 : 37)) {
    for (const double special : kSpecialShares) {
      std::vector<double> x(n);
      for (auto& v : x) v = awkward_value(rng, special);
      const auto want = reference::fft_real(x);
      expect_same_bits(fft_real(x), want, "n=" + std::to_string(n));
      // The into-buffer form, on a buffer left longer by a larger series.
      fft_real(x, reused);
      expect_same_bits(reused, want, "reused n=" + std::to_string(n));
    }
  }
}

void expect_same_psd(const WelchResult& got, const WelchResult& want,
                     const std::string& what) {
  ASSERT_EQ(got.frequencies.size(), want.frequencies.size()) << what;
  ASSERT_EQ(got.power.size(), want.power.size()) << what;
  for (std::size_t k = 0; k < got.power.size(); ++k) {
    const std::string at = what + " bin " + std::to_string(k);
    expect_same_bits(got.frequencies[k], want.frequencies[k], at + " freq");
    expect_same_bits(got.power[k], want.power[k], at + " power");
  }
}

TEST(WelchBits, MatchesReferenceAcrossLengthsAndSegments) {
  // Length 1 is the only one whose segment (2 points) exceeds the signal:
  // the zero-padded single-periodogram fallback.
  Rng rng(13);
  WelchResult reused;
  for (std::size_t n = 1; n <= 600; n += (n < 80 ? 1 : 13)) {
    for (const std::size_t seg : {8, 64, 256}) {
      const double special = kSpecialShares[n % 4];
      std::vector<double> x(n);
      for (auto& v : x) v = awkward_value(rng, special);
      const double fs = n % 3 ? 1.0 : 2.5;
      const WelchResult want = reference::welch_psd(x, seg, fs);
      const std::string what =
          "n=" + std::to_string(n) + " seg=" + std::to_string(seg);
      expect_same_psd(welch_psd(x, seg, fs), want, what);
      welch_psd(x, seg, fs, reused);
      expect_same_psd(reused, want, what + " reused");
    }
  }
}

TEST(SpectralCaches, PoolThreadsMatchASerialRun) {
  // Each task runs a size mix that differs per task, so pool threads build
  // their FFT plans and Hann windows concurrently and in different orders.
  constexpr std::size_t kTasks = 64;
  const auto series = [](std::size_t t) {
    Rng rng(100 + t);
    std::vector<double> x(8 + (t * 37) % 593);
    for (auto& v : x) v = rng.normal(10.0, 3.0);
    return x;
  };
  struct Out {
    std::vector<std::complex<double>> spectrum;
    WelchResult psd;
  };
  const auto run = [&](std::size_t t) {
    const std::vector<double> x = series(t);
    Out out;
    out.spectrum = fft_real(x);
    out.psd = welch_psd(x, t % 2 ? 64 : 256);
    return out;
  };
  std::vector<Out> serial(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) serial[t] = run(t);
  std::vector<Out> pooled(kTasks);
  for (int round = 0; round < 3; ++round) {
    global_pool().parallel_for(kTasks,
                               [&](std::size_t t) { pooled[t] = run(t); });
    for (std::size_t t = 0; t < kTasks; ++t) {
      const std::string what =
          "round " + std::to_string(round) + " task " + std::to_string(t);
      expect_same_bits(pooled[t].spectrum, serial[t].spectrum, what);
      expect_same_psd(pooled[t].psd, serial[t].psd, what);
    }
  }
}

// -------------------------------------------------------------- entropy ---

TEST(Entropy, RegularSeriesHasLowerApEnThanNoise) {
  std::vector<double> regular(128);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    regular[i] = std::sin(0.5 * static_cast<double>(i));
  }
  Rng rng(7);
  std::vector<double> noise(128);
  for (auto& v : noise) v = rng.normal();
  EXPECT_LT(approximate_entropy(regular), approximate_entropy(noise));
}

TEST(Entropy, ConstantSeriesZeroApEn) {
  const std::vector<double> c(64, 1.0);
  EXPECT_DOUBLE_EQ(approximate_entropy(c), 0.0);
}

TEST(Entropy, SampleEntropyOrdersRegularity) {
  std::vector<double> regular(128);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    regular[i] = std::sin(0.5 * static_cast<double>(i));
  }
  Rng rng(8);
  std::vector<double> noise(128);
  for (auto& v : noise) v = rng.normal();
  const double se_reg = sample_entropy(regular);
  const double se_noise = sample_entropy(noise);
  ASSERT_FALSE(std::isnan(se_reg));
  ASSERT_FALSE(std::isnan(se_noise));
  EXPECT_LT(se_reg, se_noise);
}

TEST(Entropy, BinnedEntropyBounds) {
  const std::vector<double> uniformish{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const double h = binned_entropy(uniformish, 10);
  EXPECT_NEAR(h, std::log(10.0), 1e-9);  // each bin equally occupied
  const std::vector<double> constant(10, 5.0);
  EXPECT_DOUBLE_EQ(binned_entropy(constant, 10), 0.0);
}

TEST(Entropy, ShannonOfUniform) {
  const std::vector<double> p{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(shannon_entropy(p), std::log(4.0), 1e-12);
  const std::vector<double> certain{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(shannon_entropy(certain), 0.0);
}

// ------------------------------------------------------------- autocorr ---

TEST(Autocorr, LagZeroIsOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(autocorrelation(x, 0), 1.0);
}

TEST(Autocorr, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 20.0);
  }
  EXPECT_GT(autocorrelation(x, 20), 0.8);
  EXPECT_LT(autocorrelation(x, 10), -0.8);  // half period anti-correlated
}

TEST(Autocorr, ConstantSeriesIsNaN) {
  const std::vector<double> c(20, 2.0);
  EXPECT_TRUE(std::isnan(autocorrelation(c, 1)));
}

TEST(Autocorr, AcfVectorLength) {
  const std::vector<double> x{1, 2, 1, 2, 1, 2, 1, 2};
  const auto r = acf(x, 3);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_LT(r[1], 0.0);  // alternating series
  EXPECT_GT(r[2], 0.0);
}

TEST(Autocorr, Pacf) {
  // AR(1) process: PACF at lag 1 ≈ phi, near zero afterwards.
  Rng rng(9);
  std::vector<double> x(4000);
  x[0] = 0.0;
  const double phi = 0.7;
  for (std::size_t i = 1; i < x.size(); ++i) {
    x[i] = phi * x[i - 1] + rng.normal();
  }
  EXPECT_NEAR(partial_autocorrelation(x, 1), phi, 0.05);
  EXPECT_NEAR(partial_autocorrelation(x, 3), 0.0, 0.08);
}

TEST(Autocorr, AggAutocorrelation) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 2);
  const double agg = agg_autocorrelation_mean_abs(x, 5);
  EXPECT_GT(agg, 0.8);  // alternating → |acf| near 1 at all small lags
}

TEST(Autocorr, AcfFamilyMatchesReferenceBitForBit) {
  Rng rng(14);
  std::vector<std::vector<double>> cases;
  for (std::size_t n = 2; n <= 64; n += 3) {
    for (const double special : kSpecialShares) {
      std::vector<double> x(n);
      for (auto& v : x) v = awkward_value(rng, special);
      cases.push_back(x);
    }
  }
  cases.push_back(std::vector<double>(20, 2.0));  // constant: NaN lags
  cases.push_back({1.0, 1.0 + 1e-160, 1.0, 1.0 + 1e-160});  // var ~ 0
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<double>& x = cases[c];
    const std::string what = "case " + std::to_string(c);
    for (const std::size_t lags : {1, 2, 8, 70}) {
      expect_same_bits(agg_autocorrelation_mean_abs(x, lags),
                       reference::agg_autocorrelation_mean_abs(x, lags),
                       what + " agg " + std::to_string(lags));
    }
    for (std::size_t lag = 0; lag <= 9; ++lag) {
      expect_same_bits(autocorrelation(x, lag),
                       reference::autocorrelation(x, lag),
                       what + " acf " + std::to_string(lag));
      expect_same_bits(partial_autocorrelation(x, lag),
                       reference::partial_autocorrelation(x, lag),
                       what + " pacf " + std::to_string(lag));
    }
  }
}

// ----------------------------------------------------------- regression ---

TEST(Regression, ExactLine) {
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) y.push_back(2.0 * i + 3.0);
  const LinearTrend t = linear_trend(y);
  EXPECT_NEAR(t.slope, 2.0, 1e-12);
  EXPECT_NEAR(t.intercept, 3.0, 1e-12);
  EXPECT_NEAR(t.rvalue, 1.0, 1e-12);
  EXPECT_NEAR(t.stderr_, 0.0, 1e-9);
}

TEST(Regression, FlatLine) {
  const std::vector<double> y(10, 4.0);
  const LinearTrend t = linear_trend(y);
  EXPECT_NEAR(t.slope, 0.0, 1e-12);
  EXPECT_NEAR(t.intercept, 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.rvalue, 0.0);
}

TEST(Regression, PearsonKnownValues) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

// ----------------------------------------------------------------- chi2 ---

TEST(Chi2, StatisticKnownValue) {
  const std::vector<double> observed{10, 20, 30};
  const std::vector<double> expected{20, 20, 20};
  EXPECT_NEAR(chi2_statistic(observed, expected), 100.0 / 20.0 + 100.0 / 20.0,
              1e-12);
}

TEST(Chi2, InformativeFeatureScoresHigher) {
  // Feature 0 ≈ label, feature 1 is constant-ish noise.
  Rng rng(10);
  Matrix x(200, 2);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = y[i] == 1 ? 1.0 : 0.05;
    x(i, 1) = 0.5 + 0.01 * rng.uniform();
  }
  const auto scores = chi2_scores(x, y);
  EXPECT_GT(scores[0], scores[1] * 10.0);
}

TEST(Chi2, RejectsNegativeFeatures) {
  Matrix x(2, 1);
  x(0, 0) = -1.0;
  const std::vector<int> y{0, 1};
  EXPECT_THROW(chi2_scores(x, y), Error);
}

TEST(Chi2, RejectsShapeMismatch) {
  Matrix x(3, 1, 1.0);
  const std::vector<int> y{0, 1};
  EXPECT_THROW(chi2_scores(x, y), Error);
}

// ------------------------------------------------------------ histogram ---

TEST(Histogram, CountsSumToN) {
  Rng rng(11);
  std::vector<double> x(500);
  for (auto& v : x) v = rng.uniform(0.0, 10.0);
  const Histogram h = make_histogram(x, 20);
  std::size_t total = 0;
  for (const auto c : h.counts) total += c;
  EXPECT_EQ(total, 500u);
  EXPECT_DOUBLE_EQ(h.lo, *std::min_element(x.begin(), x.end()));
}

TEST(Histogram, ConstantDataFillsFirstBin) {
  const std::vector<double> x(10, 3.0);
  const Histogram h = make_histogram(x, 4);
  EXPECT_EQ(h.counts[0], 10u);
}

TEST(Histogram, IqrFencesAndOutliers) {
  // 1..100 plus one extreme outlier.
  std::vector<double> x;
  for (int i = 1; i <= 100; ++i) x.push_back(static_cast<double>(i));
  x.push_back(1000.0);
  const auto f = iqr_fences(x);
  EXPECT_GT(f.upper, 100.0);
  EXPECT_LT(f.upper, 1000.0);
  const double ratio = outlier_ratio_iqr(x);
  EXPECT_NEAR(ratio, 1.0 / 101.0, 1e-9);
}

TEST(Histogram, NoOutliersInUniform) {
  std::vector<double> x;
  for (int i = 0; i < 100; ++i) x.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(outlier_ratio_iqr(x), 0.0);
}

}  // namespace
}  // namespace alba::stats
