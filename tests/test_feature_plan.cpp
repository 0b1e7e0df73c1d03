// FeaturePlan parity: every plan over the MVTS and TSFRESH feature tables
// — each single index, the full set, and seeded random subsets — must
// reproduce the monolithic reference extractors (feature_reference.hpp) bit
// for bit, on every class of series the pipeline feeds them: clean,
// NaN-repaired, constant, stuck-at and counter-reset faulted, ±0 ties at
// the extremes, minimum length, and longer than the entropy cap (so
// ApEn/SampEn decimate). The recurrence and symmetry entries, which read
// the sorted copy, are also checked against their stats:: calls on raw
// NaN, ±inf and tied series; approximate entropy must equal its frozen
// two-pass copy; and a warm spectral plan run must not allocate (this file
// counts operator new per thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "feature_reference.hpp"
#include "features/mvts.hpp"
#include "features/preprocessing.hpp"
#include "features/tsfresh.hpp"
#include "stats/descriptive.hpp"
#include "stats/entropy.hpp"

namespace alba {
namespace {
// Calls of the global operator new on this thread.
thread_local std::size_t t_allocations = 0;
}  // namespace
}  // namespace alba

// Counting replacements: malloc/free underneath, so GCC's new/delete
// pairing check does not apply to them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++alba::t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace alba {
namespace {

struct NamedSeries {
  std::string name;
  std::vector<double> x;
};

std::vector<double> noisy(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 50.0 + 10.0 * std::sin(0.3 * static_cast<double>(i)) +
           rng.uniform(-5.0, 5.0);
  }
  return x;
}

// The series classes the extractors see after preprocessing.
std::vector<NamedSeries> series_classes() {
  std::vector<NamedSeries> out;
  out.push_back({"clean", noisy(52, 1)});

  std::vector<double> gappy = noisy(52, 2);
  for (const std::size_t i : {0, 1, 9, 10, 11, 30, 51}) {
    gappy[i] = std::numeric_limits<double>::quiet_NaN();
  }
  interpolate_nans(gappy);
  out.push_back({"nan_interpolated", gappy});

  out.push_back({"constant", std::vector<double>(52, 3.25)});
  out.push_back({"all_zero", std::vector<double>(40, 0.0)});

  // A dead sensor: the gauge repeats its last good reading from step 20.
  std::vector<double> stuck = noisy(52, 3);
  for (std::size_t i = 20; i < stuck.size(); ++i) stuck[i] = stuck[19];
  out.push_back({"stuck_at", stuck});

  // A daemon restart: the cumulative counter falls back to zero mid-run;
  // the extractor sees its clamped first difference.
  std::vector<double> counter(53);
  Rng rng(4);
  double acc = 1e6;
  for (std::size_t i = 0; i < counter.size(); ++i) {
    if (i == 31) acc = 0.0;
    acc += rng.uniform(100.0, 200.0);
    counter[i] = acc;
  }
  out.push_back({"counter_reset", difference_counter(counter)});

  // Minimum (then maximum) tied between +0.0 and -0.0, long enough that
  // std::sort is not a stable insertion sort: a sorted copy's front is not
  // the first minimum min_element picks, so min/max must not read it.
  std::vector<double> zeros;
  for (int i = 0; i < 40; ++i) {
    zeros.push_back(i % 3 == 0 ? ((i / 3) % 2 ? -0.0 : 0.0)
                               : 1.0 + static_cast<double>((i * 7) % 11));
  }
  out.push_back({"signed_zero_min_ties", zeros});
  for (double& v : zeros) v = -v;
  out.push_back({"signed_zero_max_ties", zeros});

  out.push_back({"min_length_4", {3.0, 1.0, 4.0, 1.5}});
  out.push_back({"min_length_8", noisy(8, 5)});
  out.push_back({"longer_than_entropy_cap", noisy(203, 6)});
  return out;
}

// Bit-for-bit equality, NaN payloads included.
void expect_same_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": plan " << got << " vs reference " << want;
}

using Reference =
    std::function<void(std::span<const double>, std::span<double>)>;

// Runs `indices` as a plan and checks every output against the reference.
void check_plan(const FeatureExtractor& ex, const Reference& reference,
                const NamedSeries& s, std::vector<std::size_t> indices,
                const std::string& label) {
  std::vector<double> want(ex.num_features());
  reference(s.x, want);
  const FeaturePlan plan = ex.plan(indices);
  std::vector<double> got(plan.size());
  FeatureScratch scratch;
  plan.run(s.x, got, scratch);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    expect_same_bits(got[k], want[indices[k]],
                     ex.name() + " " + s.name + " " + label + " " +
                         ex.feature_names()[indices[k]]);
  }
}

void check_all_plans(const FeatureExtractor& ex, const Reference& reference,
                     std::size_t min_length) {
  const std::size_t f = ex.num_features();
  Rng rng(11);
  for (const NamedSeries& s : series_classes()) {
    if (s.x.size() < min_length) continue;
    for (std::size_t i = 0; i < f; ++i) {
      check_plan(ex, reference, s, {i}, "single");
    }

    std::vector<double> want(f);
    reference(s.x, want);
    std::vector<double> got(f);
    ex.extract(s.x, got);
    for (std::size_t i = 0; i < f; ++i) {
      expect_same_bits(got[i], want[i],
                       ex.name() + " " + s.name + " extract " +
                           ex.feature_names()[i]);
    }

    for (int trial = 0; trial < 8; ++trial) {
      // Random size, order and repeats, like a bundle's selection.
      const std::size_t size = 1 + rng.uniform_index(f);
      std::vector<std::size_t> indices(size);
      for (auto& i : indices) i = rng.uniform_index(f);
      check_plan(ex, reference, s, indices,
                 "subset" + std::to_string(trial));
    }
  }
}

TEST(FeaturePlan, MvtsMatchesReferenceBitForBit) {
  const MvtsExtractor mvts;
  ASSERT_EQ(mvts.num_features(), 48u);
  check_all_plans(mvts, reference::mvts_extract, 4);
}

TEST(FeaturePlan, TsfreshMatchesReferenceBitForBit) {
  const TsfreshExtractor ts;
  ASSERT_EQ(ts.num_features(), 111u);
  check_all_plans(
      ts,
      [](std::span<const double> x, std::span<double> out) {
        reference::tsfresh_extract(TsfreshConfig{}, x, out);
      },
      8);
}

TEST(FeaturePlan, TsfreshCustomGridMatchesReference) {
  TsfreshConfig cfg;
  cfg.acf_lags = 3;
  cfg.pacf_lags = 2;
  cfg.fft_coeffs = 2;
  cfg.psd_bins = 3;
  cfg.entropy_cap = 16;
  const TsfreshExtractor ts(cfg);
  ASSERT_EQ(ts.num_features(), reference::tsfresh_size(cfg));
  check_all_plans(
      ts,
      [cfg](std::span<const double> x, std::span<double> out) {
        reference::tsfresh_extract(cfg, x, out);
      },
      8);
}

TEST(FeaturePlan, TooShortSeriesThrowsForEveryPlan) {
  const MvtsExtractor mvts;
  const TsfreshExtractor ts;
  FeatureScratch scratch;
  const std::vector<double> three{1.0, 2.0, 3.0};
  const std::vector<double> seven = noisy(7, 9);

  std::vector<double> out(mvts.num_features());
  EXPECT_THROW(mvts.extract(three, out), Error);
  EXPECT_THROW(reference::mvts_extract(three, out), Error);
  std::vector<double> one(1);
  EXPECT_THROW(mvts.plan({0}).run(three, one, scratch), Error);

  out.assign(ts.num_features(), 0.0);
  EXPECT_THROW(ts.extract(seven, out), Error);
  EXPECT_THROW(reference::tsfresh_extract(TsfreshConfig{}, seven, out), Error);
  EXPECT_THROW(ts.plan({0}).run(seven, one, scratch), Error);
  // A 4-point series is long enough for MVTS but not for TSFRESH.
  EXPECT_NO_THROW(mvts.plan({0}).run(std::vector<double>(4, 1.0), one,
                                     scratch));
  EXPECT_THROW(ts.plan({0}).run(std::vector<double>(4, 1.0), one, scratch),
               Error);
}

TEST(FeaturePlan, RejectsBadIndicesAndOutputSizes) {
  const MvtsExtractor mvts;
  EXPECT_THROW(mvts.plan({48}), Error);
  const FeaturePlan plan = mvts.plan({0, 5});
  EXPECT_EQ(plan.size(), 2u);
  FeatureScratch scratch;
  std::vector<double> out(3);
  EXPECT_THROW(plan.run(noisy(20, 1), out, scratch), Error);
}

TEST(FeaturePlan, NamesComeFromTheTable) {
  const MvtsExtractor mvts;
  EXPECT_EQ(mvts.name(), "mvts");
  EXPECT_EQ(mvts.feature_names().front(), "mean");
  EXPECT_EQ(mvts.feature_names().back(), "rms");
  const TsfreshExtractor ts;
  EXPECT_EQ(ts.name(), "tsfresh");
  EXPECT_EQ(ts.feature_names().front(), "sum");
  EXPECT_EQ(ts.feature_names().back(), "index_mass_q75");
}

std::size_t index_of(const FeatureExtractor& ex, const std::string& name) {
  const auto& names = ex.feature_names();
  const auto it = std::find(names.begin(), names.end(), name);
  ALBA_CHECK(it != names.end()) << "no feature " << name;
  return static_cast<std::size_t>(it - names.begin());
}

TEST(FeaturePlan, RecurrenceAndSymmetryEntriesMatchTheirStatsCalls) {
  // has_duplicate / perc_reoccurring count equal-value runs in the sorted
  // copy and symmetry_* read its median; each must equal its stats:: call.
  // Raw series with NaNs (never through interpolate_nans) take the map
  // fallback: std::unordered_map keys every NaN apart.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<NamedSeries> cases;
  for (NamedSeries& s : series_classes()) {
    if (s.x.size() >= 8) cases.push_back(std::move(s));
  }
  std::vector<double> raw = noisy(52, 7);
  for (const std::size_t i : {0, 5, 6, 30, 51}) raw[i] = kNaN;
  cases.push_back({"raw_nan", raw});
  cases.push_back({"raw_nan_with_ties", {1, kNaN, 2, kNaN, 2, 3, kNaN, 4}});
  cases.push_back({"all_nan", std::vector<double>(8, kNaN)});
  cases.push_back({"nan_and_infinities",
                   {kInf, kNaN, -kInf, kInf, 0.0, -0.0, kNaN, 5.0}});
  cases.push_back({"infinities", {kInf, -kInf, kInf, 1, 2, -kInf, 3, 4}});
  cases.push_back({"signed_zero_ties", {0.0, -0.0, 1, 2, 3, -0.0, 4, 5}});
  cases.push_back({"all_equal", std::vector<double>(8, 7.5)});
  std::vector<double> distinct(52);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    distinct[i] = 1.5 * static_cast<double>((i * 17) % 52);
  }
  cases.push_back({"all_distinct", distinct});

  const TsfreshExtractor ts;
  const std::vector<std::string> names{"has_duplicate", "perc_reoccurring",
                                       "symmetry_r005", "symmetry_r025"};
  std::vector<std::size_t> indices;
  for (const std::string& name : names) indices.push_back(index_of(ts, name));
  const FeaturePlan together = ts.plan(indices);
  FeatureScratch scratch;
  for (const NamedSeries& s : cases) {
    const std::vector<double> want{
        stats::has_duplicate(s.x) ? 1.0 : 0.0,
        stats::percentage_of_reoccurring_datapoints(s.x),
        stats::symmetry_looking(s.x, 0.05) ? 1.0 : 0.0,
        stats::symmetry_looking(s.x, 0.25) ? 1.0 : 0.0};
    std::vector<double> got(indices.size());
    together.run(s.x, got, scratch);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      expect_same_bits(got[k], want[k], s.name + " " + names[k]);
      std::vector<double> alone(1);
      ts.plan({indices[k]}).run(s.x, alone, scratch);
      expect_same_bits(alone[0], want[k], s.name + " alone " + names[k]);
    }
  }
}

TEST(FeaturePlan, ApproximateEntropyMatchesReferenceBitForBit) {
  // The one-pass ApEn (both template lengths counted over j > i, self-
  // matches added) against the frozen two-pass copy, over the plan's series
  // classes plus raw NaN, ±inf and ±0 series, at several m and r.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<NamedSeries> cases = series_classes();
  cases.push_back({"raw_nan_with_ties", {1, kNaN, 2, kNaN, 2, 3, kNaN, 4}});
  cases.push_back({"all_nan", std::vector<double>(8, kNaN)});
  cases.push_back({"nan_and_infinities",
                   {kInf, kNaN, -kInf, kInf, 0.0, -0.0, kNaN, 5.0}});
  cases.push_back({"infinities", {kInf, -kInf, kInf, 1, 2, -kInf, 3, 4}});
  cases.push_back({"signed_zero_ties", {0.0, -0.0, 1, 2, 3, -0.0, 4, 5}});
  cases.push_back({"ties", {1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 3, 3}});
  for (const std::size_t m : {1, 2, 3}) {
    std::vector<double> shortest = noisy(m + 2, 12);  // n = m + 2
    cases.push_back({"n_eq_m_plus_2_m" + std::to_string(m), shortest});
    shortest.pop_back();  // too short: 0 without scanning
    cases.push_back({"n_eq_m_plus_1_m" + std::to_string(m), shortest});
  }
  // A negative r, where no template (bar NaN distances) matches even
  // itself, pins the self-match predicate too.
  for (const NamedSeries& s : cases) {
    for (const std::size_t m : {1, 2, 3}) {
      for (const double r : {0.2, 0.0, 0.5, -0.1}) {
        expect_same_bits(
            stats::approximate_entropy(s.x, m, r),
            reference::approximate_entropy(s.x, m, r),
            s.name + " m=" + std::to_string(m) + " r=" + std::to_string(r));
      }
    }
  }
}

TEST(FeaturePlan, WarmSpectralPlanRunAllocatesNothing) {
  // The FFT spectrum, the Welch PSD, the sorted copy, the ACF family and
  // ApEn's match counts: once every series shape has been seen, their
  // buffers, FFT plans and Hann windows are all warm.
  const TsfreshExtractor ts;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < ts.num_features(); ++i) {
    const std::string& name = ts.feature_names()[i];
    for (const char* prefix :
         {"fft_", "welch_", "spectral_centroid", "dominant_freq",
          "has_duplicate", "perc_reoccurring", "symmetry_", "median", "iqr",
          "quantile_", "acf_", "agg_acf", "pacf_", "approx_entropy"}) {
      if (name.starts_with(prefix)) {
        indices.push_back(i);
        break;
      }
    }
  }
  const FeaturePlan plan = ts.plan(indices);
  std::vector<double> out(plan.size());
  FeatureScratch scratch;
  const std::vector<std::vector<double>> series{noisy(203, 8), noisy(52, 9),
                                                noisy(8, 10)};
  for (const auto& x : series) plan.run(x, out, scratch);

  const std::size_t sanity = t_allocations;
  { const std::vector<double> counted(3); }
  ASSERT_EQ(t_allocations, sanity + 1) << "operator new is not counted";
  for (const auto& x : series) {
    const std::size_t before = t_allocations;
    plan.run(x, out, scratch);
    EXPECT_EQ(t_allocations - before, 0u) << x.size() << "-point series";
  }
}

}  // namespace
}  // namespace alba
