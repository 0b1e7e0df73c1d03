// FeaturePlan parity: every plan over the MVTS and TSFRESH feature tables
// — each single index, the full set, and seeded random subsets — must
// reproduce the monolithic reference extractors (feature_reference.hpp) bit
// for bit, on every class of series the pipeline feeds them: clean,
// NaN-repaired, constant, stuck-at and counter-reset faulted, ±0 ties at
// the extremes, minimum length, and longer than the entropy cap (so
// ApEn/SampEn decimate).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
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

}  // namespace
}  // namespace alba
