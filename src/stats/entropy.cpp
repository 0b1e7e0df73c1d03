#include "stats/entropy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/descriptive.hpp"

namespace alba::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Both matches, within r in Chebyshev distance, of templates i and j at
// lengths m and m + 1: the (m + 1)-match extends the m-match by one point.
struct TemplateMatch {
  bool m;
  bool m1;
};

TemplateMatch match_templates(std::span<const double> x, std::size_t i,
                              std::size_t j, std::size_t m, double r,
                              bool has_m1) {
  for (std::size_t k = 0; k < m; ++k) {
    if (std::abs(x[i + k] - x[j + k]) > r) return {false, false};
  }
  return {true, has_m1 && !(std::abs(x[i + m] - x[j + m]) > r)};
}

// phi(m) - phi(m + 1), where phi(m) is the mean over templates i of
// log(fraction of templates j whose m-length window is within r of i's),
// self-matches included. The match relation is symmetric, so one pass over
// j > i counts both lengths for both templates; the self-matches are
// added through the same predicate, and each phi sums its logs in i order.
double apen_phi_difference(std::span<const double> x, std::size_t m,
                           double r) {
  const std::size_t n = x.size();
  const std::size_t count_m = n - m + 1;  // m-length templates
  const std::size_t count_m1 = n - m;     // (m + 1)-length templates
  // Per-thread counts, so a warm call allocates nothing.
  thread_local std::vector<std::size_t> matches_m;
  thread_local std::vector<std::size_t> matches_m1;
  matches_m.assign(count_m, 0);
  matches_m1.assign(count_m1, 0);
  for (std::size_t i = 0; i < count_m; ++i) {
    const TemplateMatch self = match_templates(x, i, i, m, r, i < count_m1);
    if (self.m) ++matches_m[i];
    if (self.m1) ++matches_m1[i];
    for (std::size_t j = i + 1; j < count_m; ++j) {
      const TemplateMatch hit = match_templates(x, i, j, m, r, j < count_m1);
      if (!hit.m) continue;
      ++matches_m[i];
      ++matches_m[j];
      if (hit.m1) {
        ++matches_m1[i];
        ++matches_m1[j];
      }
    }
  }
  const auto phi = [](const std::vector<std::size_t>& matches) {
    const auto count = static_cast<double>(matches.size());
    double acc = 0.0;
    for (const std::size_t c : matches) {
      acc += std::log(static_cast<double>(c) / count);
    }
    return acc / count;
  };
  return phi(matches_m) - phi(matches_m1);
}
}  // namespace

double approximate_entropy(std::span<const double> x, std::size_t m,
                           double r_frac) {
  if (x.size() < m + 2) return 0.0;
  const double s = stddev(x);
  if (s < 1e-300) return 0.0;
  const double r = r_frac * s;
  return apen_phi_difference(x, m, r);
}

double sample_entropy(std::span<const double> x, std::size_t m, double r_frac) {
  const std::size_t n = x.size();
  if (n < m + 2) return kNaN;
  const double s = stddev(x);
  if (s < 1e-300) return kNaN;
  const double r = r_frac * s;

  // Count template matches of length m (B) and m+1 (A), self-matches
  // excluded, in one fused pass.
  std::size_t a = 0;
  std::size_t b = 0;
  const std::size_t count = n - m;
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      bool match_m = true;
      for (std::size_t k = 0; k < m; ++k) {
        if (std::abs(x[i + k] - x[j + k]) > r) {
          match_m = false;
          break;
        }
      }
      if (!match_m) continue;
      ++b;
      if (std::abs(x[i + m] - x[j + m]) <= r) ++a;
    }
  }
  if (a == 0 || b == 0) return kNaN;
  return -std::log(static_cast<double>(a) / static_cast<double>(b));
}

double binned_entropy(std::span<const double> x, std::size_t bins) {
  if (x.empty() || bins == 0) return kNaN;
  const double lo = minimum(x);
  const double hi = maximum(x);
  if (hi - lo < 1e-300) return 0.0;

  std::vector<double> counts(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : x) {
    auto bin = static_cast<std::size_t>((v - lo) / width);
    if (bin >= bins) bin = bins - 1;  // v == hi
    counts[bin] += 1.0;
  }
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (auto& c : counts) c *= inv_n;
  return shannon_entropy(counts);
}

double shannon_entropy(std::span<const double> probs) noexcept {
  double h = 0.0;
  for (double p : probs) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

}  // namespace alba::stats
