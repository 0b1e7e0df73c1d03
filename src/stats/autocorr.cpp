#include "stats/autocorr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.hpp"

namespace alba::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Σ(x - m)², the denominator every lag shares.
double centered_sum_of_squares(std::span<const double> x, double m) noexcept {
  double var_acc = 0.0;
  for (double v : x) var_acc += (v - m) * (v - m);
  return var_acc;
}

// The autocorrelation at 0 < lag < n, given the series' mean and
// centered sum of squares.
double autocorrelation_at(std::span<const double> x, std::size_t lag,
                          double m, double var_acc) noexcept {
  if (var_acc < 1e-300) return kNaN;
  double acc = 0.0;
  for (std::size_t i = 0; i + lag < x.size(); ++i) {
    acc += (x[i] - m) * (x[i + lag] - m);
  }
  return acc / var_acc;
}
}  // namespace

double autocorrelation(std::span<const double> x, std::size_t lag) noexcept {
  if (lag >= x.size()) return kNaN;
  if (lag == 0) return 1.0;
  const double m = mean(x);
  return autocorrelation_at(x, lag, m, centered_sum_of_squares(x, m));
}

std::vector<double> acf(std::span<const double> x, std::size_t max_lag) {
  std::vector<double> out(max_lag + 1);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) {
    out[lag] = autocorrelation(x, lag);
  }
  return out;
}

double agg_autocorrelation_mean_abs(std::span<const double> x,
                                    std::size_t max_lag) {
  if (x.size() < 2) return kNaN;
  const std::size_t effective = std::min(max_lag, x.size() - 1);
  const double m = mean(x);
  const double var_acc = centered_sum_of_squares(x, m);
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t lag = 1; lag <= effective; ++lag) {
    const double r = autocorrelation_at(x, lag, m, var_acc);
    if (!std::isnan(r)) {
      acc += std::abs(r);
      ++count;
    }
  }
  return count ? acc / static_cast<double>(count) : kNaN;
}

double partial_autocorrelation(std::span<const double> x, std::size_t lag) {
  if (lag == 0) return 1.0;
  if (x.size() < lag + 1) return kNaN;

  // Durbin–Levinson: phi[k][k] is the PACF at lag k. The buffers are per
  // thread, so a warm call allocates nothing.
  thread_local std::vector<double> rho, phi_prev, phi_cur;
  const double m = mean(x);
  const double var_acc = centered_sum_of_squares(x, m);
  rho.resize(lag + 1);
  rho[0] = 1.0;
  for (std::size_t k = 1; k <= lag; ++k) {
    rho[k] = autocorrelation_at(x, k, m, var_acc);
    if (std::isnan(rho[k])) return kNaN;
  }
  phi_prev.assign(lag + 1, 0.0);
  phi_cur.assign(lag + 1, 0.0);
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

}  // namespace alba::stats
