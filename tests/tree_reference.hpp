// Reference exact CART splitter for the tree bit-parity tests: the
// sort-based `DecisionTree::build_node` (and its `impurity`, feature
// sampling and leaf maker) as they stood before the splitter ranked each
// column once per fit. Kept verbatim — a (value, label) gather and a
// std::sort per candidate feature at every node, std::log2 per non-zero
// class on each side of every cut — so the rank-encoded splitter can be
// checked against it node for node, bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"

namespace alba::reference {

inline double impurity(std::span<const double> counts, double total,
                       SplitCriterion criterion) noexcept {
  if (total <= 0.0) return 0.0;
  if (criterion == SplitCriterion::Gini) {
    double acc = 0.0;
    for (const double c : counts) {
      const double p = c / total;
      acc += p * p;
    }
    return 1.0 - acc;
  }
  double acc = 0.0;
  for (const double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    acc -= p * std::log2(p);
  }
  return acc;
}

inline std::vector<std::size_t> sample_features(std::size_t f_total,
                                                int max_features, Rng& rng) {
  std::size_t f_try = f_total;
  if (max_features == -1) {
    f_try = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(f_total))));
  } else if (max_features > 0) {
    f_try =
        std::min<std::size_t>(static_cast<std::size_t>(max_features), f_total);
  }
  if (f_try == f_total) {
    std::vector<std::size_t> all(f_total);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  return rng.sample_without_replacement(f_total, f_try);
}

// The tree the sort-based splitter grows: the same flat node layout and
// leaf-probability table `DecisionTree` stores.
class SortedExactTree {
 public:
  using Node = DecisionTree::Node;

  SortedExactTree(TreeConfig config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  void fit_on(const Matrix& x, std::span<const int> y,
              std::vector<std::size_t> indices) {
    nodes_.clear();
    leaf_probs_.clear();
    Rng rng(seed_);
    build_node(x, y, indices, 0, indices.size(), 0, rng);
  }

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<double>& leaf_probs() const noexcept { return leaf_probs_; }

 private:
  int make_leaf(std::span<const int> y, std::span<const std::size_t> indices) {
    const auto k = static_cast<std::size_t>(config_.num_classes);
    const int leaf_start = static_cast<int>(leaf_probs_.size());
    leaf_probs_.resize(leaf_probs_.size() + k, 0.0);
    double* probs = leaf_probs_.data() + leaf_start;
    for (const std::size_t i : indices) {
      probs[static_cast<std::size_t>(y[i])] += 1.0;
    }
    const double inv = 1.0 / static_cast<double>(indices.size());
    for (std::size_t c = 0; c < k; ++c) probs[c] *= inv;

    Node node;
    node.leaf_start = leaf_start;
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  int build_node(const Matrix& x, std::span<const int> y,
                 std::vector<std::size_t>& indices, std::size_t begin,
                 std::size_t end, int depth, Rng& rng) {
    const std::size_t n = end - begin;
    const auto k = static_cast<std::size_t>(config_.num_classes);
    const auto node_span =
        std::span<const std::size_t>(indices.data() + begin, n);

    // Class histogram; detect purity.
    std::vector<double> counts(k, 0.0);
    for (const std::size_t i : node_span) {
      counts[static_cast<std::size_t>(y[i])] += 1.0;
    }
    bool pure = false;
    for (const double c : counts) {
      if (c == static_cast<double>(n)) pure = true;
    }

    const bool depth_capped =
        config_.max_depth >= 0 && depth >= config_.max_depth;
    if (pure || depth_capped ||
        n < static_cast<std::size_t>(config_.min_samples_split)) {
      return make_leaf(y, node_span);
    }

    // Feature subset for this split.
    const std::vector<std::size_t> features =
        sample_features(x.cols(), config_.max_features, rng);

    // Exact best split: sort node samples by feature value and scan.
    const double parent_impurity =
        impurity(counts, static_cast<double>(n), config_.criterion);
    double best_gain = 1e-12;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;

    std::vector<std::pair<double, int>> sorted(n);  // (value, label)
    std::vector<double> left_counts(k);
    std::vector<double> right_counts(k);
    const auto min_leaf = static_cast<std::size_t>(config_.min_samples_leaf);

    for (const std::size_t f : features) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t row = node_span[i];
        sorted[i] = {x(row, f), y[row]};
      }
      // Non-finite values sort first as one equivalence class (they all
      // route left at predict time); the label tie-break keeps the order —
      // and thus the scan — deterministic.
      std::sort(sorted.begin(), sorted.end(),
                [](const std::pair<double, int>& a,
                   const std::pair<double, int>& b) {
                  if (!exact_value_equal(a.first, b.first)) {
                    return exact_value_less(a.first, b.first);
                  }
                  return a.second < b.second;
                });
      if (exact_value_equal(sorted.front().first, sorted.back().first)) {
        continue;  // constant column
      }

      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left_counts[static_cast<std::size_t>(sorted[i].second)] += 1.0;
        const std::size_t n_left = i + 1;
        const std::size_t n_right = n - n_left;
        if (n_left < min_leaf || n_right < min_leaf) continue;
        if (exact_value_equal(sorted[i].first, sorted[i + 1].first)) continue;

        double right_total = 0.0;
        double imp_left = impurity(left_counts, static_cast<double>(n_left),
                                   config_.criterion);
        // right counts = counts - left_counts (buffer hoisted out of the scan)
        for (std::size_t c = 0; c < k; ++c) {
          right_counts[c] = counts[c] - left_counts[c];
          right_total += right_counts[c];
        }
        const double imp_right =
            impurity(right_counts, right_total, config_.criterion);
        const double weighted =
            (static_cast<double>(n_left) * imp_left +
             static_cast<double>(n_right) * imp_right) /
            static_cast<double>(n);
        const double gain = parent_impurity - weighted;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold =
              exact_cut_threshold(sorted[i].first, sorted[i + 1].first);
        }
      }
    }

    if (best_gain <= 1e-12) return make_leaf(y, node_span);

    // Partition [begin, end) around the threshold; non-finite values go
    // left, the same routing raw-value prediction uses.
    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) {
          const double v = x(i, best_feature);
          return v <= best_threshold || !std::isfinite(v);
        });
    const std::size_t mid =
        static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return make_leaf(y, node_span);

    Node node;
    node.feature = static_cast<int>(best_feature);
    node.threshold = best_threshold;
    node.importance = best_gain * static_cast<double>(n);
    const int self = static_cast<int>(nodes_.size());
    nodes_.push_back(node);

    const int left = build_node(x, y, indices, begin, mid, depth + 1, rng);
    const int right = build_node(x, y, indices, mid, end, depth + 1, rng);
    nodes_[static_cast<std::size_t>(self)].left = left;
    nodes_[static_cast<std::size_t>(self)].right = right;
    return self;
  }

  TreeConfig config_;
  std::uint64_t seed_;
  std::vector<Node> nodes_;
  std::vector<double> leaf_probs_;
};

}  // namespace alba::reference
