#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/compiled_tree.hpp"

namespace alba {

namespace {

// Gains at or below this are no split at all.
constexpr double kMinGain = 1e-12;

// Class counts are whole numbers; the scans keep them as integers and
// convert to double exactly where the impurity arithmetic needs one.
using Count = std::uint32_t;

// p·log2(p) for p = c / total, the entropy impurity's term. It depends
// only on the integer pair (c, total), and an entropy scan would
// otherwise call log2 for the same few thousand pairs at every cut of every
// node. Each thread memoizes it per pair, computed by the very expression
// the direct path uses, so memoized and direct terms agree bit for bit. Row
// `total` holds c = 0..total; rows are filled on first use up to kMaxTotal
// (a triangle of ~1 MiB), and larger totals compute directly.
class EntropyTerms {
 public:
  static double term(double c, double total) noexcept {
    const double p = c / total;
    return p * std::log2(p);
  }

  // Terms for c = 0..total, or null when `total` is above the cap.
  const double* row(Count total) {
    const std::size_t t = total;
    if (t > kMaxTotal) return nullptr;
    if (t >= rows_) grow(t);
    return terms_.data() + t * (t + 1) / 2;
  }

 private:
  static constexpr std::size_t kMaxTotal = 511;

  void grow(std::size_t t) {
    const std::size_t rows =
        std::min(std::max(t + 1, 2 * rows_), kMaxTotal + 1);
    terms_.resize(rows * (rows + 1) / 2);
    for (std::size_t r = rows_; r < rows; ++r) {
      double* row = terms_.data() + r * (r + 1) / 2;
      row[0] = 0.0;  // c = 0 adds nothing
      for (std::size_t c = 1; c <= r; ++c) {
        row[c] = term(static_cast<double>(c), static_cast<double>(r));
      }
    }
    rows_ = rows;
  }

  std::vector<double> terms_;
  std::size_t rows_ = 0;  // rows 0..rows_-1 are filled
};

EntropyTerms& entropy_terms() {
  thread_local EntropyTerms terms;
  return terms;
}

double impurity(std::span<const Count> counts, Count total,
                SplitCriterion criterion, EntropyTerms& terms) {
  if (total == 0) return 0.0;
  const auto t = static_cast<double>(total);
  if (criterion == SplitCriterion::Gini) {
    double acc = 0.0;
    for (const Count c : counts) {
      const double p = static_cast<double>(c) / t;
      acc += p * p;
    }
    return 1.0 - acc;
  }
  double acc = 0.0;
  if (const double* row = terms.row(total)) {
    // row[0] is +0.0 and acc is never -0.0, so subtracting it is the
    // direct path's skip, without a branch on the data.
    for (const Count c : counts) acc -= row[c];
    return acc;
  }
  for (const Count c : counts) {
    if (c == 0) continue;
    acc -= EntropyTerms::term(static_cast<double>(c), t);
  }
  return acc;
}

// Sibling subtraction passes a node's full-feature histogram down the
// recursion (larger child = parent − smaller child). Histograms are
// depth-bounded in memory, so stop handing them down past this depth —
// deeper nodes are tiny and rebuild cheaply anyway.
constexpr int kMaxSubtractDepth = 32;

// Candidate features for one split, drawn with the node's RNG.
std::vector<std::size_t> sample_features(std::size_t f_total, int max_features,
                                         Rng& rng) {
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

// Accumulates per-feature (bin × class) count histograms for the given rows.
// `hist` must be zeroed, laid out [feature][bin][class] with a fixed
// kMaxBins × k stride per feature.
void build_count_hist(const BinnedMatrix& binned, std::span<const int> y,
                      std::span<const std::size_t> rows,
                      std::span<const std::size_t> features, std::size_t k,
                      Count* hist) {
  const std::size_t stride = static_cast<std::size_t>(BinnedMatrix::kMaxBins) * k;
  for (std::size_t fi = 0; fi < features.size(); ++fi) {
    const std::uint8_t* codes = binned.column(features[fi]);
    Count* h = hist + fi * stride;
    for (const std::size_t row : rows) {
      ++h[static_cast<std::size_t>(codes[row]) * k +
          static_cast<std::size_t>(y[row])];
    }
  }
}

// Class histogram of a node's rows.
std::vector<Count> class_counts(std::span<const int> y,
                                std::span<const std::size_t> rows,
                                std::size_t k) {
  std::vector<Count> counts(k, 0);
  for (const std::size_t i : rows) ++counts[static_cast<std::size_t>(y[i])];
  return counts;
}

}  // namespace

// Best-cut search over one node, shared by both split finders. For each
// candidate feature a scan feeds the node's class counts code by code in
// ascending code order (a Hist bin or an exact rank), and each fed code
// scores the cut "codes 0..b left, higher codes right". Non-finite values
// (code 0, the leftmost) always ride with the left side, matching the
// raw-value predicate `value <= threshold || !isfinite(value)`; a cut at
// code 0 separates them from every finite row.
class DecisionTree::CutSearch {
 public:
  CutSearch(std::span<const Count> counts, std::size_t n,
            const TreeConfig& config)
      : counts_(counts),
        n_(static_cast<Count>(n)),
        min_leaf_(static_cast<Count>(config.min_samples_leaf)),
        criterion_(config.criterion),
        terms_(entropy_terms()),
        parent_impurity_(impurity(counts, n_, criterion_, terms_)),
        left_counts_(counts.size()),
        right_counts_(counts.size()) {}

  void start_feature() {
    std::fill(left_counts_.begin(), left_counts_.end(), 0);
    n_left_ = 0;
  }

  // Cumulates code `b` of feature `f` into the left side and scores the
  // cut after it. Cumulating an empty code is a no-op, so skipping empty
  // codes entirely (the compact scan) picks the same split as walking
  // every code (the full-histogram scan).
  void add(std::size_t f, std::size_t b, const Count* code_counts) {
    const std::size_t k = counts_.size();
    Count code_total = 0;
    for (std::size_t c = 0; c < k; ++c) {
      left_counts_[c] += code_counts[c];
      code_total += code_counts[c];
    }
    n_left_ += code_total;
    if (code_total == 0) return;  // same partition as previous cut
    const Count n_right = n_ - n_left_;
    if (n_left_ < min_leaf_ || n_right < min_leaf_) return;
    for (std::size_t c = 0; c < k; ++c) {
      right_counts_[c] = counts_[c] - left_counts_[c];
    }
    const double imp_left =
        impurity(left_counts_, n_left_, criterion_, terms_);
    const double imp_right =
        impurity(right_counts_, n_right, criterion_, terms_);
    const double weighted = (static_cast<double>(n_left_) * imp_left +
                             static_cast<double>(n_right) * imp_right) /
                            static_cast<double>(n_);
    const double gain = parent_impurity_ - weighted;
    if (gain > best_gain_) {
      best_gain_ = gain;
      best_feature_ = f;
      best_code_ = b;
    }
  }

  bool found() const noexcept { return best_gain_ > kMinGain; }
  double best_gain() const noexcept { return best_gain_; }
  std::size_t best_feature() const noexcept { return best_feature_; }
  std::size_t best_code() const noexcept { return best_code_; }

 private:
  std::span<const Count> counts_;
  Count n_;
  Count min_leaf_;
  SplitCriterion criterion_;
  EntropyTerms& terms_;
  double parent_impurity_;
  std::vector<Count> left_counts_;
  std::vector<Count> right_counts_;
  Count n_left_ = 0;
  double best_gain_ = kMinGain;
  std::size_t best_feature_ = 0;
  std::size_t best_code_ = 0;
};

// One feature's (code × class) count histogram over a node's rows, keyed by
// a column code (a Hist bin or an exact rank); one per tree fit, reused by
// every node. Only the codes the rows touch are fed to the search and
// re-zeroed, so a node of m rows costs O(m + occupied × k) per feature
// instead of O(codes × k): that is what keeps small deep nodes cheap.
class DecisionTree::CodeHistogram {
 public:
  CodeHistogram(std::size_t max_codes, std::size_t k)
      : k_(k),
        counts_(max_codes * k, 0),
        rows_per_code_(max_codes, 0),
        occupied_(max_codes + 1) {}  // + the scan's spare write

  // Histograms `codes` (values below `num_codes`) over `rows` and feeds
  // every occupied code but the last to `search` in ascending order — the
  // last cannot host a cut, everything would go left. Leaves the scratch
  // zeroed.
  template <class Code>
  void scan(const Code* codes, std::size_t num_codes,
            std::span<const std::size_t> rows, std::span<const int> y,
            std::size_t f, CutSearch& search) {
    // Every row writes its code one past the occupied list, but the list
    // only grows on a code's first row: no branch on the data.
    std::size_t n_occupied = 0;
    for (const std::size_t row : rows) {
      const std::size_t c = codes[row];
      occupied_[n_occupied] = static_cast<std::uint32_t>(c);
      n_occupied += rows_per_code_[c]++ == 0 ? 1 : 0;
      ++counts_[c * k_ + static_cast<std::size_t>(y[row])];
    }
    // Ascending order: a dense node walks every code rather than sorting
    // most of them; a sparse one sorts the few it touched.
    const auto occupied = std::span(occupied_.data(), n_occupied);
    if (n_occupied * 8 >= num_codes) {
      std::size_t i = 0;
      for (std::size_t c = 0; c < num_codes; ++c) {
        occupied_[i] = static_cast<std::uint32_t>(c);
        i += rows_per_code_[c] != 0 ? 1 : 0;
      }
    } else {
      std::sort(occupied.begin(), occupied.end());
    }
    search.start_feature();
    for (std::size_t i = 0; i + 1 < n_occupied; ++i) {
      search.add(f, occupied[i], counts_.data() + occupied[i] * k_);
    }
    for (const std::uint32_t c : occupied) {
      std::fill_n(counts_.begin() + static_cast<std::ptrdiff_t>(c * k_), k_,
                  Count{0});
      rows_per_code_[c] = 0;
    }
  }

 private:
  std::size_t k_;
  std::vector<Count> counts_;                // [code][class]
  std::vector<std::uint32_t> rows_per_code_;
  std::vector<std::uint32_t> occupied_;      // first n_occupied entries
};

DecisionTree::DecisionTree(TreeConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  ALBA_CHECK(config_.num_classes >= 2);
  ALBA_CHECK(config_.min_samples_split >= 2);
  ALBA_CHECK(config_.min_samples_leaf >= 1);
  ALBA_CHECK(config_.max_features >= -1);
}

void DecisionTree::fit(const Matrix& x, std::span<const int> y) {
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  fit_on(x, y, std::move(idx));
  compiled_ = CompiledTreePredictor::compile(*this);
}

void DecisionTree::fit_on(const Matrix& x, std::span<const int> y,
                          std::vector<std::size_t> indices) {
  if (config_.split_algo == SplitAlgo::Hist) {
    fit_on(x, y, std::move(indices), BinnedMatrix(x));
  } else {
    fit_on(x, y, std::move(indices), RankMatrix(x));
  }
}

void DecisionTree::fit_on(const Matrix& x, std::span<const int> y,
                          std::vector<std::size_t> indices,
                          const RankMatrix& ranks) {
  ALBA_CHECK(config_.split_algo == SplitAlgo::Exact)
      << "a rank view fits only SplitAlgo::Exact trees";
  ALBA_CHECK(ranks.rows() == x.rows() && ranks.cols() == x.cols())
      << "rank view shape mismatch";
  start_fit(x, y, indices);
  Rng rng(seed_);
  CodeHistogram hist(x.rows() + 1,
                     static_cast<std::size_t>(config_.num_classes));
  build_node(x, ranks, y, indices, 0, indices.size(), 0, rng, hist);
}

void DecisionTree::fit_on(const Matrix& x, std::span<const int> y,
                          std::vector<std::size_t> indices,
                          const BinnedMatrix& binned) {
  ALBA_CHECK(config_.split_algo == SplitAlgo::Hist)
      << "a binned view fits only SplitAlgo::Hist trees";
  ALBA_CHECK(binned.rows() == x.rows() && binned.cols() == x.cols())
      << "binned view shape mismatch";
  start_fit(x, y, indices);
  Rng rng(seed_);
  CodeHistogram hist(BinnedMatrix::kMaxBins,
                     static_cast<std::size_t>(config_.num_classes));
  build_node_hist(binned, y, indices, 0, indices.size(), 0, rng, {}, hist);
}

void DecisionTree::start_fit(const Matrix& x, std::span<const int> y,
                             std::span<const std::size_t> indices) {
  ALBA_CHECK(x.rows() == y.size());
  ALBA_CHECK(!indices.empty()) << "fitting a tree on zero samples";
  ALBA_CHECK(indices.size() <= std::numeric_limits<Count>::max())
      << indices.size() << " samples overflow 32-bit class counts";
  for (const int label : y) {
    ALBA_CHECK(label >= 0 && label < config_.num_classes)
        << "label " << label << " outside [0, " << config_.num_classes << ")";
  }
  nodes_.clear();
  leaf_probs_.clear();
  compiled_.reset();  // stale fast path must never outlive a refit
}

bool DecisionTree::stops_at(std::span<const std::uint32_t> counts,
                            std::size_t n, int depth) const noexcept {
  bool pure = false;
  for (const Count c : counts) {
    if (c == n) pure = true;
  }
  const bool depth_capped =
      config_.max_depth >= 0 && depth >= config_.max_depth;
  return pure || depth_capped ||
         n < static_cast<std::size_t>(config_.min_samples_split);
}

int DecisionTree::make_leaf(std::span<const int> y,
                            std::span<const std::size_t> indices) {
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

// Exact split finder: every cut between two distinct values the node holds
// is a candidate, found from a histogram of the node's ranks rather than a
// sort of its raw values — O(m + occupied × k) per candidate feature.
int DecisionTree::build_node(const Matrix& x, const RankMatrix& ranks,
                             std::span<const int> y,
                             std::vector<std::size_t>& indices,
                             std::size_t begin, std::size_t end, int depth,
                             Rng& rng, CodeHistogram& hist) {
  const std::size_t n = end - begin;
  const auto node_span =
      std::span<const std::size_t>(indices.data() + begin, n);
  const std::vector<Count> counts = class_counts(
      y, node_span, static_cast<std::size_t>(config_.num_classes));
  if (stops_at(counts, n, depth)) return make_leaf(y, node_span);

  const std::vector<std::size_t> features =
      sample_features(x.cols(), config_.max_features, rng);
  CutSearch search(counts, n, config_);
  for (const std::size_t f : features) {
    // A constant column occupies one rank and feeds no cut.
    hist.scan(ranks.column(f), ranks.num_ranks(f), node_span, y, f, search);
  }
  if (!search.found()) return make_leaf(y, node_span);

  // The raw values bounding the cut: a row at the cut rank, and the node's
  // first row at the next rank it holds. Rows sharing a rank share their
  // value (±0 aside, which leaves the midpoint unchanged), so this is the
  // sorted scan's threshold.
  const std::size_t best_feature = search.best_feature();
  const std::uint32_t* col = ranks.column(best_feature);
  const auto cut = static_cast<std::uint32_t>(search.best_code());
  std::uint32_t next = ranks.num_ranks(best_feature);
  double left_value = 0.0;
  double right_value = 0.0;
  for (const std::size_t row : node_span) {
    const std::uint32_t r = col[row];
    if (r == cut) {
      left_value = x(row, best_feature);
    } else if (r > cut && r < next) {
      next = r;
      right_value = x(row, best_feature);
    }
  }
  const double threshold = exact_cut_threshold(left_value, right_value);

  // Partition [begin, end) on raw values, not ranks: a midpoint between
  // adjacent doubles can round onto the right value, and raw-value
  // prediction then routes that value left too. Non-finite values go left.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) {
        const double v = x(i, best_feature);
        return v <= threshold || !std::isfinite(v);
      });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf(y, node_span);

  Node node;
  node.feature = static_cast<int>(best_feature);
  node.threshold = threshold;
  node.importance = search.best_gain() * static_cast<double>(n);
  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  const int left =
      build_node(x, ranks, y, indices, begin, mid, depth + 1, rng, hist);
  const int right =
      build_node(x, ranks, y, indices, mid, end, depth + 1, rng, hist);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

// Histogram split finder: bins instead of ranks, so at most 255 finite cut
// points per feature. `node_hist` is this node's [feature][bin][class]
// histogram handed down by the parent via sibling subtraction (only when
// every split sees all features, so parent and child histograms cover the
// same columns); empty means build it here.
int DecisionTree::build_node_hist(const BinnedMatrix& binned,
                                  std::span<const int> y,
                                  std::vector<std::size_t>& indices,
                                  std::size_t begin, std::size_t end, int depth,
                                  Rng& rng,
                                  std::vector<std::uint32_t>&& node_hist,
                                  CodeHistogram& hist) {
  const std::size_t n = end - begin;
  const auto k = static_cast<std::size_t>(config_.num_classes);
  const auto node_span =
      std::span<const std::size_t>(indices.data() + begin, n);
  const std::vector<Count> counts = class_counts(y, node_span, k);
  if (stops_at(counts, n, depth)) return make_leaf(y, node_span);

  const std::size_t f_total = binned.cols();
  const std::vector<std::size_t> features =
      sample_features(f_total, config_.max_features, rng);
  const bool all_features = features.size() == f_total;
  const std::size_t stride = static_cast<std::size_t>(BinnedMatrix::kMaxBins) * k;

  // Sibling subtraction passes full node histograms down the recursion, so
  // they are only worth materializing when every split sees all features
  // (parent and child then histogram the same columns). Subsampled nodes —
  // the forest's default — use the compact per-feature scan instead: a
  // full [feature][bin][class] histogram costs O(kMaxBins × k) per feature
  // to zero and scan no matter how small the node is, which makes deep
  // trees slower than the exact splitter.
  const bool subtract = all_features && depth < kMaxSubtractDepth;
  if (node_hist.empty() && subtract) {
    node_hist.assign(features.size() * stride, 0);
    build_count_hist(binned, y, node_span, features, k, node_hist.data());
  }

  CutSearch search(counts, n, config_);
  for (std::size_t fi = 0; fi < features.size(); ++fi) {
    const std::size_t f = features[fi];
    const int nb = binned.num_bins(f);
    if (nb <= 2) continue;  // at most one finite bin: constant column
    if (node_hist.empty()) {
      hist.scan(binned.column(f), static_cast<std::size_t>(nb), node_span, y,
                f, search);
      continue;
    }
    const Count* h = node_hist.data() + fi * stride;
    search.start_feature();
    for (int b = 0; b + 1 < nb; ++b) {
      search.add(f, static_cast<std::size_t>(b),
                 h + static_cast<std::size_t>(b) * k);
    }
  }
  if (!search.found()) return make_leaf(y, node_span);

  // Partition [begin, end) by bin code; NaN (code 0) goes left, exactly as
  // raw-value prediction routes it (non-finite values traverse left).
  const std::size_t best_feature = search.best_feature();
  const int best_bin = static_cast<int>(search.best_code());
  const std::uint8_t* best_codes = binned.column(best_feature);
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) {
        return static_cast<int>(best_codes[i]) <= best_bin;
      });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf(y, node_span);

  Node node;
  node.feature = static_cast<int>(best_feature);
  // A cut at bin 0 sends only the non-finite rows left: -inf realizes it in
  // raw-value space (`v <= -inf` is false for every finite v, and non-finite
  // values route left unconditionally).
  node.threshold = best_bin == 0
                       ? -std::numeric_limits<double>::infinity()
                       : binned.upper_edge(best_feature, best_bin);
  node.importance = search.best_gain() * static_cast<double>(n);
  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  // Sibling subtraction: build the smaller child's histogram from its rows
  // and derive the larger child's as parent − smaller, halving histogram
  // work. Only valid when parent and children histogram the same columns
  // (all-features mode); depth-capped so live histograms stay bounded.
  std::vector<Count> left_hist;
  std::vector<Count> right_hist;
  if (subtract) {
    const std::size_t n_left_rows = mid - begin;
    const bool left_smaller = n_left_rows * 2 <= n;
    const auto small_span =
        left_smaller
            ? std::span<const std::size_t>(indices.data() + begin, n_left_rows)
            : std::span<const std::size_t>(indices.data() + mid, end - mid);
    std::vector<Count> small_hist(node_hist.size(), 0);
    build_count_hist(binned, y, small_span, features, k, small_hist.data());
    // Reuse the parent's buffer for the larger child.
    for (std::size_t i = 0; i < node_hist.size(); ++i) {
      node_hist[i] -= small_hist[i];
    }
    if (left_smaller) {
      left_hist = std::move(small_hist);
      right_hist = std::move(node_hist);
    } else {
      left_hist = std::move(node_hist);
      right_hist = std::move(small_hist);
    }
  }
  node_hist.clear();
  node_hist.shrink_to_fit();

  const int left = build_node_hist(binned, y, indices, begin, mid, depth + 1,
                                   rng, std::move(left_hist), hist);
  const int right = build_node_hist(binned, y, indices, mid, end, depth + 1,
                                    rng, std::move(right_hist), hist);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

void DecisionTree::predict_proba_row(std::span<const double> row,
                                     std::span<double> out) const {
  ALBA_CHECK(fitted()) << "predict before fit";
  ALBA_CHECK(out.size() == static_cast<std::size_t>(config_.num_classes));
  int node = 0;
  for (;;) {
    const Node& cur = nodes_[static_cast<std::size_t>(node)];
    if (cur.feature < 0) {
      const double* probs = leaf_probs_.data() + cur.leaf_start;
      std::copy_n(probs, out.size(), out.begin());
      return;
    }
    // Non-finite values route left, matching BinnedMatrix's bin 0 — the
    // leftmost bin — so a quarantined/NaN feature at serving time lands in
    // the branch its training histogram actually saw.
    const double v = row[static_cast<std::size_t>(cur.feature)];
    node = split_routes_right(v, cur.threshold) ? cur.right : cur.left;
  }
}

Matrix DecisionTree::predict_proba_reference(const Matrix& x) const {
  Matrix out(x.rows(), static_cast<std::size_t>(config_.num_classes));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    predict_proba_row(x.row(i), out.row(i));
  }
  return out;
}

Matrix DecisionTree::predict_proba(const Matrix& x) const {
  if (compiled_ == nullptr) return predict_proba_reference(x);
  Matrix out(x.rows(), static_cast<std::size_t>(config_.num_classes));
  global_pool().parallel_for_chunked(
      x.rows(), [&](std::size_t begin, std::size_t end) {
        compiled_->predict_range(x, begin, end, out);
      });
  return out;
}

void DecisionTree::predict_proba_rows(const Matrix& x,
                                      std::span<const std::size_t> rows,
                                      Matrix& out) const {
  out.reshape(rows.size(), static_cast<std::size_t>(config_.num_classes));
  if (compiled_ != nullptr) {
    compiled_->predict_rows(x, rows, out);
    return;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    predict_proba_row(x.row(rows[i]), out.row(i));
  }
}

std::unique_ptr<Classifier> DecisionTree::clone() const {
  return std::make_unique<DecisionTree>(config_, seed_);
}

std::size_t DecisionTree::leaf_count() const noexcept {
  std::size_t count = 0;
  for (const Node& n : nodes_) count += (n.feature < 0) ? 1 : 0;
  return count;
}

int DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the flat layout.
  std::vector<std::pair<int, int>> stack{{0, 0}};
  int best = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

std::vector<double> DecisionTree::feature_importances(
    std::size_t num_features) const {
  ALBA_CHECK(fitted()) << "importances before fit";
  std::vector<double> importances(num_features, 0.0);
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (node.feature < 0) continue;
    ALBA_CHECK(static_cast<std::size_t>(node.feature) < num_features)
        << "tree splits on feature " << node.feature << ", only "
        << num_features << " given";
    importances[static_cast<std::size_t>(node.feature)] += node.importance;
    total += node.importance;
  }
  if (total > 0.0) {
    for (auto& v : importances) v /= total;
  }
  return importances;
}

void DecisionTree::restore(std::vector<Node> nodes,
                           std::vector<double> leaf_probs) {
  ALBA_CHECK(!nodes.empty());
  nodes_ = std::move(nodes);
  leaf_probs_ = std::move(leaf_probs);
  compiled_ = CompiledTreePredictor::compile(*this);
}

}  // namespace alba
