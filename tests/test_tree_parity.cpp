// Exact-splitter bit parity: the rank-encoded splitter must grow exactly
// the trees the sort-based splitter in tree_reference.hpp grew — every
// node's feature, threshold bits, children, leaf probabilities and
// importance bits — across both criteria, feature sampling, depth and leaf
// limits, class counts, bootstrap duplicates and awkward columns (constant,
// heavily tied, all ±0, NaN/±inf, adjacent doubles whose midpoint rounds
// onto the right value), on 1- and 2-row inputs too. A forest's trees are
// checked the same way, and its probabilities must not depend on the pool
// size (re-exec under ALBA_THREADS 1 / 2 / 8, as in test_binning).
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "tree_reference.hpp"

namespace alba {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Data {
  Matrix x;
  std::vector<int> y;
};

// Two adjacent doubles just above 1 whose midpoint rounds onto the upper
// one: a cut between them also sends the upper value left.
const double kAdjLo = std::nextafter(1.0, 2.0);
const double kAdjHi = std::nextafter(kAdjLo, 2.0);

// `n` rows over `k` classes; every column but the first is awkward for a
// sort-based scan in its own way.
Data awkward_data(std::size_t n, int k, std::uint64_t seed) {
  Rng rng(seed);
  Data d;
  d.x = Matrix(n, 10);
  for (std::size_t i = 0; i < n; ++i) {
    // Mostly class-driven labels, with some noise so trees grow deep.
    const int c = rng.uniform() < 0.8
                      ? static_cast<int>(i % static_cast<std::size_t>(k))
                      : static_cast<int>(rng.uniform_index(
                            static_cast<std::size_t>(k)));
    d.y.push_back(c);
    const double cd = static_cast<double>(c);
    auto row = d.x.row(i);
    row[0] = cd + 1.5 * rng.normal();  // continuous
    row[1] = 3.25;                     // constant
    // Heavily tied: three values, loosely tracking the class.
    row[2] = static_cast<double>((c + rng.uniform_index(2)) % 3);
    row[3] = rng.uniform() < 0.5 ? 0.0 : -0.0;  // all ±0
    // NaN / ±inf among class-tracking finite values.
    const double u = rng.uniform();
    row[4] = u < 0.15   ? kNaN
             : u < 0.2  ? kInf
             : u < 0.25 ? -kInf
                        : cd + rng.normal();
    // Adjacent doubles (midpoint rounds onto kAdjHi) and one far value.
    const double a = rng.uniform();
    row[5] = c % 2 == 0 ? (a < 0.7 ? kAdjLo : kAdjHi)
                        : (a < 0.5 ? kAdjHi : 5.0);
    // Negative, ±0 and positive ties around the signed-zero rank.
    const double z = rng.uniform();
    row[6] = c % 3 == 0 ? (z < 0.5 ? -1.0 : -0.0)
                        : (z < 0.5 ? 0.0 : 2.0);
    // Rounded continuous: some duplicates.
    row[7] = std::round(10.0 * (cd + rng.normal())) / 10.0;
    // Entirely non-finite, and ±inf beside one finite value.
    row[8] = rng.uniform() < 0.5 ? kNaN : kInf;
    row[9] = rng.uniform() < 0.3 ? (c % 2 == 0 ? -kInf : kInf) : 7.0;
  }
  return d;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Empty when equal; otherwise the first difference.
std::string tree_difference(const DecisionTree& got,
                            const reference::SortedExactTree& want) {
  std::ostringstream out;
  if (got.nodes().size() != want.nodes().size()) {
    out << "node count " << got.nodes().size() << " vs "
        << want.nodes().size();
    return out.str();
  }
  for (std::size_t i = 0; i < got.nodes().size(); ++i) {
    const auto& g = got.nodes()[i];
    const auto& w = want.nodes()[i];
    if (g.feature != w.feature || bits(g.threshold) != bits(w.threshold) ||
        g.left != w.left || g.right != w.right ||
        g.leaf_start != w.leaf_start ||
        bits(g.importance) != bits(w.importance)) {
      out << "node " << i << ": feature " << g.feature << "/" << w.feature
          << " threshold " << g.threshold << "/" << w.threshold
          << " children " << g.left << "," << g.right << "/" << w.left << ","
          << w.right << " importance " << g.importance << "/"
          << w.importance;
      return out.str();
    }
  }
  if (got.leaf_probs().size() != want.leaf_probs().size()) {
    out << "leaf table size " << got.leaf_probs().size() << " vs "
        << want.leaf_probs().size();
    return out.str();
  }
  for (std::size_t i = 0; i < got.leaf_probs().size(); ++i) {
    if (bits(got.leaf_probs()[i]) != bits(want.leaf_probs()[i])) {
      out << "leaf prob " << i << ": " << got.leaf_probs()[i] << " vs "
          << want.leaf_probs()[i];
      return out.str();
    }
  }
  return {};
}

void expect_parity(const TreeConfig& cfg, std::uint64_t seed, const Data& d,
                   const std::vector<std::size_t>& rows,
                   const std::string& what) {
  DecisionTree tree(cfg, seed);
  tree.fit_on(d.x, d.y, rows);
  reference::SortedExactTree want(cfg, seed);
  want.fit_on(d.x, d.y, rows);
  EXPECT_EQ(tree_difference(tree, want), "") << what;
}

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

TEST(ExactSplitParity, AdjacentDoublesMidpointRoundsOntoTheRightValue) {
  // The premise of the adjacent-doubles column: its cut threshold equals
  // the right value, so the raw-value partition differs from the rank one.
  EXPECT_LT(kAdjLo, kAdjHi);
  EXPECT_EQ(exact_cut_threshold(kAdjLo, kAdjHi), kAdjHi);
}

TEST(ExactSplitParity, ConfigGridMatchesSortedSplitter) {
  int cases = 0;
  for (const int k : {2, 6}) {
    const Data d = awkward_data(150, k, 11 + static_cast<std::uint64_t>(k));
    Rng boot(5);
    const std::vector<std::size_t> bootstrap =
        boot.bootstrap_indices(d.x.rows());
    for (const SplitCriterion criterion :
         {SplitCriterion::Gini, SplitCriterion::Entropy}) {
      for (const int max_features : {0, -1, 3}) {
        for (const int max_depth : {-1, 1, 8}) {
          for (const int min_leaf : {1, 5}) {
            TreeConfig cfg;
            cfg.num_classes = k;
            cfg.criterion = criterion;
            cfg.max_features = max_features;
            cfg.max_depth = max_depth;
            cfg.min_samples_leaf = min_leaf;
            const std::string what =
                "k=" + std::to_string(k) + " entropy=" +
                std::to_string(criterion == SplitCriterion::Entropy) +
                " max_features=" + std::to_string(max_features) +
                " max_depth=" + std::to_string(max_depth) +
                " min_leaf=" + std::to_string(min_leaf);
            expect_parity(cfg, 3, d, all_rows(d.x.rows()), what + " all rows");
            expect_parity(cfg, 4, d, bootstrap, what + " bootstrap");
            cases += 2;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 144);
}

TEST(ExactSplitParity, DeepTreesSplitOnEveryAwkwardColumn) {
  // With every feature offered at every split the trees reach the
  // awkward columns; make sure they really split on them.
  const Data d = awkward_data(150, 6, 21);
  TreeConfig cfg;
  cfg.num_classes = 6;
  cfg.criterion = SplitCriterion::Entropy;
  DecisionTree tree(cfg, 1);
  tree.fit(d.x, d.y);
  std::vector<int> used(d.x.cols(), 0);
  for (const auto& node : tree.nodes()) {
    if (node.feature >= 0) used[static_cast<std::size_t>(node.feature)] = 1;
  }
  // The constant and all-±0 and all-non-finite columns never split.
  EXPECT_EQ(used[1], 0);
  EXPECT_EQ(used[3], 0);
  EXPECT_EQ(used[8], 0);
  expect_parity(cfg, 1, d, all_rows(d.x.rows()), "all features, entropy");
  cfg.criterion = SplitCriterion::Gini;
  expect_parity(cfg, 1, d, all_rows(d.x.rows()), "all features, gini");

  // One awkward column at a time, so each must carry the whole tree.
  for (const std::size_t f : {2, 4, 5, 6, 7, 9}) {
    Data one;
    one.x = Matrix(d.x.rows(), 1);
    for (std::size_t i = 0; i < d.x.rows(); ++i) one.x(i, 0) = d.x(i, f);
    one.y = d.y;
    for (const SplitCriterion criterion :
         {SplitCriterion::Gini, SplitCriterion::Entropy}) {
      cfg.criterion = criterion;
      DecisionTree single(cfg, 2);
      single.fit(one.x, one.y);
      EXPECT_GT(single.node_count(), 1u) << "column " << f;
      expect_parity(cfg, 2, one, all_rows(one.x.rows()),
                    "column " + std::to_string(f) + " alone");
    }
  }
}

TEST(ExactSplitParity, NodesLargerThanTheEntropyMemo) {
  // 600 rows: root and upper nodes hold totals above the memo's cap, so
  // their entropy terms are computed directly.
  const Data d = awkward_data(600, 6, 31);
  for (const SplitCriterion criterion :
       {SplitCriterion::Gini, SplitCriterion::Entropy}) {
    TreeConfig cfg;
    cfg.num_classes = 6;
    cfg.criterion = criterion;
    cfg.max_features = -1;
    expect_parity(cfg, 7, d, all_rows(d.x.rows()), "600 rows");
    Rng boot(8);
    expect_parity(cfg, 8, d, boot.bootstrap_indices(d.x.rows()),
                  "600 rows, bootstrap");
  }
}

TEST(ExactSplitParity, OneAndTwoRowInputs) {
  TreeConfig cfg;
  cfg.num_classes = 3;
  for (const SplitCriterion criterion :
       {SplitCriterion::Gini, SplitCriterion::Entropy}) {
    cfg.criterion = criterion;
    Data one;
    one.x = Matrix(1, 3);
    one.x(0, 0) = 1.0;
    one.x(0, 1) = kNaN;
    one.x(0, 2) = -0.0;
    one.y = {2};
    expect_parity(cfg, 1, one, {0}, "one row");

    Data two;
    two.x = Matrix(2, 3);
    two.x(0, 0) = 1.0;
    two.x(1, 0) = 2.0;
    two.x(0, 1) = kNaN;
    two.x(1, 1) = 4.0;
    two.x(0, 2) = 0.0;
    two.x(1, 2) = -0.0;
    for (const std::vector<int>& y :
         {std::vector<int>{0, 1}, std::vector<int>{1, 1}}) {
      two.y = y;
      expect_parity(cfg, 1, two, {0, 1}, "two rows");
      expect_parity(cfg, 1, two, {1, 1}, "one row twice");
      expect_parity(cfg, 1, two, {0, 1, 1, 0}, "two rows twice");
    }
    // Two rows telling apart only by ±0: no split exists.
    Data zeros;
    zeros.x = Matrix(2, 1);
    zeros.x(0, 0) = 0.0;
    zeros.x(1, 0) = -0.0;
    zeros.y = {0, 1};
    DecisionTree tree(cfg, 1);
    tree.fit(zeros.x, zeros.y);
    EXPECT_EQ(tree.node_count(), 1u);
    expect_parity(cfg, 1, zeros, {0, 1}, "±0 pair");
  }
}

// The forest grows its trees on one shared rank matrix; each must equal a
// sort-based tree on the same bootstrap sample (the forest derives tree
// seeds and samples as below).
TEST(ExactSplitParity, ForestTreesMatchSortedSplitter) {
  const Data d = awkward_data(200, 6, 41);
  ForestConfig fcfg;
  fcfg.num_classes = 6;
  fcfg.n_estimators = 12;
  RandomForest rf(fcfg, 9);
  rf.fit(d.x, d.y);

  TreeConfig cfg;
  cfg.num_classes = fcfg.num_classes;
  cfg.max_depth = fcfg.max_depth;
  cfg.min_samples_split = fcfg.min_samples_split;
  cfg.min_samples_leaf = fcfg.min_samples_leaf;
  cfg.max_features = fcfg.max_features;
  cfg.criterion = fcfg.criterion;
  Rng seeder(9);
  ASSERT_EQ(rf.trees().size(), 12u);
  for (std::size_t i = 0; i < rf.trees().size(); ++i) {
    const std::uint64_t tree_seed = seeder.next();
    Rng rng(tree_seed ^ 0xB0075742ULL);
    reference::SortedExactTree want(cfg, tree_seed);
    want.fit_on(d.x, d.y, rng.bootstrap_indices(d.x.rows()));
    EXPECT_EQ(tree_difference(rf.trees()[i], want), "") << "tree " << i;
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Fits an Exact forest and hashes every probability's bits. Run directly
// it asserts the forest works; run from the re-exec harness below it also
// prints the hash for the parent to compare.
TEST(ExactThreads, ChildFitAndHash) {
  const Data d = awkward_data(220, 4, 51);
  ForestConfig cfg;
  cfg.num_classes = 4;
  cfg.n_estimators = 16;
  RandomForest rf(cfg, 3);
  rf.fit(d.x, d.y);
  const Matrix proba = rf.predict_proba(d.x);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    for (const double p : proba.row(i)) h = fnv1a(h, bits(p));
  }
  EXPECT_GT(rf.trees().front().node_count(), 1u);
  std::printf("EXACT_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// The global pool is sized once per process, so cross-pool-size identity
// needs fresh processes: re-exec this binary with ALBA_THREADS pinned to
// 1 / 2 / 8 and compare the probability hashes the child test prints.
TEST(ExactThreads, ProbabilitiesIdenticalAcrossPoolSizes) {
  // popen runs through a shell, where /proc/self/exe would name the shell —
  // resolve the link to this binary's real path first.
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) GTEST_SKIP() << "/proc/self/exe unavailable";
  self[len] = '\0';

  std::vector<std::string> hashes;
  for (const char* threads : {"1", "2", "8"}) {
    const std::string cmd =
        std::string("ALBA_THREADS=") + threads + " '" + self +
        "' --gtest_filter=ExactThreads.ChildFitAndHash 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
      const std::string s(line);
      const auto pos = s.find("EXACT_HASH=");
      if (pos != std::string::npos) hash = s.substr(pos + 11, 16);
    }
    const int rc = pclose(pipe);
    ASSERT_EQ(rc, 0) << "child run with ALBA_THREADS=" << threads << " failed";
    ASSERT_EQ(hash.size(), 16u) << "child printed no hash";
    hashes.push_back(hash);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

}  // namespace
}  // namespace alba
