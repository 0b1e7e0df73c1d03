// Tests for the tree-based models: CART decision tree, random forest, and
// the LightGBM-style gradient boosting classifier.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbm.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace alba {
namespace {

// Three well-separated Gaussian blobs in 2D.
struct Blobs {
  Matrix x;
  std::vector<int> y;
};

Blobs make_blobs(std::size_t per_class, double spread, std::uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {0.0, 5.0}};
  Blobs blobs;
  blobs.x = Matrix(3 * per_class, 2);
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = static_cast<std::size_t>(c) * per_class + i;
      blobs.x(row, 0) = centers[c][0] + spread * rng.normal();
      blobs.x(row, 1) = centers[c][1] + spread * rng.normal();
      blobs.y.push_back(c);
    }
  }
  return blobs;
}

TreeConfig blob_tree_config() {
  TreeConfig cfg;
  cfg.num_classes = 3;
  return cfg;
}

// ---------------------------------------------------------------- tree ---

TEST(DecisionTree, PerfectlyFitsTrainingData) {
  const Blobs blobs = make_blobs(30, 0.4, 1);
  DecisionTree tree(blob_tree_config(), 1);
  tree.fit(blobs.x, blobs.y);
  EXPECT_DOUBLE_EQ(accuracy(blobs.y, tree.predict(blobs.x)), 1.0);
}

TEST(DecisionTree, GeneralizesOnSeparatedBlobs) {
  const Blobs train = make_blobs(50, 0.5, 2);
  const Blobs test = make_blobs(30, 0.5, 3);
  DecisionTree tree(blob_tree_config(), 1);
  tree.fit(train.x, train.y);
  EXPECT_GT(accuracy(test.y, tree.predict(test.x)), 0.95);
}

TEST(DecisionTree, MaxDepthLimitsDepth) {
  const Blobs blobs = make_blobs(50, 1.5, 4);
  TreeConfig cfg = blob_tree_config();
  cfg.max_depth = 2;
  DecisionTree tree(cfg, 1);
  tree.fit(blobs.x, blobs.y);
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Blobs blobs = make_blobs(20, 1.0, 5);
  TreeConfig cfg = blob_tree_config();
  cfg.min_samples_leaf = 10;
  DecisionTree tree(cfg, 1);
  tree.fit(blobs.x, blobs.y);
  // Every leaf distribution must be built from >= 10 samples; with 60
  // samples that caps leaves at 6.
  EXPECT_LE(tree.leaf_count(), 6u);
}

TEST(DecisionTree, PureDataYieldsSingleLeaf) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const std::vector<int> y{1, 1, 1};
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 1);
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  const Matrix probs = tree.predict_proba(x);
  EXPECT_DOUBLE_EQ(probs(0, 1), 1.0);
}

TEST(DecisionTree, ProbabilitiesAreLeafFrequencies) {
  // One feature, mixed leaf when depth = 0 is forced by constant feature.
  Matrix x = Matrix::from_rows({{1.0}, {1.0}, {1.0}, {1.0}});
  const std::vector<int> y{0, 0, 0, 1};
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 1);
  tree.fit(x, y);
  const Matrix probs = tree.predict_proba(x);
  EXPECT_DOUBLE_EQ(probs(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(probs(0, 1), 0.25);
}

TEST(DecisionTree, EntropyAndGiniBothLearn) {
  const Blobs blobs = make_blobs(40, 0.5, 6);
  for (const auto criterion : {SplitCriterion::Gini, SplitCriterion::Entropy}) {
    TreeConfig cfg = blob_tree_config();
    cfg.criterion = criterion;
    DecisionTree tree(cfg, 1);
    tree.fit(blobs.x, blobs.y);
    EXPECT_GT(accuracy(blobs.y, tree.predict(blobs.x)), 0.97);
  }
}

TEST(DecisionTree, DeterministicForSeed) {
  const Blobs blobs = make_blobs(30, 1.0, 7);
  TreeConfig cfg = blob_tree_config();
  cfg.max_features = 1;  // force feature subsampling randomness
  DecisionTree t1(cfg, 42);
  DecisionTree t2(cfg, 42);
  t1.fit(blobs.x, blobs.y);
  t2.fit(blobs.x, blobs.y);
  EXPECT_EQ(t1.predict(blobs.x), t2.predict(blobs.x));
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree(blob_tree_config(), 1);
  Matrix x(1, 2, 0.0);
  EXPECT_THROW(tree.predict_proba(x), Error);
}

TEST(DecisionTree, RejectsBadLabels) {
  Matrix x(2, 1, 0.0);
  const std::vector<int> y{0, 5};
  TreeConfig cfg;
  cfg.num_classes = 3;
  DecisionTree tree(cfg, 1);
  EXPECT_THROW(tree.fit(x, y), Error);
}

TEST(DecisionTree, CloneIsUnfittedWithSameConfig) {
  DecisionTree tree(blob_tree_config(), 9);
  auto clone = tree.clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->num_classes(), 3);
}

// --------------------------------------------------------------- forest ---

TEST(RandomForest, LearnsBlobs) {
  const Blobs train = make_blobs(60, 0.8, 8);
  const Blobs test = make_blobs(30, 0.8, 9);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 30;
  RandomForest rf(cfg, 1);
  rf.fit(train.x, train.y);
  EXPECT_GT(accuracy(test.y, rf.predict(test.x)), 0.95);
}

TEST(RandomForest, ProbabilityRowsSumToOne) {
  const Blobs blobs = make_blobs(20, 1.0, 10);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  RandomForest rf(cfg, 2);
  rf.fit(blobs.x, blobs.y);
  const Matrix probs = rf.predict_proba(blobs.x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, DeterministicAcrossRuns) {
  const Blobs blobs = make_blobs(40, 1.2, 11);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 15;
  RandomForest a(cfg, 7);
  RandomForest b(cfg, 7);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  for (std::size_t i = 0; i < pa.rows(); ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      EXPECT_DOUBLE_EQ(pa(i, j), pb(i, j));
    }
  }
}

TEST(RandomForest, DifferentSeedsGiveDifferentForests) {
  const Blobs blobs = make_blobs(40, 1.5, 12);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  RandomForest a(cfg, 1);
  RandomForest b(cfg, 2);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  bool any_diff = false;
  for (std::size_t i = 0; i < pa.rows() && !any_diff; ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      if (pa(i, j) != pb(i, j)) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomForest, TreeCountMatchesConfig) {
  const Blobs blobs = make_blobs(10, 1.0, 13);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 7;
  RandomForest rf(cfg, 1);
  rf.fit(blobs.x, blobs.y);
  EXPECT_EQ(rf.trees().size(), 7u);
}

TEST(RandomForest, UnseenClassGetsZeroProbability) {
  // Training data lacks class 0 (the ALBADross seed-set situation).
  const Blobs blobs = make_blobs(20, 0.5, 14);
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < blobs.y.size(); ++i) {
    if (blobs.y[i] != 0) keep.push_back(i);
  }
  const Matrix x = blobs.x.select_rows(keep);
  std::vector<int> y;
  for (const auto i : keep) y.push_back(blobs.y[i]);

  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  RandomForest rf(cfg, 1);
  rf.fit(x, y);
  const Matrix probs = rf.predict_proba(x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    EXPECT_DOUBLE_EQ(probs(i, 0), 0.0);
  }
}

// ------------------------------------------------------------------ gbm ---

TEST(Gbm, LearnsBlobs) {
  const Blobs train = make_blobs(60, 0.8, 15);
  const Blobs test = make_blobs(30, 0.8, 16);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 30;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(train.x, train.y);
  EXPECT_GT(accuracy(test.y, gbm.predict(test.x)), 0.95);
}

TEST(Gbm, ProbabilitiesSumToOne) {
  const Blobs blobs = make_blobs(20, 1.0, 17);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  const Matrix probs = gbm.predict_proba(blobs.x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Gbm, NumLeavesCapsTreeSize) {
  const Blobs blobs = make_blobs(80, 2.5, 18);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 3;
  cfg.num_leaves = 4;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  for (const auto& round : gbm.rounds()) {
    for (const auto& tree : round) {
      std::size_t leaves = 0;
      for (const auto& node : tree.nodes) leaves += (node.feature < 0) ? 1 : 0;
      EXPECT_LE(leaves, 4u);
    }
  }
}

TEST(Gbm, MoreRoundsImproveTrainingFit) {
  const Blobs blobs = make_blobs(50, 2.0, 19);
  GbmConfig weak;
  weak.num_classes = 3;
  weak.n_estimators = 1;
  weak.num_leaves = 3;
  GbmConfig strong = weak;
  strong.n_estimators = 40;
  strong.num_leaves = 16;
  GbmClassifier a(weak, 1);
  GbmClassifier b(strong, 1);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  EXPECT_GE(accuracy(blobs.y, b.predict(blobs.x)),
            accuracy(blobs.y, a.predict(blobs.x)));
}

TEST(Gbm, ColsampleRestrictsFeatures) {
  // With colsample ~ 0, each tree sees 1 of 2 features; still learns some.
  const Blobs blobs = make_blobs(50, 0.5, 20);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 20;
  cfg.colsample_bytree = 0.5;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  EXPECT_GT(accuracy(blobs.y, gbm.predict(blobs.x)), 0.9);
}

TEST(Gbm, MaxDepthRespected) {
  const Blobs blobs = make_blobs(60, 2.0, 21);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 2;
  cfg.max_depth = 2;
  cfg.num_leaves = 64;
  GbmClassifier gbm(cfg, 1);
  gbm.fit(blobs.x, blobs.y);
  // Depth-2 trees have at most 4 leaves / 7 nodes.
  for (const auto& round : gbm.rounds()) {
    for (const auto& tree : round) EXPECT_LE(tree.nodes.size(), 7u);
  }
}

TEST(Gbm, DeterministicForSeed) {
  const Blobs blobs = make_blobs(30, 1.0, 22);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  cfg.colsample_bytree = 0.5;
  GbmClassifier a(cfg, 3);
  GbmClassifier b(cfg, 3);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  for (std::size_t i = 0; i < pa.rows(); ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      EXPECT_DOUBLE_EQ(pa(i, j), pb(i, j));
    }
  }
}

// ------------------------------------------------- histogram splitting ---

TEST(HistSplit, DecisionTreeMatchesExactAccuracy) {
  const Blobs train = make_blobs(60, 1.0, 31);
  const Blobs test = make_blobs(40, 1.0, 32);
  TreeConfig cfg = blob_tree_config();
  DecisionTree exact(cfg, 1);
  exact.fit(train.x, train.y);
  cfg.split_algo = SplitAlgo::Hist;
  DecisionTree hist(cfg, 1);
  hist.fit(train.x, train.y);
  const double f1_exact = macro_f1(test.y, exact.predict(test.x), 3);
  const double f1_hist = macro_f1(test.y, hist.predict(test.x), 3);
  EXPECT_NEAR(f1_hist, f1_exact, 0.02);
}

TEST(HistSplit, ForestMatchesExactAccuracy) {
  const Blobs train = make_blobs(60, 1.2, 33);
  const Blobs test = make_blobs(40, 1.2, 34);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 25;
  cfg.max_depth = 8;
  RandomForest exact(cfg, 7);
  exact.fit(train.x, train.y);
  cfg.split_algo = SplitAlgo::Hist;
  RandomForest hist(cfg, 7);
  hist.fit(train.x, train.y);
  const double f1_exact = macro_f1(test.y, exact.predict(test.x), 3);
  const double f1_hist = macro_f1(test.y, hist.predict(test.x), 3);
  EXPECT_NEAR(f1_hist, f1_exact, 0.02);
}

TEST(HistSplit, GbmMatchesExactAccuracy) {
  const Blobs train = make_blobs(60, 1.2, 35);
  const Blobs test = make_blobs(40, 1.2, 36);
  GbmConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 12;
  cfg.num_leaves = 15;
  GbmClassifier exact(cfg, 7);
  exact.fit(train.x, train.y);
  cfg.split_algo = SplitAlgo::Hist;
  GbmClassifier hist(cfg, 7);
  hist.fit(train.x, train.y);
  const double f1_exact = macro_f1(test.y, exact.predict(test.x), 3);
  const double f1_hist = macro_f1(test.y, hist.predict(test.x), 3);
  EXPECT_NEAR(f1_hist, f1_exact, 0.02);
}

TEST(HistSplit, DeterministicForSeed) {
  const Blobs blobs = make_blobs(40, 1.0, 37);
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 10;
  cfg.split_algo = SplitAlgo::Hist;
  RandomForest a(cfg, 5);
  RandomForest b(cfg, 5);
  a.fit(blobs.x, blobs.y);
  b.fit(blobs.x, blobs.y);
  const Matrix pa = a.predict_proba(blobs.x);
  const Matrix pb = b.predict_proba(blobs.x);
  for (std::size_t i = 0; i < pa.rows(); ++i) {
    for (std::size_t j = 0; j < pa.cols(); ++j) {
      EXPECT_DOUBLE_EQ(pa(i, j), pb(i, j));
    }
  }
}

TEST(NaNRouting, NonFiniteValuesGoLeftAtPredictTime) {
  // Regression test for the NaN-routing fix: BinnedMatrix codes non-finite
  // values as bin 0, the leftmost bin, so raw-value traversal must send
  // them left too. Before the fix `NaN <= threshold` evaluated false and
  // NaN windows were scored by a branch the training histogram never saw.
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].leaf_start = 0;  // left leaf: class 0
  nodes[2].leaf_start = 2;  // right leaf: class 1
  TreeConfig cfg;
  cfg.num_classes = 2;
  DecisionTree tree(cfg, 0);
  tree.restore(std::move(nodes), {1.0, 0.0, 0.0, 1.0});

  double probs[2];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {nan, -inf, inf}) {
    const double row[1] = {v};
    tree.predict_proba_row(std::span<const double>(row, 1),
                           std::span<double>(probs, 2));
    EXPECT_DOUBLE_EQ(probs[0], 1.0) << "value " << v << " must route left";
  }
  const double row[1] = {0.7};
  tree.predict_proba_row(std::span<const double>(row, 1),
                         std::span<double>(probs, 2));
  EXPECT_DOUBLE_EQ(probs[1], 1.0);
}

TEST(NaNRouting, HistTreesCanIsolateNaNWithMinusInfThreshold) {
  // When missingness itself carries the label, the hist splitter can cut
  // after bin 0 (all non-finite left, all finite right); the stored
  // threshold is -inf so raw traversal reproduces the partition exactly.
  Rng rng(41);
  Matrix x(80, 1);
  std::vector<int> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = y[i] == 0 ? std::numeric_limits<double>::quiet_NaN()
                        : rng.normal();
  }
  TreeConfig cfg;
  cfg.num_classes = 2;
  cfg.split_algo = SplitAlgo::Hist;
  DecisionTree tree(cfg, 7);
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(accuracy(y, tree.predict(x)), 1.0);
}

TEST(HistSplit, CompactScanSeesEveryBinOccupied) {
  // Two columns of NaN plus 2000 distinct values use all 256 bins; with
  // one feature sampled per split the root's compact scan then finds every
  // bin occupied and keeps reading rows past the last new one.
  constexpr std::size_t kRows = 2000;
  Matrix x(kRows, 2);
  std::vector<int> y;
  for (std::size_t i = 0; i < kRows; ++i) {
    y.push_back(i < kRows / 2 ? 0 : 1);
    x(i, 0) = i % 50 == 0 ? std::numeric_limits<double>::quiet_NaN()
                          : static_cast<double>(i);
    x(i, 1) = i % 50 == 25 ? std::numeric_limits<double>::quiet_NaN()
                           : static_cast<double>((i * 7) % kRows);
  }
  const BinnedMatrix binned(x);
  ASSERT_EQ(binned.num_bins(0), BinnedMatrix::kMaxBins);
  ASSERT_EQ(binned.num_bins(1), BinnedMatrix::kMaxBins);
  TreeConfig cfg;
  cfg.num_classes = 2;
  cfg.max_features = 1;
  cfg.split_algo = SplitAlgo::Hist;
  DecisionTree tree(cfg, 3);
  tree.fit(x, y);
  DecisionTree again(cfg, 3);
  again.fit(x, y);
  EXPECT_EQ(tree.node_count(), again.node_count());
  EXPECT_GT(accuracy(y, tree.predict(x)), 0.95);
}

TEST(HistSplit, HandlesNaNFeaturesEndToEnd) {
  // Hist routes NaN (bin 0) left at every split, consistently between
  // training and raw-value prediction.
  Blobs blobs = make_blobs(40, 0.6, 38);
  Rng rng(39);
  for (std::size_t i = 0; i < blobs.x.rows(); ++i) {
    if (rng.uniform() < 0.1) {
      blobs.x(i, rng.uniform_index(2)) =
          std::numeric_limits<double>::quiet_NaN();
    }
  }
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 15;
  cfg.split_algo = SplitAlgo::Hist;
  RandomForest rf(cfg, 11);
  rf.fit(blobs.x, blobs.y);
  EXPECT_GT(accuracy(blobs.y, rf.predict(blobs.x)), 0.9);
}

TEST(FeatureImportances, InformativeFeatureDominates) {
  // Feature 0 carries the class; feature 1 is noise.
  Rng rng(50);
  Matrix x(120, 2);
  std::vector<int> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    y[i] = static_cast<int>(i % 2);
    x(i, 0) = static_cast<double>(y[i]) + 0.1 * rng.normal();
    x(i, 1) = rng.normal();
  }
  TreeConfig tc;
  tc.num_classes = 2;
  DecisionTree tree(tc, 1);
  tree.fit(x, y);
  const auto tree_imp = tree.feature_importances(2);
  EXPECT_GT(tree_imp[0], 0.9);
  EXPECT_NEAR(tree_imp[0] + tree_imp[1], 1.0, 1e-9);

  ForestConfig fc;
  fc.num_classes = 2;
  fc.n_estimators = 10;
  fc.max_features = 0;  // both features considered at every split
  RandomForest rf(fc, 1);
  rf.fit(x, y);
  const auto rf_imp = rf.feature_importances(2);
  EXPECT_GT(rf_imp[0], 0.8);
  EXPECT_NEAR(rf_imp[0] + rf_imp[1], 1.0, 1e-9);
}

TEST(FeatureImportances, SingleLeafTreeIsAllZero) {
  Matrix x = Matrix::from_rows({{1.0}, {2.0}});
  const std::vector<int> y{1, 1};
  TreeConfig tc;
  tc.num_classes = 2;
  DecisionTree tree(tc, 1);
  tree.fit(x, y);
  const auto imp = tree.feature_importances(1);
  EXPECT_DOUBLE_EQ(imp[0], 0.0);
}

TEST(FeatureImportances, RejectsTooFewFeatures) {
  const Blobs blobs = make_blobs(20, 0.5, 51);
  TreeConfig tc;
  tc.num_classes = 3;
  DecisionTree tree(tc, 1);
  tree.fit(blobs.x, blobs.y);
  EXPECT_THROW(tree.feature_importances(1), Error);
  DecisionTree unfitted(tc, 1);
  EXPECT_THROW(unfitted.feature_importances(2), Error);
}

// Property sweep: every tree model's probabilities are valid distributions
// on random data.
class TreeModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeModelProperty, ForestProbsAreDistributions) {
  const Blobs blobs = make_blobs(15, 3.0, GetParam());
  ForestConfig cfg;
  cfg.num_classes = 3;
  cfg.n_estimators = 5;
  cfg.max_depth = 4;
  RandomForest rf(cfg, GetParam());
  rf.fit(blobs.x, blobs.y);
  const Matrix probs = rf.predict_proba(blobs.x);
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double sum = 0.0;
    for (const double p : probs.row(i)) {
      EXPECT_GE(p, -1e-12);
      EXPECT_LE(p, 1.0 + 1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeModelProperty,
                         ::testing::Range<std::uint64_t>(100, 108));

}  // namespace
}  // namespace alba
