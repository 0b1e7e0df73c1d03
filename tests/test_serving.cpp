// Tests for the serving layer: ModelBundle round-trips and corruption
// rejection, the hardened ArchiveReader length checks, the fitted
// transforms PreparedSplit exposes for export, and DiagnosisService
// bit-identity with the offline pipeline (plus its cache and its
// thread-safety contract — this file runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/csv.hpp"

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "ml/serialize.hpp"
#include "serving/diagnosis_service.hpp"
#include "serving/model_bundle.hpp"
#include "serving_fixture.hpp"
#include "telemetry/run_generator.hpp"

namespace alba {
namespace {

const ServingFixture& env() {
  static const ServingFixture* shared = train_serving_fixture();
  return *shared;
}

// Fresh raw windows the training data never saw (different run seeds).
std::vector<Sample> fresh_samples(const ServingFixture& e, int runs,
                                  std::uint64_t seed) {
  const RunGenerator generator(e.cfg.system, e.cfg.registry, e.cfg.sim);
  std::vector<Sample> samples;
  for (int r = 0; r < runs; ++r) {
    RunSpec spec;
    spec.app_id = r % static_cast<int>(e.data.num_apps);
    spec.nodes = 2;
    if (r % 3 != 0) {
      spec.anomaly = kAnomalyTypes[static_cast<std::size_t>(r) %
                                   kAnomalyTypes.size()];
      spec.intensity = 1.0;
    }
    spec.run_id = 9000 + r;
    spec.seed = seed + static_cast<std::uint64_t>(r);
    for (Sample& s : generator.generate_run(spec)) {
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

// The offline reference pipeline, ending in predict_proba.
Matrix offline_probs(const ServingFixture& e, const std::vector<Sample>& samples) {
  const RunGenerator generator(e.cfg.system, e.cfg.registry, e.cfg.sim);
  const auto extractor = make_extractor(e.cfg.extractor);
  const FeatureMatrix fm = extract_features(samples, generator.registry(),
                                            *extractor, e.cfg.preprocess);
  Matrix x = select_features_by_name(fm, e.data.features.names);
  e.prepared.scaler.transform(x);
  x = e.prepared.selector.transform(x);
  return e.model->predict_proba(x);
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------------------- PreparedSplit ---

TEST(PreparedSplit, ExposesTheFittedTransforms) {
  const ServingFixture& e = env();
  ASSERT_TRUE(e.prepared.scaler.fitted());
  ASSERT_TRUE(e.prepared.selector.fitted());
  EXPECT_EQ(e.prepared.scaler.mins().size(), e.data.features.names.size());
  EXPECT_EQ(e.prepared.selector.selected_indices().size(),
            e.prepared.selected_names.size());

  // Re-applying the frozen transforms to the raw test rows must reproduce
  // test_x exactly — this is the property model export relies on.
  Matrix x = e.data.features.x.select_rows(e.split.test);
  e.prepared.scaler.transform(x);
  expect_bit_identical(e.prepared.selector.transform(x), e.prepared.test_x);
}

TEST(PreparedSplit, DefaultSelectorIsAPlaceholder) {
  SelectKBestChi2 selector;  // as embedded in a default PreparedSplit
  EXPECT_FALSE(selector.fitted());
  const Matrix x = Matrix::from_rows({{0.1, 0.2}, {0.9, 0.8}});
  const std::vector<int> y{0, 1};
  EXPECT_THROW(selector.fit(x, y), Error);
}

// --------------------------------------------------------- ModelBundle ---

class BundleRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BundleRoundTrip, PredictionsAndMetadataSurvive) {
  const ServingFixture& e = env();
  ParamSet params = table4_optimum(GetParam(), false);
  if (GetParam() == "mlp") params["max_iter"] = "25";
  if (GetParam() == "rf") params["n_estimators"] = "10";
  auto model = make_model_factory(GetParam(), kNumClasses, 13)(params);
  model->fit(e.prepared.train_x, e.prepared.train_y);
  const Matrix before = model->predict_proba(e.prepared.test_x);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bundle(ss, make_model_bundle(e.data, e.prepared, *model));
  const ModelBundle restored = load_model_bundle(ss);

  EXPECT_EQ(restored.feature_names, e.data.features.names);
  EXPECT_EQ(restored.scaler_mins, e.prepared.scaler.mins());
  EXPECT_EQ(restored.scaler_maxs, e.prepared.scaler.maxs());
  EXPECT_EQ(restored.selected_names, e.prepared.selected_names);
  ASSERT_EQ(restored.selected.size(),
            e.prepared.selector.selected_indices().size());
  ASSERT_EQ(restored.label_names.size(),
            static_cast<std::size_t>(kNumClasses));
  EXPECT_EQ(restored.label_names[0], "healthy");
  EXPECT_EQ(restored.features.extractor, e.cfg.extractor);
  EXPECT_EQ(restored.features.preprocess.trim_head,
            e.cfg.preprocess.trim_head);

  ASSERT_TRUE(restored.model && restored.model->fitted());
  EXPECT_EQ(restored.model->name(), model->name());
  expect_bit_identical(restored.model->predict_proba(e.prepared.test_x),
                       before);
}

INSTANTIATE_TEST_SUITE_P(Models, BundleRoundTrip,
                         ::testing::Values("rf", "lr", "lgbm", "mlp"));

TEST(ModelBundle, FileRoundTrip) {
  const ServingFixture& e = env();
  const std::string path = "/tmp/alba_bundle_test.bin";
  export_model_bundle(path, e.data, e.prepared, *e.model);
  const ModelBundle restored = load_model_bundle_file(path);
  expect_bit_identical(restored.model->predict_proba(e.prepared.test_x),
                       e.model->predict_proba(e.prepared.test_x));
  std::remove(path.c_str());
  EXPECT_THROW(load_model_bundle_file("/nonexistent/bundle.bin"), Error);
}

TEST(ModelBundle, RefusesUnfittedModel) {
  const ServingFixture& e = env();
  const auto unfitted = make_model_factory("rf", kNumClasses, 1)(
      table4_optimum("rf", false));
  EXPECT_THROW(make_model_bundle(e.data, e.prepared, *unfitted), Error);
}

TEST(ModelBundle, RefusesUnfittedTransforms) {
  const ServingFixture& e = env();
  PreparedSplit bare;  // default transforms: never fitted
  bare.train_x = e.prepared.train_x;
  EXPECT_THROW(make_model_bundle(e.data, bare, *e.model), Error);
}

TEST(ModelBundle, RejectsWrongMagic) {
  std::string bytes = env().bundle_a;
  bytes[0] ^= 0x01;
  EXPECT_THROW(bundle_from_bytes(bytes), Error);
}

TEST(ModelBundle, RejectsUnsupportedVersion) {
  std::string bytes = env().bundle_a;
  bytes[8] = static_cast<char>(0x7E);  // version u64 little-endian low byte
  try {
    bundle_from_bytes(bytes);
    FAIL() << "corrupt version accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("version"), std::string::npos);
  }
}

TEST(ModelBundle, RejectsTruncationAtEveryStage) {
  const std::string& bytes = env().bundle_a;
  ASSERT_GT(bytes.size(), 64u);
  for (const std::size_t cut :
       {std::size_t{4}, std::size_t{12}, bytes.size() / 4, bytes.size() / 2,
        (3 * bytes.size()) / 4, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW(bundle_from_bytes(bytes.substr(0, cut)), Error)
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(ModelBundle, RejectsBitFlippedLengthPrefix) {
  // Corrupt the length prefix of the first feature-name string to a value
  // far beyond the archive size: the hardened reader must reject it before
  // attempting the allocation.
  const ServingFixture& e = env();
  std::string bytes = e.bundle_a;
  const std::string& first_name = e.data.features.names.front();
  const std::size_t at = bytes.find(first_name);
  ASSERT_NE(at, std::string::npos);
  ASSERT_GE(at, 8u);
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[at - 8 + b] = static_cast<char>(0xFF);
  }
  try {
    bundle_from_bytes(bytes);
    FAIL() << "oversized length prefix accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("offset"), std::string::npos)
        << err.what();
  }
}

// ------------------------------------------------ ArchiveReader limits ---

TEST(ArchiveReader, HugeLengthsRejectedBeforeAllocation) {
  const auto corrupt_stream = [](std::uint64_t fake_len) {
    auto ss = std::make_unique<std::stringstream>(
        std::ios::in | std::ios::out | std::ios::binary);
    ArchiveWriter w(*ss);
    w.write_u64(fake_len);
    w.write_double(1.0);  // a few real bytes, far fewer than claimed
    return ss;
  };
  {
    auto ss = corrupt_stream(1ULL << 60);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_doubles(), Error);
  }
  {
    auto ss = corrupt_stream(1ULL << 60);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_string(), Error);
  }
  {
    auto ss = corrupt_stream(1ULL << 60);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_ints(), Error);
  }
  {
    // read_matrix: rows * cols would overflow 64 bits entirely.
    auto ss = std::make_unique<std::stringstream>(
        std::ios::in | std::ios::out | std::ios::binary);
    ArchiveWriter w(*ss);
    w.write_u64(1ULL << 40);
    w.write_u64(1ULL << 40);
    ArchiveReader r(*ss);
    EXPECT_THROW(r.read_matrix(), Error);
  }
}

TEST(ArchiveReader, ErrorNamesTheOffendingOffset) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ArchiveWriter w(ss);
  w.write_u64(123456789);  // claims ~1 GB of doubles; stream has none
  ArchiveReader r(ss);
  try {
    r.read_doubles();
    FAIL() << "oversized vector accepted";
  } catch (const Error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find("123456789"), std::string::npos) << what;
  }
}

// ----------------------------------------------------- DiagnosisService ---

// Serves fresh windows through `e`'s random-forest bundle and checks every
// probability against the offline pipeline bit for bit.
void expect_service_matches_offline(const ServingFixture& e) {
  const std::vector<Sample> samples = fresh_samples(e, 4, 777);
  std::vector<Matrix> windows;
  for (const Sample& s : samples) windows.push_back(s.series);

  DiagnosisService service(bundle_from_bytes(e.bundle_a));
  std::vector<Diagnosis> diagnoses;
  for (const Matrix& w : windows) {
    const DiagnosisResult r = service.diagnose({&w});
    ASSERT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
    diagnoses.push_back(r.diagnosis);
  }
  const Matrix reference = offline_probs(e, samples);

  ASSERT_EQ(diagnoses.size(), windows.size());
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    ASSERT_EQ(diagnoses[i].probs.size(),
              static_cast<std::size_t>(kNumClasses));
    EXPECT_EQ(diagnoses[i].label, argmax_label(reference.row(i)));
    for (std::size_t c = 0; c < diagnoses[i].probs.size(); ++c) {
      EXPECT_EQ(diagnoses[i].probs[c], reference(i, c))
          << "window " << i << " class " << c;
    }
    EXPECT_EQ(diagnoses[i].confidence,
              diagnoses[i].probs[static_cast<std::size_t>(
                  diagnoses[i].label)]);
  }

  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, windows.size());
  EXPECT_EQ(s.cache_misses, windows.size());  // all distinct, cold cache
  EXPECT_GT(s.windows_per_second(), 0.0);
}

TEST(DiagnosisService, BitIdenticalToOfflinePipeline) {
  expect_service_matches_offline(env());
}

TEST(DiagnosisService, BitIdenticalToOfflinePipelineOnATsfreshBundle) {
  static const ServingFixture* tsfresh = [] {
    DatasetConfig cfg = tiny_config();
    cfg.extractor = ExtractorKind::Tsfresh;
    return train_serving_fixture(cfg);
  }();
  ASSERT_EQ(bundle_from_bytes(tsfresh->bundle_a).features.extractor,
            ExtractorKind::Tsfresh);
  expect_service_matches_offline(*tsfresh);
}

TEST(DiagnosisService, CachesRepeatedWindows) {
  const ServingFixture& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 881);
  DiagnosisService service(bundle_from_bytes(e.bundle_a));

  const DiagnosisResult first = service.diagnose({&samples[0].series});
  ASSERT_TRUE(first.ok()) << to_string(first.status) << ": " << first.error;
  EXPECT_FALSE(first.diagnosis.cache_hit);
  const DiagnosisResult again = service.diagnose({&samples[0].series});
  ASSERT_TRUE(again.ok()) << to_string(again.status) << ": " << again.error;
  EXPECT_TRUE(again.diagnosis.cache_hit);
  EXPECT_EQ(again.diagnosis.label, first.diagnosis.label);
  EXPECT_EQ(again.diagnosis.probs, first.diagnosis.probs);

  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);

  service.reset_stats();
  EXPECT_EQ(service.stats().windows, 0u);
}

TEST(DiagnosisService, CacheCapacityZeroDisablesCaching) {
  const ServingFixture& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 883);
  ServingConfig serving;
  serving.cache_capacity = 0;
  DiagnosisService service(bundle_from_bytes(e.bundle_a), serving);
  const DiagnosisResult first = service.diagnose({&samples[0].series});
  ASSERT_TRUE(first.ok()) << to_string(first.status) << ": " << first.error;
  const DiagnosisResult again = service.diagnose({&samples[0].series});
  ASSERT_TRUE(again.ok()) << to_string(again.status) << ": " << again.error;
  EXPECT_FALSE(again.diagnosis.cache_hit);
  // Same answer, recomputed.
  EXPECT_EQ(again.diagnosis.probs, first.diagnosis.probs);
}

TEST(DiagnosisService, RejectsMalformedWindows) {
  const ServingFixture& e = env();
  DiagnosisService service(bundle_from_bytes(e.bundle_a));
  const Matrix wrong_metrics(40, 3);
  const DiagnosisResult metrics = service.diagnose({&wrong_metrics});
  EXPECT_EQ(metrics.status, RequestStatus::Failed);
  EXPECT_NE(metrics.error.find("3 metrics, registry has"), std::string::npos)
      << metrics.error;
  const Matrix too_short(2, service.registry().size());  // T <= trim
  const DiagnosisResult trim = service.diagnose({&too_short});
  EXPECT_EQ(trim.status, RequestStatus::Failed);
  EXPECT_NE(trim.error.find("too short (2) for trim"), std::string::npos)
      << trim.error;
}

TEST(DiagnosisService, LabelNamesComeFromTheBundle) {
  DiagnosisService service(bundle_from_bytes(env().bundle_a));
  EXPECT_EQ(service.label_name(0), "healthy");
  EXPECT_EQ(service.label_name(kNumClasses - 1), "dial");
  EXPECT_THROW(service.label_name(-1), Error);
  EXPECT_THROW(service.label_name(kNumClasses), Error);
}

TEST(DiagnosisService, HashWindowDistinguishesContentAndShape) {
  Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  Matrix b = a;
  EXPECT_EQ(hash_window(a), hash_window(b));
  b(1, 1) = 4.0000000001;
  EXPECT_NE(hash_window(a), hash_window(b));
  const Matrix flat = Matrix::from_rows({{1.0, 2.0, 3.0, 4.0}});
  EXPECT_NE(hash_window(a), hash_window(flat));
}

TEST(DiagnosisService, HashWindowSeesShapeBeyondTheBytes) {
  // Same cells in the same memory order, different shapes.
  const std::vector<double> cells{1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                                  7.0, 8.0, 9.0, 10.0, 11.0, 12.0};
  const auto shaped = [&](std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    std::copy(cells.begin(), cells.end(), m.data());
    return hash_window(m);
  };
  const std::uint64_t h2x6 = shaped(2, 6);
  EXPECT_NE(h2x6, shaped(6, 2));
  EXPECT_NE(h2x6, shaped(3, 4));
  EXPECT_NE(h2x6, shaped(12, 1));
  EXPECT_NE(shaped(3, 4), shaped(4, 3));
  EXPECT_NE(hash_window(Matrix(0, 3)), hash_window(Matrix(3, 0)));
}

TEST(DiagnosisService, HashWindowHashesNaNsByPayload) {
  const auto with_bits = [](std::uint64_t bits) {
    Matrix m(3, 5, 1.5);
    std::memcpy(&m(1, 2), &bits, sizeof(bits));
    return m;
  };
  const std::uint64_t quiet = 0x7FF8000000000000ULL;
  const std::uint64_t payload = 0x7FF8000000000123ULL;
  const std::uint64_t negative = 0xFFF8000000000000ULL;
  ASSERT_TRUE(std::isnan(with_bits(payload)(1, 2)));
  EXPECT_EQ(hash_window(with_bits(quiet)), hash_window(with_bits(quiet)));
  EXPECT_NE(hash_window(with_bits(quiet)), hash_window(with_bits(payload)));
  EXPECT_NE(hash_window(with_bits(quiet)), hash_window(with_bits(negative)));
  EXPECT_NE(hash_window(with_bits(payload)),
            hash_window(with_bits(negative)));
}

TEST(DiagnosisService, HashWindowAvalanchesEverySingleBitFlip) {
  // Flipping any one bit of any cell flips about half the hash bits, so
  // consistent-hash routing and the cache key spread near-identical
  // windows (e.g. the sign of one cell) over the whole 64-bit space.
  Matrix base(7, 5);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base.data()[i] = 100.0 + 0.37 * static_cast<double>(i);
  }
  const std::uint64_t h0 = hash_window(base);
  std::size_t total = 0;
  std::size_t flips = 0;
  int fewest = 64;
  for (const std::size_t cell : {std::size_t{0}, std::size_t{17},
                                 base.size() - 1}) {
    for (int bit = 0; bit < 64; ++bit) {
      Matrix m = base;
      std::uint64_t bits = 0;
      std::memcpy(&bits, m.data() + cell, sizeof(bits));
      bits ^= std::uint64_t{1} << bit;
      std::memcpy(m.data() + cell, &bits, sizeof(bits));
      const int changed = std::popcount(h0 ^ hash_window(m));
      total += static_cast<std::size_t>(changed);
      fewest = std::min(fewest, changed);
      ++flips;
    }
  }
  const double mean = static_cast<double>(total) / static_cast<double>(flips);
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
  EXPECT_GE(fewest, 14);
}

// --------------------------------------------------------- ServingStats ---

TEST(ServingStats, PercentilesOnZeroAndOneSample) {
  EXPECT_DOUBLE_EQ(latency_percentile({}, 0.50), 0.0);
  EXPECT_DOUBLE_EQ(latency_percentile({}, 0.99), 0.0);
  const double one[] = {7.25};
  EXPECT_DOUBLE_EQ(latency_percentile(one, 0.0), 7.25);
  EXPECT_DOUBLE_EQ(latency_percentile(one, 0.50), 7.25);
  EXPECT_DOUBLE_EQ(latency_percentile(one, 0.99), 7.25);
  EXPECT_DOUBLE_EQ(latency_percentile(one, 1.0), 7.25);
  // Out-of-range quantiles clamp instead of indexing out of bounds.
  const double two[] = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(latency_percentile(two, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(latency_percentile(two, 1.5), 3.0);
}

// ------------------------------------------------------- OutcomeWindow ---

TEST(OutcomeWindow, OverwriteKeepsExactlyTheNewestN) {
  OutcomeWindow w(4);
  for (int i = 1; i <= 10; ++i) w.record(i, i % 2 == 0);
  EXPECT_EQ(w.size(), 4u);
  std::vector<double> held(w.samples().begin(), w.samples().end());
  std::sort(held.begin(), held.end());
  EXPECT_EQ(held, (std::vector<double>{7.0, 8.0, 9.0, 10.0}));
  // Of 7..10 only 8 and 10 failed: evicted failures no longer count.
  EXPECT_EQ(w.error_rate(), 0.5);
}

TEST(OutcomeWindow, ErrorRateOnZeroOneAndNSamples) {
  OutcomeWindow w(8);
  EXPECT_EQ(w.error_rate(), 0.0);
  w.record(1.0, true);
  EXPECT_EQ(w.error_rate(), 1.0);
  for (int i = 0; i < 7; ++i) w.record(1.0, false);
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w.error_rate(), 1.0 / 8.0);
  w.record(1.0, false);  // overwrites the one failure
  EXPECT_EQ(w.error_rate(), 0.0);
}

TEST(OutcomeWindow, PercentileIsLatencyPercentileOverTheNewestN) {
  constexpr std::size_t kN = 16;
  OutcomeWindow w(kN);
  std::vector<double> all;
  for (int i = 0; i < 53; ++i) {
    const double ms = std::fmod(i * 7.31, 13.7) + 0.001 * i;
    all.push_back(ms);
    w.record(ms, i % 5 == 0);
  }
  const std::span<const double> newest(all.data() + all.size() - kN, kN);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(w.percentile(q), latency_percentile(newest, q)) << "q " << q;
  }
}

TEST(OutcomeWindow, ClearEmptiesTheWindowAsOnReadmit) {
  OutcomeWindow w(4);
  for (int i = 0; i < 6; ++i) w.record(5.0, true);
  EXPECT_TRUE(w.breached(4, 0.5, 0.0));
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.error_rate(), 0.0);
  EXPECT_EQ(w.percentile(0.99), 0.0);
  EXPECT_FALSE(w.breached(1, 0.0, 0.0));
  // The first outcome after a clear is the whole window, and the ring
  // refills to capacity as before.
  w.record(2.0, false);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.percentile(0.99), 2.0);
  for (int i = 0; i < 9; ++i) w.record(3.0, false);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.error_rate(), 0.0);
}

TEST(OutcomeWindow, BreachedAtEachThresholdEdge) {
  OutcomeWindow w(4);
  w.record(2.0, true);
  w.record(2.0, false);
  w.record(2.0, false);
  // Under min_samples nothing trips, however bad the window looks.
  EXPECT_FALSE(w.breached(4, 0.0, 1.0));
  EXPECT_TRUE(w.breached(3, 0.0, 0.0));
  w.record(2.0, false);  // 4 samples, error rate exactly 0.25, p99 2.0
  EXPECT_FALSE(w.breached(4, 0.25, 0.0));  // strict > on the error rate
  EXPECT_TRUE(w.breached(4, 0.2499, 0.0));
  EXPECT_FALSE(w.breached(4, 1.0, 2.0));   // strict > on the p99
  EXPECT_TRUE(w.breached(4, 1.0, 1.999));
  // A max_p99_ms of 0 disables the latency trip entirely.
  for (int i = 0; i < 4; ++i) w.record(1e6, false);
  EXPECT_FALSE(w.breached(4, 0.0, 0.0));
  EXPECT_TRUE(w.breached(4, 0.0, 1.0));
}

TEST(ServingStats, CountersAccumulateWithoutLoss) {
  const ServingFixture& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 991);
  DiagnosisService service(bundle_from_bytes(e.bundle_a));
  // Many small requests: every window must land in the counters exactly
  // once, and the stats snapshot must agree with itself.
  constexpr std::uint64_t kWindows = 64;
  for (std::uint64_t i = 0; i < kWindows; ++i) {
    service.diagnose({&samples[i % samples.size()].series});
  }
  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, kWindows);
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.windows);
  EXPECT_EQ(s.cache_misses, samples.size());  // each distinct window once
  EXPECT_GE(s.total_seconds, s.predict_seconds);
  EXPECT_GT(s.latency_p99_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  // Tail and floor order correctly: min <= p50 <= p99 <= p99.9.
  EXPECT_GE(s.latency_p999_ms, s.latency_p99_ms);
  EXPECT_GT(s.latency_min_ms, 0.0);
  EXPECT_LE(s.latency_min_ms, s.latency_p50_ms);
}

TEST(ServingStats, SnapshotIsConsistentUnderConcurrentDiagnose) {
  const ServingFixture& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 992);
  DiagnosisService service(bundle_from_bytes(e.bundle_a));
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const ServingStats s = service.stats();
      // Snapshot invariants must hold at every instant, not just at rest.
      if (s.cache_hits + s.cache_misses != s.windows) violations++;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        service.diagnose({&samples[(t + i) % samples.size()].series});
      }
    });
  }
  for (auto& w : writers) w.join();
  stop = true;
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(service.stats().windows, 36u);
}

TEST(ServingStats, CsvExporterMatchesRoundStatsConvention) {
  ServingStats a;
  a.windows = 5;
  a.cache_hits = 1;
  a.cache_misses = 4;
  a.total_seconds = 0.5;
  std::vector<std::pair<std::string, ServingStats>> rows;
  rows.emplace_back("threads=2", a);
  rows.emplace_back("threads=4", ServingStats{});
  std::ostringstream os;
  write_serving_stats_csv(os, rows);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, serving_stats_csv_header());
  EXPECT_EQ(line,
            "label,windows,cache_hits,cache_misses,collision_evictions,"
            "extract_seconds,predict_seconds,total_seconds,wall_seconds,"
            "windows_per_second,latency_p50_ms,latency_p99_ms,"
            "latency_p999_ms,latency_min_ms");
  // Header and rows agree on column count, and the label leads each row.
  const auto columns = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',') + 1;
  };
  const auto header_cols = columns(line);
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(columns(line), header_cols);
  EXPECT_EQ(columns(line), 14);
  EXPECT_EQ(line.rfind("threads=2,5,1,4,", 0), 0u);
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(columns(line), header_cols);
  EXPECT_FALSE(std::getline(is, line));
}

// -------------------------------------------------------- WindowCache ---

Diagnosis labeled_diagnosis(int label) {
  Diagnosis d;
  d.label = label;
  d.confidence = 1.0;
  d.probs = {label == 0 ? 1.0 : 0.0, label == 0 ? 0.0 : 1.0};
  return d;
}

// The collision regression: two distinct windows sharing a 64-bit content
// hash must never be served each other's diagnosis. Real FNV collisions
// are infeasible to craft, so the cache is probed with synthetic keys.
TEST(WindowCache, HashCollisionIsAVerifiedMissNotAWrongAnswer) {
  WindowKey a{42, 4, 2, 111, 222};
  WindowKey b{42, 4, 2, 999, 222};  // same hash, different first cell
  ASSERT_FALSE(a.matches(b));

  WindowCache cache(8);
  cache.insert(a, labeled_diagnosis(0));
  Diagnosis out;
  ASSERT_TRUE(cache.lookup(a, out));
  EXPECT_EQ(out.label, 0);
  EXPECT_TRUE(out.cache_hit);

  // Before the fix this returned window a's diagnosis for window b.
  EXPECT_FALSE(cache.lookup(b, out));
  EXPECT_EQ(cache.collision_evictions(), 0u);

  // Inserting the collider evicts the disproved entry and counts it.
  cache.insert(b, labeled_diagnosis(1));
  EXPECT_EQ(cache.collision_evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(b, out));
  EXPECT_EQ(out.label, 1);
  EXPECT_FALSE(cache.lookup(a, out));  // the evicted original
}

TEST(WindowCache, LruEvictionRespectsLookupRecency) {
  const WindowKey k1{1, 1, 1, 0, 0};
  const WindowKey k2{2, 1, 1, 0, 0};
  const WindowKey k3{3, 1, 1, 0, 0};
  WindowCache cache(2);
  cache.insert(k1, labeled_diagnosis(0));
  cache.insert(k2, labeled_diagnosis(1));
  Diagnosis out;
  ASSERT_TRUE(cache.lookup(k1, out));  // refresh k1: k2 is now oldest
  cache.insert(k3, labeled_diagnosis(0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(k1, out));
  EXPECT_FALSE(cache.lookup(k2, out));
  EXPECT_TRUE(cache.lookup(k3, out));
  EXPECT_EQ(cache.collision_evictions(), 0u);  // capacity, not collision
}

TEST(WindowCache, CapacityZeroDropsEverything) {
  WindowCache cache(0);
  const WindowKey k{7, 1, 1, 0, 0};
  cache.insert(k, labeled_diagnosis(1));
  Diagnosis out;
  EXPECT_FALSE(cache.lookup(k, out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(WindowCache, WindowKeyCarriesShapeAndBoundaryCells) {
  Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const WindowKey k = window_key(m);
  EXPECT_EQ(k.rows, 2u);
  EXPECT_EQ(k.cols, 2u);
  EXPECT_EQ(k.hash, hash_window(m));
  EXPECT_TRUE(k.matches(window_key(m)));

  Matrix changed = m;
  changed(1, 1) = 5.0;  // last cell differs -> verifier differs too
  EXPECT_FALSE(k.matches(window_key(changed)));
  EXPECT_NE(k.last_bits, window_key(changed).last_bits);

  const WindowKey empty = window_key(Matrix(0, 0));
  EXPECT_EQ(empty.first_bits, 0u);
  EXPECT_EQ(empty.last_bits, 0u);
}

// ------------------------------------------- wall-clock throughput ---

// The throughput regression: windows_per_second() used to divide by
// per-request time summed across workers, so concurrent serving reported
// a fraction of its real throughput. Sleeping in the extraction hook makes
// the overlap deterministic: 4 threads sleeping 5ms each overlap even on
// one core, so summed time must clearly exceed the wall-clock span.
TEST(ServingStats, ThroughputUsesWallClockSpanNotSummedWorkerTime) {
  const ServingFixture& e = env();
  constexpr int kThreads = 4;
  std::vector<std::vector<Matrix>> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (const Sample& s : fresh_samples(e, 2, 900 + t)) {
      per_thread[t].push_back(s.series);
    }
  }

  ServingConfig serving;
  serving.extraction_hook = [](const Matrix&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  DiagnosisService service(bundle_from_bytes(e.bundle_a), serving);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Matrix& w : per_thread[t]) (void)service.diagnose({&w});
    });
  }
  for (auto& th : threads) th.join();

  const ServingStats s = service.stats();
  EXPECT_GT(s.wall_seconds, 0.0);
  // All windows were distinct, so every request slept in extraction; the
  // summed time is ~4x the span when the threads overlap.
  EXPECT_LT(s.wall_seconds, 0.8 * s.total_seconds);
  EXPECT_DOUBLE_EQ(s.windows_per_second(),
                   static_cast<double>(s.windows) / s.wall_seconds);
  // The old computation would have under-reported throughput:
  EXPECT_GT(s.windows_per_second(),
            static_cast<double>(s.windows) / s.total_seconds);
}

TEST(ServingStats, HandBuiltSnapshotsFallBackToSummedTime) {
  ServingStats s;
  s.windows = 10;
  s.total_seconds = 2.0;
  EXPECT_DOUBLE_EQ(s.windows_per_second(), 5.0);  // no wall span recorded
  s.wall_seconds = 0.5;
  EXPECT_DOUBLE_EQ(s.windows_per_second(), 20.0);  // wall span wins
}

TEST(ServingStats, ResetClearsTheWallClockSpan) {
  const ServingFixture& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 1, 885);
  DiagnosisService service(bundle_from_bytes(e.bundle_a));
  (void)service.diagnose({&samples[0].series});
  EXPECT_GT(service.stats().wall_seconds, 0.0);
  service.reset_stats();
  EXPECT_DOUBLE_EQ(service.stats().wall_seconds, 0.0);
  (void)service.diagnose({&samples[0].series});
  EXPECT_GT(service.stats().wall_seconds, 0.0);
}

// ----------------------------------------------- CSV label escaping ---

// A sweep label with an embedded comma and quote must survive a full
// write -> parse round trip instead of shearing the columns.
TEST(ServingStats, CsvLabelsWithCommasSurviveParseBack) {
  ServingStats a;
  a.windows = 4;
  a.cache_misses = 4;
  a.total_seconds = 0.25;
  a.wall_seconds = 0.125;
  a.latency_p999_ms = 7.5;
  a.latency_min_ms = 0.25;
  const std::string tricky = "threads=4,cache=0,\"hot\" pool";
  std::vector<std::pair<std::string, ServingStats>> rows;
  rows.emplace_back(tricky, a);
  rows.emplace_back("plain", ServingStats{});

  const std::string path = "/tmp/alba_serving_stats_csv_test.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_serving_stats_csv(out, rows);
  }
  const CsvTable table = read_csv(path);  // throws on ragged rows
  std::remove(path.c_str());

  ASSERT_EQ(table.rows.size(), 2u);
  ASSERT_EQ(table.header.size(), 14u);
  EXPECT_EQ(table.rows[0].size(), table.header.size());
  EXPECT_EQ(table.rows[0][table.column_index("label")], tricky);
  EXPECT_EQ(table.rows[0][table.column_index("windows")], "4");
  EXPECT_EQ(table.rows[0][table.column_index("wall_seconds")], "0.125000");
  EXPECT_EQ(table.rows[0][table.column_index("collision_evictions")], "0");
  EXPECT_EQ(table.rows[0][table.column_index("latency_p999_ms")], "7.5000");
  EXPECT_EQ(table.rows[0][table.column_index("latency_min_ms")], "0.2500");
  EXPECT_EQ(table.rows[1][table.column_index("label")], "plain");
}

// ---------------------------------------------------- fleet roll-up ---

TEST(ServingStats, MergeSumsCountersAndWeightsPercentilesByWindows) {
  ServingStats a;
  a.windows = 3;
  a.cache_hits = 1;
  a.cache_misses = 2;
  a.extract_seconds = 0.5;
  a.predict_seconds = 0.25;
  a.total_seconds = 1.0;
  a.wall_seconds = 2.0;
  a.latency_p50_ms = 10.0;
  a.latency_p99_ms = 20.0;
  a.latency_p999_ms = 40.0;
  a.latency_min_ms = 5.0;
  ServingStats b;
  b.windows = 1;
  b.cache_misses = 1;
  b.collision_evictions = 2;
  b.extract_seconds = 0.1;
  b.total_seconds = 0.2;
  b.wall_seconds = 3.0;  // replicas overlap: max, not sum
  b.latency_p50_ms = 2.0;
  b.latency_p99_ms = 4.0;
  b.latency_p999_ms = 8.0;
  b.latency_min_ms = 1.0;
  ServingStats idle;  // zero windows: must contribute nothing
  idle.latency_min_ms = 0.0;  // and must not drag the fleet minimum to 0

  const std::vector<ServingStats> parts{a, b, idle};
  const ServingStats m = merge_serving_stats(parts);
  EXPECT_EQ(m.windows, 4u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 3u);
  EXPECT_EQ(m.collision_evictions, 2u);
  EXPECT_DOUBLE_EQ(m.extract_seconds, 0.6);
  EXPECT_DOUBLE_EQ(m.predict_seconds, 0.25);
  EXPECT_DOUBLE_EQ(m.total_seconds, 1.2);
  EXPECT_DOUBLE_EQ(m.wall_seconds, 3.0);
  // Window-weighted: (3*10 + 1*2 + 0*anything) / 4.
  EXPECT_DOUBLE_EQ(m.latency_p50_ms, 8.0);
  EXPECT_DOUBLE_EQ(m.latency_p99_ms, 16.0);
  EXPECT_DOUBLE_EQ(m.latency_p999_ms, 32.0);  // (3*40 + 1*8) / 4
  // Min composes exactly: smallest over replicas that served windows,
  // so the idle replica's 0 does not leak in.
  EXPECT_DOUBLE_EQ(m.latency_min_ms, 1.0);

  // All-idle merge: no weight, percentiles stay 0 instead of NaN.
  const std::vector<ServingStats> idles{idle, idle};
  const ServingStats z = merge_serving_stats(idles);
  EXPECT_EQ(z.windows, 0u);
  EXPECT_DOUBLE_EQ(z.latency_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_p999_ms, 0.0);
  EXPECT_DOUBLE_EQ(z.latency_min_ms, 0.0);
}

// Per-replica rows plus the trailing fleet-aggregate row must survive an
// RFC-4180 round trip, tricky replica labels included.
TEST(ServingStats, FleetCsvParseBackIncludesAggregateRow) {
  ServingStats a;
  a.windows = 2;
  a.cache_hits = 1;
  a.cache_misses = 1;
  a.total_seconds = 0.5;
  a.latency_p50_ms = 4.0;
  a.latency_p99_ms = 8.0;
  a.latency_p999_ms = 16.0;
  a.latency_min_ms = 2.0;
  ServingStats b;
  b.windows = 6;
  b.cache_misses = 6;
  b.total_seconds = 0.25;
  b.latency_p50_ms = 1.0;
  b.latency_p99_ms = 2.0;
  b.latency_p999_ms = 4.0;
  b.latency_min_ms = 0.5;
  std::vector<std::pair<std::string, ServingStats>> replicas;
  replicas.emplace_back("replica=0,zone=\"a\"", a);  // comma + quote
  replicas.emplace_back("replica=1", b);

  const std::string path = "/tmp/alba_fleet_stats_csv_test.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    write_fleet_serving_csv(out, replicas);
  }
  const CsvTable table = read_csv(path);  // throws on ragged rows
  std::remove(path.c_str());

  ASSERT_EQ(table.rows.size(), 3u);  // 2 replicas + the fleet roll-up
  EXPECT_EQ(table.rows[0][table.column_index("label")],
            "replica=0,zone=\"a\"");
  EXPECT_EQ(table.rows[1][table.column_index("label")], "replica=1");
  EXPECT_EQ(table.rows[2][table.column_index("label")], "fleet");
  EXPECT_EQ(table.rows[2][table.column_index("windows")], "8");
  EXPECT_EQ(table.rows[2][table.column_index("cache_hits")], "1");
  // Weighted p50: (2*4 + 6*1) / 8 = 1.75.
  EXPECT_EQ(table.rows[2][table.column_index("latency_p50_ms")], "1.7500");
  // Weighted p99.9: (2*16 + 6*4) / 8 = 7; min: min(2.0, 0.5).
  EXPECT_EQ(table.rows[2][table.column_index("latency_p999_ms")], "7.0000");
  EXPECT_EQ(table.rows[2][table.column_index("latency_min_ms")], "0.5000");
}

// ------------------------------------------------------- atomic save ---

TEST(ModelBundle, SaveIsAtomicViaTempFileRename) {
  const ServingFixture& e = env();
  const std::string path = "/tmp/alba_bundle_atomic_test.bin";
  export_model_bundle(path, e.data, e.prepared, *e.model);
  // The temp file must be gone after a successful save...
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  // ...and the renamed-in-place file must be a loadable bundle.
  const ModelBundle restored = load_model_bundle_file(path);
  expect_bit_identical(restored.model->predict_proba(e.prepared.test_x),
                       e.model->predict_proba(e.prepared.test_x));
  std::remove(path.c_str());
}

TEST(ModelBundle, SaveFailureCarriesErrno) {
  const ServingFixture& e = env();
  const ModelBundle bundle = bundle_from_bytes(e.bundle_a);
  try {
    save_model_bundle_file("/nonexistent_dir/bundle.bin", bundle);
    FAIL() << "save into a missing directory succeeded";
  } catch (const Error& err) {
    // The message must carry the OS reason, not just "cannot open".
    EXPECT_NE(std::string(err.what()).find("No such file or directory"),
              std::string::npos)
        << err.what();
  }
}

// The TSan target: concurrent diagnose/stats on one shared service must be
// race-free and answer every thread bit-identically.
TEST(DiagnosisService, ConcurrentDiagnoseIsThreadSafe) {
  const ServingFixture& e = env();
  const std::vector<Sample> samples = fresh_samples(e, 2, 884);
  std::vector<Matrix> windows;
  for (const Sample& s : samples) windows.push_back(s.series);

  // A 2-entry cache over 4 distinct windows keeps eviction, insertion, and
  // the extraction path all active under contention.
  ServingConfig serving;
  serving.cache_capacity = 2;
  DiagnosisService service(bundle_from_bytes(e.bundle_a), serving);
  DiagnosisService fresh(bundle_from_bytes(e.bundle_a));
  std::vector<Diagnosis> reference;
  for (const Matrix& w : windows) {
    const DiagnosisResult r = fresh.diagnose({&w});
    ASSERT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
    reference.push_back(r.diagnosis);
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::size_t i =
            static_cast<std::size_t>(t + it) % windows.size();
        const DiagnosisResult r = service.diagnose({&windows[i]});
        if (!r.ok() || r.diagnosis.probs != reference[i].probs ||
            r.diagnosis.label != reference[i].label) {
          mismatches.fetch_add(1);
        }
        if (it % 3 == 0) (void)service.stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServingStats s = service.stats();
  EXPECT_EQ(s.windows, static_cast<std::size_t>(kThreads * kIters));
}

}  // namespace
}  // namespace alba
