// Microbenchmarks for the telemetry + feature-extraction substrates: node
// simulation throughput, preprocessing, and per-series cost of the MVTS and
// TSFRESH-like extractors (including the O(n²) entropy features that
// dominate TSFRESH), full set vs a compiled plan of a few selected features.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "features/extractor.hpp"
#include "stats/entropy.hpp"
#include "stats/fft.hpp"
#include "stats/welch.hpp"

namespace {

using namespace alba;

RegistryConfig bench_registry() {
  RegistryConfig cfg;
  cfg.cores = 8;
  return cfg;
}

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(0.0, 100.0);
  return x;
}

void BM_NodeSimulate(benchmark::State& state) {
  const MetricRegistry registry(SystemKind::Volta, bench_registry());
  NodeSimConfig cfg;
  cfg.duration_steps = static_cast<int>(state.range(0));
  const NodeSimulator sim(registry, cfg);
  const auto apps = volta_applications();
  const InputDeck deck = make_input_deck(0, 0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(apps[0], deck, 0, nullptr, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(registry.size()));
}
BENCHMARK(BM_NodeSimulate)->Arg(96)->Arg(600);

void BM_PreprocessSeries(benchmark::State& state) {
  const MetricRegistry registry(SystemKind::Volta, bench_registry());
  NodeSimConfig cfg;
  cfg.duration_steps = static_cast<int>(state.range(0));
  const NodeSimulator sim(registry, cfg);
  const auto apps = volta_applications();
  Rng rng(1);
  const Matrix raw = sim.simulate(apps[0], make_input_deck(0, 0), 0, nullptr, rng);
  const PreprocessConfig pp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(preprocess_series(raw, registry, pp));
  }
}
BENCHMARK(BM_PreprocessSeries)->Arg(96)->Arg(600);

void BM_MvtsExtract(benchmark::State& state) {
  const MvtsExtractor mvts;
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 2);
  std::vector<double> out(mvts.num_features());
  for (auto _ : state) {
    mvts.extract(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mvts.num_features()));
}
BENCHMARK(BM_MvtsExtract)->Arg(89)->Arg(589);

void BM_TsfreshExtract(benchmark::State& state) {
  const TsfreshExtractor ts;
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<double> out(ts.num_features());
  for (auto _ : state) {
    ts.extract(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ts.num_features()));
}
BENCHMARK(BM_TsfreshExtract)->Arg(89)->Arg(589);

// A compiled FeaturePlan on one 52-point metric column (a Volta serving
// window after trimming): range(0) picks the extractor (0 MVTS,
// 1 TSFRESH), range(1) the selection — 10 evenly spaced features, the
// scale of one metric's share of a served bundle, or 0 for the full set
// (what FeatureExtractor::extract runs).
void BM_PlanExtract(benchmark::State& state) {
  const auto extractor =
      make_extractor(state.range(0) == 0 ? ExtractorKind::Mvts
                                         : ExtractorKind::Tsfresh);
  const std::size_t f = extractor->num_features();
  const auto k = static_cast<std::size_t>(state.range(1));
  std::vector<std::size_t> indices(k == 0 ? f : k);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i * f / indices.size();
  }
  const FeaturePlan plan = extractor->plan(indices);
  const auto x = random_series(52, 6);
  std::vector<double> out(plan.size());
  FeatureScratch scratch;
  for (auto _ : state) {
    plan.run(x, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(extractor->name() + (k == 0 ? " all" : " selected"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.size()));
}
BENCHMARK(BM_PlanExtract)->ArgsProduct({{0, 1}, {10, 0}});

void BM_ApproximateEntropy(benchmark::State& state) {
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::approximate_entropy(x));
  }
}
BENCHMARK(BM_ApproximateEntropy)->Arg(64)->Arg(128)->Arg(256);

// fft_real of a 52-point series (one Volta serving window's metric
// column, padded to 64) and of a 600-point run (padded to 1024).
void BM_FftReal(benchmark::State& state) {
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fft_real(x));
  }
}
BENCHMARK(BM_FftReal)->Arg(52)->Arg(600);

void BM_WelchPsd(benchmark::State& state) {
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::welch_psd(x, 64));
  }
}
BENCHMARK(BM_WelchPsd)->Arg(96)->Arg(600);

}  // namespace
