/// Microbenchmarks (google-benchmark) for the hot substrate paths: coalition
/// ops, subset enumeration, utility-cache lookups, model gradient steps,
/// FedAvg aggregation, and the thread-scaling of batched coalition
/// evaluation. These are the per-evaluation costs that the charged time
/// model sits on top of.

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "core/ipss.h"
#include "data/synthetic.h"
#include "fl/server.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "ml/cnn.h"
#include "ml/mlp.h"
#include "util/combinatorics.h"
#include "util/coalition.h"
#include "util/thread_pool.h"

namespace fedshap {
namespace {

void BM_CoalitionCountAndHash(benchmark::State& state) {
  Coalition c = Coalition::Full(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.Count());
    benchmark::DoNotOptimize(c.Hash());
  }
}
BENCHMARK(BM_CoalitionCountAndHash)->Arg(10)->Arg(100);

void BM_SubsetEnumeration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    int count = 0;
    ForEachSubsetOfSize(n, n / 2, [&](const Coalition& c) {
      benchmark::DoNotOptimize(c);
      ++count;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SubsetEnumeration)->Arg(10)->Arg(16);

void BM_UtilityCacheHit(benchmark::State& state) {
  LinearRegressionUtility::Params params;
  params.num_clients = 10;
  LinearRegressionUtility fn(params);
  UtilityCache cache(&fn);
  Coalition c = Coalition::Of({1, 3, 5});
  benchmark::DoNotOptimize(cache.Get(c));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(c));
  }
}
BENCHMARK(BM_UtilityCacheHit);

void BM_MlpGradientStep(benchmark::State& state) {
  Rng rng(1);
  Result<Dataset> data = GenerateBlobs(10, 64, 4.0, 64, rng);
  Mlp model(64, 16, 10);
  model.InitializeParameters(rng);
  std::vector<size_t> batch;
  for (size_t i = 0; i < 16; ++i) batch.push_back(i);
  std::vector<float> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ComputeGradient(*data, batch, grad));
  }
}
BENCHMARK(BM_MlpGradientStep);

void BM_CnnGradientStep(benchmark::State& state) {
  DigitsConfig config;
  config.image_size = 8;
  Rng rng(2);
  Result<FederatedSource> source = GenerateDigits(config, 64, rng);
  Cnn model(8, 4, 10);
  model.InitializeParameters(rng);
  std::vector<size_t> batch;
  for (size_t i = 0; i < 16; ++i) batch.push_back(i);
  std::vector<float> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ComputeGradient(source->data, batch, grad));
  }
}
BENCHMARK(BM_CnnGradientStep);

/// A latency-bound utility: each evaluation blocks for a fixed interval,
/// like an FL round waiting on remote client updates (the dominant cost of
/// real cross-device FL). Batched evaluation overlaps these waits, so the
/// thread-scaling of the parallel pathway is visible on any host,
/// including single-core CI runners.
class LatencyBoundUtility : public UtilityFunction {
 public:
  LatencyBoundUtility(int n, int micros) : n_(n), micros_(micros) {}
  int num_clients() const override { return n_; }
  Result<double> Evaluate(const Coalition& coalition) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros_));
    return static_cast<double>(coalition.Count());
  }

 private:
  int n_;
  int micros_;
};

/// Raw cache fan-out: one batch of 66 coalitions, cold cache per
/// iteration. Arg = threads; speedup at 4 threads vs 1 should approach
/// 4x (the work is pure wait).
void BM_PrefetchThreadScaling(benchmark::State& state) {
  PinnedThreads pinned(static_cast<int>(state.range(0)));
  LatencyBoundUtility fn(12, 300);
  std::vector<Coalition> batch;
  ForEachSubsetOfSize(12, 2, [&](const Coalition& c) { batch.push_back(c); });
  for (auto _ : state) {
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    benchmark::DoNotOptimize(session.EvaluateBatch(batch));
  }
}
BENCHMARK(BM_PrefetchThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// End-to-end IPSS at gamma=160 on n=16: the exhaustive phase plus the
/// balanced (k*+1)-stratum sample all flow through the session's batched
/// pathway. Estimates are identical across thread counts.
void BM_IpssThreadScaling(benchmark::State& state) {
  PinnedThreads pinned(static_cast<int>(state.range(0)));
  LatencyBoundUtility fn(16, 200);
  IpssConfig config;
  config.total_rounds = 160;
  for (auto _ : state) {
    UtilityCache cache(&fn);
    UtilitySession session(&cache);
    benchmark::DoNotOptimize(IpssShapley(session, config));
  }
}
BENCHMARK(BM_IpssThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FedAvgAggregate(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  std::vector<std::vector<float>> params(
      clients, std::vector<float>(1200, 0.5f));
  std::vector<double> weights(clients, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FedAvgAggregate(params, weights));
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(10)->Arg(100);

}  // namespace
}  // namespace fedshap

BENCHMARK_MAIN();
