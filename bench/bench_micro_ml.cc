/// Microbenchmarks (google-benchmark) for the ML substrate's batched
/// kernels and the models' gradient paths. Every utility query of the
/// valuation pipeline is a full FL training, so these per-step costs are
/// the floor under all Table IV/V wall-clock numbers.
///
/// The *_PerExample / *_Batched pairs compare the historical scalar
/// reference path against the blocked-kernel path at the same batch
/// size; items/s is examples per second, so the batched:per-example
/// ratio is the per-training speedup. CI runs this binary once with a
/// tiny --benchmark_min_time as a smoke test.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "data/synthetic.h"
#include "ml/cnn.h"
#include "ml/kernel_backend.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "util/logging.h"
#include "util/random.h"

namespace fedshap {
namespace {

constexpr int kBatch = 32;

/// The backend the process dispatched at startup (env override
/// included); the per-backend benchmarks below pin other backends and
/// restore this one so every non-backend benchmark runs dispatched.
KernelBackend g_entry_backend = KernelBackend::kScalar;

std::vector<float> RandomBuffer(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return buf;
}

// ---------------------------------------------------------------------------
// Raw kernels

/// Naive dot-product GEMM (the shape of the old per-example loops):
/// reduction inner loop, which the compiler cannot vectorize without
/// -ffast-math. The baseline the blocked kernel is measured against.
void NaiveMatMul(const float* a, size_t m, size_t k, const float* b,
                 size_t n, float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

void BM_MatMulNaive(benchmark::State& state) {
  const size_t m = kBatch, k = 64, n = 64;
  std::vector<float> a = RandomBuffer(m * k, 1), b = RandomBuffer(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    NaiveMatMul(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulNaive);

void BM_MatMulBlocked(benchmark::State& state) {
  const size_t m = kBatch, k = 64, n = 64;
  std::vector<float> a = RandomBuffer(m * k, 1), b = RandomBuffer(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    MatMul(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulBlocked);

/// GEMM-bound cases per kernel backend: the same blocked MatMul body
/// pinned to scalar / AVX2, so the dispatched-vs-scalar
/// speedup is measured directly (the acceptance number of the SIMD
/// dispatch work). Registered dynamically for every backend this
/// machine can execute; names look like "BM_MatMulBackend/avx2/64x256x256".
void MatMulBackendCase(benchmark::State& state, KernelBackend backend,
                       size_t m, size_t k, size_t n) {
  if (!SetKernelBackend(backend).ok()) {
    state.SkipWithError("backend unavailable");
    return;
  }
  std::vector<float> a = RandomBuffer(m * k, 1), b = RandomBuffer(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    MatMul(a.data(), m, k, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  FEDSHAP_CHECK(SetKernelBackend(g_entry_backend).ok());
}

/// The GEMM-bound shapes measured per backend; the speedup report below
/// derives its benchmark names from this same table.
struct GemmShape {
  size_t m, k, n;
};
constexpr GemmShape kGemmShapes[] = {{kBatch, 64, 64}, {64, 256, 256}};

std::string GemmShapeName(const GemmShape& shape) {
  return std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
         std::to_string(shape.n);
}

void RegisterBackendBenchmarks() {
  for (KernelBackend backend : {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (!KernelBackendAvailable(backend)) continue;
    for (const GemmShape& shape : kGemmShapes) {
      const std::string name =
          "BM_MatMulBackend/" + std::string(KernelBackendName(backend)) +
          "/" + GemmShapeName(shape);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [backend, shape](benchmark::State& state) {
            MatMulBackendCase(state, backend, shape.m, shape.k, shape.n);
          });
    }
  }
}

void BM_AddOuterBatch(benchmark::State& state) {
  const size_t batch = kBatch, rows = 16, cols = 64;
  std::vector<float> a = RandomBuffer(batch * rows, 3);
  std::vector<float> b = RandomBuffer(batch * cols, 4);
  std::vector<float> acc(rows * cols, 0.0f);
  for (auto _ : state) {
    AddOuterBatch(acc.data(), rows, cols, 1.0f, a.data(), b.data(), batch);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * rows * cols);
}
BENCHMARK(BM_AddOuterBatch);

void BM_SgdStepFused(benchmark::State& state) {
  std::vector<float> p = RandomBuffer(4096, 5), g = RandomBuffer(4096, 6);
  for (auto _ : state) {
    SgdStep(p.data(), g.data(), p.size(), 0.01f, 1e-4f);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * p.size());
}
BENCHMARK(BM_SgdStepFused);

// ---------------------------------------------------------------------------
// Model gradient paths: per-example reference vs batched kernels. The
// shapes match the Table IV/V scenarios (8x8 digits, MLP hidden 16,
// 10 classes; CNN with 4 filters).

template <typename ModelT, typename MakeModel, typename MakeData>
void GradientBench(benchmark::State& state, MakeModel make_model,
                   MakeData make_data, bool batched) {
  Rng rng(7);
  Dataset data = make_data(rng);
  ModelT model = make_model(data);
  model.InitializeParameters(rng);
  std::vector<size_t> batch;
  for (size_t i = 0; i < kBatch; ++i) batch.push_back(i % data.size());
  std::vector<float> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batched ? model.ComputeGradientBatched(data, batch, grad)
                : model.ComputeGradient(data, batch, grad));
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}

Dataset MakeBlobData(Rng& rng) {
  Result<Dataset> data = GenerateBlobs(10, 64, 4.0, 256, rng);
  return std::move(data).value();
}

Dataset MakeDigitData(Rng& rng) {
  DigitsConfig config;
  config.image_size = 8;
  Result<FederatedSource> source = GenerateDigits(config, 256, rng);
  return std::move(source).value().data;
}

Dataset MakeRegressionData(Rng& rng) {
  Result<Dataset> data = Dataset::Create(32, 0);
  Dataset out = std::move(data).value();
  std::vector<float> row(32);
  for (int i = 0; i < 256; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    out.Append(row, static_cast<float>(rng.Gaussian()));
  }
  return out;
}

void BM_MlpGradient_PerExample(benchmark::State& state) {
  GradientBench<Mlp>(
      state, [](const Dataset&) { return Mlp(64, 16, 10); }, MakeBlobData,
      /*batched=*/false);
}
BENCHMARK(BM_MlpGradient_PerExample);

void BM_MlpGradient_Batched(benchmark::State& state) {
  GradientBench<Mlp>(
      state, [](const Dataset&) { return Mlp(64, 16, 10); }, MakeBlobData,
      /*batched=*/true);
}
BENCHMARK(BM_MlpGradient_Batched);

void BM_LogRegGradient_PerExample(benchmark::State& state) {
  GradientBench<LogisticRegression>(
      state, [](const Dataset&) { return LogisticRegression(64, 10); },
      MakeBlobData, /*batched=*/false);
}
BENCHMARK(BM_LogRegGradient_PerExample);

void BM_LogRegGradient_Batched(benchmark::State& state) {
  GradientBench<LogisticRegression>(
      state, [](const Dataset&) { return LogisticRegression(64, 10); },
      MakeBlobData, /*batched=*/true);
}
BENCHMARK(BM_LogRegGradient_Batched);

void BM_CnnGradient_PerExample(benchmark::State& state) {
  GradientBench<Cnn>(
      state, [](const Dataset&) { return Cnn(8, 4, 10); }, MakeDigitData,
      /*batched=*/false);
}
BENCHMARK(BM_CnnGradient_PerExample);

void BM_CnnGradient_Batched(benchmark::State& state) {
  GradientBench<Cnn>(
      state, [](const Dataset&) { return Cnn(8, 4, 10); }, MakeDigitData,
      /*batched=*/true);
}
BENCHMARK(BM_CnnGradient_Batched);

void BM_LinRegGradient_PerExample(benchmark::State& state) {
  GradientBench<LinearRegression>(
      state, [](const Dataset&) { return LinearRegression(32); },
      MakeRegressionData, /*batched=*/false);
}
BENCHMARK(BM_LinRegGradient_PerExample);

void BM_LinRegGradient_Batched(benchmark::State& state) {
  GradientBench<LinearRegression>(
      state, [](const Dataset&) { return LinearRegression(32); },
      MakeRegressionData, /*batched=*/true);
}
BENCHMARK(BM_LinRegGradient_Batched);

// ---------------------------------------------------------------------------
// Fused multi-model scoring (what fuse=on buys a valuation job): scoring
// M trained models on the shared test set as M per-example accuracy
// sweeps vs one stacked X * [W_1^T | ... | W_M^T] GEMM per test chunk —
// the scoring arithmetic of FedAvgUtility::EvaluateBatchFused. Trainings
// are outside both loops; the pair isolates the dispatch overhead that
// fusion amortizes on small models.

constexpr size_t kFusedModels = 16;

std::vector<LogisticRegression> MakeScoringModels(size_t count) {
  std::vector<LogisticRegression> models;
  models.reserve(count);
  for (size_t m = 0; m < count; ++m) {
    LogisticRegression model(64, 10);
    Rng rng(100 + m);
    model.InitializeParameters(rng);
    models.push_back(std::move(model));
  }
  return models;
}

void BM_ScoreModels_PerModel(benchmark::State& state) {
  Rng rng(7);
  const Dataset data = MakeBlobData(rng);
  const std::vector<LogisticRegression> models =
      MakeScoringModels(kFusedModels);
  double sink = 0.0;
  for (auto _ : state) {
    for (const LogisticRegression& model : models) {
      sink += EvaluateAccuracy(model, data);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * models.size() * data.size());
}
BENCHMARK(BM_ScoreModels_PerModel);

void BM_ScoreModels_FusedStacked(benchmark::State& state) {
  Rng rng(7);
  const Dataset data = MakeBlobData(rng);
  const std::vector<LogisticRegression> models =
      MakeScoringModels(kFusedModels);
  const size_t num_features = static_cast<size_t>(data.num_features());
  const size_t classes = static_cast<size_t>(models.front().NumOutputs());
  const size_t stacked_cols = models.size() * classes;
  AlignedFloats stacked_wt(num_features * stacked_cols), xb, logits;
  std::vector<float> stacked_bias(stacked_cols);
  std::vector<size_t> batch;
  std::vector<size_t> correct(models.size());
  double sink = 0.0;
  for (auto _ : state) {
    // Stacking the heads is part of the fused path's cost: the service
    // pays it once per coalition batch, so the benchmark pays it once
    // per iteration.
    for (size_t j = 0; j < models.size(); ++j) {
      const float* bias = nullptr;
      const float* weights = models[j].AffineScorer(&bias);
      for (size_t c = 0; c < classes; ++c) {
        stacked_bias[j * classes + c] = bias[c];
      }
      for (size_t f = 0; f < num_features; ++f) {
        for (size_t c = 0; c < classes; ++c) {
          stacked_wt[f * stacked_cols + j * classes + c] =
              weights[c * num_features + f];
        }
      }
    }
    std::fill(correct.begin(), correct.end(), size_t{0});
    constexpr size_t kChunkRows = 256;
    for (size_t begin = 0; begin < data.size(); begin += kChunkRows) {
      const size_t rows = std::min(kChunkRows, data.size() - begin);
      batch.resize(rows);
      for (size_t i = 0; i < rows; ++i) batch[i] = begin + i;
      GatherRows(data, batch, xb);
      logits.resize(rows * stacked_cols);
      MatMul(xb.data(), rows, num_features, stacked_wt.data(), stacked_cols,
             logits.data());
      AddBiasRows(logits.data(), rows, stacked_cols, stacked_bias.data());
      for (size_t i = 0; i < rows; ++i) {
        const int label = data.ClassLabel(begin + i);
        const float* row = logits.data() + i * stacked_cols;
        for (size_t j = 0; j < models.size(); ++j) {
          const float* scores = row + j * classes;
          size_t best = 0;
          for (size_t c = 1; c < classes; ++c) {
            if (scores[c] > scores[best]) best = c;
          }
          if (static_cast<int>(best) == label) ++correct[j];
        }
      }
    }
    for (size_t count : correct) {
      sink += static_cast<double>(count) / static_cast<double>(data.size());
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * models.size() * data.size());
}
BENCHMARK(BM_ScoreModels_FusedStacked);

// ---------------------------------------------------------------------------
// Whole local trainings (what one FL client does per round): epochs of
// shuffled minibatch SGD end to end, both gradient modes.

void TrainSgdBench(benchmark::State& state, GradientMode mode) {
  Rng rng(11);
  Dataset data = MakeBlobData(rng);
  Mlp prototype(64, 16, 10);
  prototype.InitializeParameters(rng);
  const std::vector<float> init = prototype.GetParameters();
  SgdConfig config;
  config.epochs = 1;
  config.batch_size = kBatch;
  config.gradient_mode = mode;
  for (auto _ : state) {
    Mlp model = prototype;
    benchmark::DoNotOptimize(model.SetParameters(init));
    Rng train_rng(42);
    benchmark::DoNotOptimize(TrainSgd(model, data, config, train_rng));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}

void BM_TrainSgdEpoch_PerExample(benchmark::State& state) {
  TrainSgdBench(state, GradientMode::kPerExample);
}
BENCHMARK(BM_TrainSgdEpoch_PerExample);

void BM_TrainSgdEpoch_Batched(benchmark::State& state) {
  TrainSgdBench(state, GradientMode::kBatched);
}
BENCHMARK(BM_TrainSgdEpoch_Batched);

// ---------------------------------------------------------------------------
// Main: standard google-benchmark flags plus --json=<path> (see
// bench/common.h), which archives every benchmark's timing and the
// derived speedup pairs (Batched vs PerExample, each SIMD backend vs
// scalar) as machine-readable records.

/// Console reporter that additionally captures per-benchmark seconds
/// per iteration, keyed by benchmark name.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      seconds_per_iteration_[run.benchmark_name()] =
          run.real_accumulated_time / static_cast<double>(run.iterations);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& seconds_per_iteration() const {
    return seconds_per_iteration_;
  }

 private:
  std::map<std::string, double> seconds_per_iteration_;
};

/// Speedup of `denominator_name` over `baseline_name` (how many times
/// faster), or 0 when either is missing.
double SpeedupOf(const std::map<std::string, double>& seconds,
                 const std::string& baseline_name,
                 const std::string& faster_name) {
  auto base = seconds.find(baseline_name);
  auto fast = seconds.find(faster_name);
  if (base == seconds.end() || fast == seconds.end() ||
      fast->second <= 0.0) {
    return 0.0;
  }
  return base->second / fast->second;
}

int RunMicroMl(int argc, char** argv) {
  // Peel --json off before google-benchmark sees the flags.
  std::string json_path;
  if (const char* env = std::getenv("FEDSHAP_BENCH_JSON")) json_path = env;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());

  g_entry_backend = SelectedKernelBackend();
  std::printf("%s\n", KernelProvenanceString().c_str());
  RegisterBackendBenchmarks();
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  const std::map<std::string, double>& seconds =
      reporter.seconds_per_iteration();
  bench::BenchJson json("micro_ml");
  for (const auto& [name, secs] : seconds) {
    json.Add(name).Metric("seconds_per_iteration", secs);
  }

  // Derived speedups: the numbers the README table and CI artifacts
  // track. Backend cases compare against the scalar backend at the same
  // shape; model cases compare Batched against PerExample.
  std::printf("\nspeedups:\n");
  for (const GemmShape& gemm_shape : kGemmShapes) {
    const std::string shape = GemmShapeName(gemm_shape);
    const double speedup =
        SpeedupOf(seconds, "BM_MatMulBackend/scalar/" + shape,
                  "BM_MatMulBackend/avx2/" + shape);
    if (speedup <= 0.0) continue;
    std::printf("  gemm %-11s avx2    vs scalar: %.2fx\n", shape.c_str(),
                speedup);
    json.Add("gemm_speedup")
        .Label("case", shape)
        .Label("backend", "avx2")
        .Metric("speedup_vs_scalar", speedup);
  }
  const struct {
    const char* label;
    const char* baseline;
    const char* faster;
  } pairs[] = {
      {"mlp_gradient", "BM_MlpGradient_PerExample", "BM_MlpGradient_Batched"},
      {"logreg_gradient", "BM_LogRegGradient_PerExample",
       "BM_LogRegGradient_Batched"},
      {"cnn_gradient", "BM_CnnGradient_PerExample", "BM_CnnGradient_Batched"},
      {"linreg_gradient", "BM_LinRegGradient_PerExample",
       "BM_LinRegGradient_Batched"},
      {"train_sgd_epoch", "BM_TrainSgdEpoch_PerExample",
       "BM_TrainSgdEpoch_Batched"},
      {"matmul_blocked", "BM_MatMulNaive", "BM_MatMulBlocked"},
      {"fused_scoring", "BM_ScoreModels_PerModel",
       "BM_ScoreModels_FusedStacked"},
  };
  for (const auto& pair : pairs) {
    const double speedup = SpeedupOf(seconds, pair.baseline, pair.faster);
    if (speedup <= 0.0) continue;
    std::printf("  %-24s batched vs reference: %.2fx\n", pair.label,
                speedup);
    json.Add(pair.label).Metric("speedup_batched_vs_reference", speedup);
  }

  Status written = json.WriteTo(json_path);
  if (!written.ok()) {
    std::fprintf(stderr, "bench JSON write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  if (!json_path.empty()) {
    std::printf("\n[json] wrote %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace fedshap

int main(int argc, char** argv) { return fedshap::RunMicroMl(argc, argv); }
