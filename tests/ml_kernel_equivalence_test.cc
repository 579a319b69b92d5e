/// Kernel-equivalence suite: every batched kernel of ml/matrix.h is
/// cross-checked against a naive scalar reference on randomized shapes
/// (including non-multiple-of-tile sizes that exercise the remainder
/// paths), and every model's per-step loss/gradient from
/// ComputeGradientBatched is cross-checked against the per-example
/// reference ComputeGradient. The tolerance contract is the one
/// documented in ml/matrix.h: |batched - reference| <= kKernelAbsTol +
/// kKernelRelTol * |reference| per element; element-wise kernels must
/// match to float rounding.
///
/// The whole suite is *parameterized over every kernel backend this
/// machine can execute* (scalar, AVX2 — see ml/kernel_backend.h): each
/// TEST_P below runs once per backend with the dispatch table pinned to
/// it, so a vector backend that drifts from the contract fails here by
/// name. Element-wise kernels are additionally cross-checked *bitwise*
/// against the scalar backend.
/// The backend-selection tests at the end pin the accepted names and the
/// FEDSHAP_KERNEL_BACKEND fallback.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/cnn.h"
#include "ml/kernel_backend.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "util/logging.h"
#include "util/random.h"

namespace fedshap {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng, double lo = -1.0,
                                double hi = 1.0) {
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Uniform(lo, hi));
  return buf;
}

void ExpectAllClose(const std::vector<float>& actual,
                    const std::vector<float>& reference,
                    const char* what) {
  ASSERT_EQ(actual.size(), reference.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    const float tol =
        kKernelAbsTol + kKernelRelTol * std::fabs(reference[i]);
    EXPECT_NEAR(actual[i], reference[i], tol)
        << what << " element " << i;
  }
}

/// Every backend compiled into this binary that the CPU can execute.
std::vector<KernelBackend> AvailableBackends() {
  std::vector<KernelBackend> backends;
  for (KernelBackend backend : {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (KernelBackendAvailable(backend)) backends.push_back(backend);
  }
  return backends;
}

/// Pins the dispatch table to the parameter backend for the test body,
/// restoring the entry backend afterwards.
class KernelBackendSuite : public ::testing::TestWithParam<KernelBackend> {
 protected:
  void SetUp() override {
    original_ = SelectedKernelBackend();
    ASSERT_TRUE(SetKernelBackend(GetParam()).ok());
  }
  void TearDown() override {
    ASSERT_TRUE(SetKernelBackend(original_).ok());
  }

 private:
  KernelBackend original_ = KernelBackend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelBackendSuite,
    ::testing::ValuesIn(AvailableBackends()),
    [](const ::testing::TestParamInfo<KernelBackend>& info) {
      return std::string(KernelBackendName(info.param));
    });

/// Random shapes that exercise the 4-row / 2-k remainder paths: every
/// dimension is drawn from [1, 40] so tiles of 4 and unrolls of 2 hit
/// partial iterations constantly.
struct Shape {
  size_t m, k, n;
};

std::vector<Shape> RandomShapes(uint64_t seed) {
  Rng rng(seed);
  std::vector<Shape> shapes;
  for (int i = 0; i < 12; ++i) {
    shapes.push_back({static_cast<size_t>(rng.UniformInt(1, 40)),
                      static_cast<size_t>(rng.UniformInt(1, 40)),
                      static_cast<size_t>(rng.UniformInt(1, 40))});
  }
  // Pin the corners: single row/col/reduction, and a larger-than-panel k.
  shapes.push_back({1, 1, 1});
  shapes.push_back({4, 300, 8});
  shapes.push_back({32, 64, 16});
  return shapes;
}

// ---------------------------------------------------------------------------
// Raw kernel cross-checks

TEST_P(KernelBackendSuite, MatMulMatchesNaive) {
  for (Shape s : RandomShapes(11)) {
    Rng rng(s.m * 131 + s.k * 17 + s.n);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.k * s.n, rng);
    std::vector<float> c(s.m * s.n, -7.0f);  // stale content must vanish
    MatMul(a.data(), s.m, s.k, b.data(), s.n, c.data());
    std::vector<float> ref(s.m * s.n, 0.0f);
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < s.k; ++kk) {
          acc += a[i * s.k + kk] * b[kk * s.n + j];
        }
        ref[i * s.n + j] = acc;
      }
    }
    ExpectAllClose(c, ref, "MatMul");
  }
}

TEST_P(KernelBackendSuite, MatMulAccAccumulatesOntoSeed) {
  for (Shape s : RandomShapes(13)) {
    Rng rng(s.m * 7 + s.k * 3 + s.n);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.k * s.n, rng);
    std::vector<float> seed = RandomBuffer(s.m * s.n, rng);
    std::vector<float> c = seed;
    MatMulAcc(a.data(), s.m, s.k, b.data(), s.n, c.data());
    std::vector<float> ref = seed;
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < s.k; ++kk) {
          acc += a[i * s.k + kk] * b[kk * s.n + j];
        }
        ref[i * s.n + j] += acc;
      }
    }
    ExpectAllClose(c, ref, "MatMulAcc");
  }
}

TEST_P(KernelBackendSuite, MatTMatMatchesNaive) {
  for (Shape s : RandomShapes(17)) {
    // Here m is the shared (batch) dimension: a is m x k, b is m x n.
    Rng rng(s.m + s.k * 29 + s.n * 5);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.m * s.n, rng);
    std::vector<float> c(s.k * s.n, 3.0f);
    MatTMat(a.data(), s.m, s.k, b.data(), s.n, c.data());
    std::vector<float> ref(s.k * s.n, 0.0f);
    for (size_t r = 0; r < s.m; ++r) {
      for (size_t kk = 0; kk < s.k; ++kk) {
        for (size_t j = 0; j < s.n; ++j) {
          ref[kk * s.n + j] += a[r * s.k + kk] * b[r * s.n + j];
        }
      }
    }
    ExpectAllClose(c, ref, "MatTMat");
  }
}

TEST_P(KernelBackendSuite, AddOuterBatchMatchesNaiveWithAlphaAndSparsity) {
  for (Shape s : RandomShapes(19)) {
    Rng rng(s.m * 41 + s.k + s.n * 11);
    const float alpha = static_cast<float>(rng.Uniform(0.25, 2.0));
    // a gets exact zeros to exercise the skip path.
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    for (float& v : a) {
      if (rng.Bernoulli(0.4)) v = 0.0f;
    }
    std::vector<float> b = RandomBuffer(s.m * s.n, rng);
    std::vector<float> seed = RandomBuffer(s.k * s.n, rng);
    std::vector<float> acc = seed;
    AddOuterBatch(acc.data(), s.k, s.n, alpha, a.data(), b.data(), s.m);
    std::vector<float> ref = seed;
    for (size_t r = 0; r < s.m; ++r) {
      for (size_t kk = 0; kk < s.k; ++kk) {
        for (size_t j = 0; j < s.n; ++j) {
          ref[kk * s.n + j] += alpha * a[r * s.k + kk] * b[r * s.n + j];
        }
      }
    }
    ExpectAllClose(acc, ref, "AddOuterBatch");
  }
}

TEST(KernelEquivalence, TransposeIsExact) {
  for (Shape s : RandomShapes(23)) {
    Rng rng(s.m + s.n);
    std::vector<float> a = RandomBuffer(s.m * s.n, rng);
    std::vector<float> out(s.m * s.n, 0.0f);
    Transpose(a.data(), s.m, s.n, out.data());
    for (size_t r = 0; r < s.m; ++r) {
      for (size_t c = 0; c < s.n; ++c) {
        EXPECT_EQ(out[c * s.m + r], a[r * s.n + c]);
      }
    }
    // Also the > 32x32 blocked path.
    std::vector<float> big = RandomBuffer(48 * 50, rng);
    std::vector<float> big_t(48 * 50, 0.0f);
    Transpose(big.data(), 48, 50, big_t.data());
    for (size_t r = 0; r < 48; ++r) {
      for (size_t c = 0; c < 50; ++c) {
        EXPECT_EQ(big_t[c * 48 + r], big[r * 50 + c]);
      }
    }
  }
}

TEST_P(KernelBackendSuite, BiasReluAndMaskKernelsAreExact) {
  Rng rng(29);
  const size_t rows = 13, cols = 27;
  std::vector<float> m = RandomBuffer(rows * cols, rng);
  std::vector<float> bias = RandomBuffer(cols, rng);

  std::vector<float> plain = m;
  AddBiasRows(plain.data(), rows, cols, bias.data());
  std::vector<float> fused = m;
  AddBiasReluRows(fused.data(), rows, cols, bias.data());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const float expected = m[r * cols + c] + bias[c];
      EXPECT_FLOAT_EQ(plain[r * cols + c], expected);
      EXPECT_FLOAT_EQ(fused[r * cols + c],
                      expected > 0.0f ? expected : 0.0f);
    }
  }

  std::vector<float> delta = RandomBuffer(rows * cols, rng);
  std::vector<float> masked = delta;
  ReluMaskBackward(masked.data(), fused.data(), rows * cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    EXPECT_FLOAT_EQ(masked[i], fused[i] > 0.0f ? delta[i] : 0.0f);
  }
}

TEST_P(KernelBackendSuite, SoftmaxRowsMatchesSoftmaxInPlaceBitwise) {
  Rng rng(31);
  const size_t rows = 9, cols = 10;
  std::vector<float> m = RandomBuffer(rows * cols, rng, -4.0, 4.0);
  std::vector<float> batched = m;
  SoftmaxRows(batched.data(), rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<float> row(m.begin() + r * cols, m.begin() + (r + 1) * cols);
    SoftmaxInPlace(row);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(batched[r * cols + c], row[c]) << "row " << r;
    }
  }
}

TEST_P(KernelBackendSuite, ColumnSumsMatchesRowOrderAccumulationBitwise) {
  Rng rng(37);
  const size_t rows = 21, cols = 15;
  std::vector<float> m = RandomBuffer(rows * cols, rng);
  std::vector<float> out(cols, 99.0f);
  ColumnSums(m.data(), rows, cols, out.data());
  std::vector<float> ref(cols, 0.0f);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) ref[c] += m[r * cols + c];
  }
  for (size_t c = 0; c < cols; ++c) EXPECT_EQ(out[c], ref[c]);
}

TEST_P(KernelBackendSuite, FusedSgdStepsMatchScalarLoops) {
  Rng rng(41);
  const size_t n = 137;  // odd length: exercises vector tails
  const float lr = 0.05f, wd = 1e-3f, momentum = 0.9f, mu = 0.01f;
  std::vector<float> p0 = RandomBuffer(n, rng);
  std::vector<float> g = RandomBuffer(n, rng);
  std::vector<float> v0 = RandomBuffer(n, rng);
  std::vector<float> ref_buf = RandomBuffer(n, rng);

  std::vector<float> p = p0;
  SgdStep(p.data(), g.data(), n, lr, wd);
  for (size_t i = 0; i < n; ++i) {
    const float expected = p0[i] - lr * (g[i] + wd * p0[i]);
    EXPECT_FLOAT_EQ(p[i], expected);
  }

  p = p0;
  std::vector<float> v = v0;
  SgdMomentumStep(p.data(), v.data(), g.data(), n, lr, momentum, wd);
  for (size_t i = 0; i < n; ++i) {
    const float ev = momentum * v0[i] + g[i] + wd * p0[i];
    EXPECT_FLOAT_EQ(v[i], ev);
    EXPECT_FLOAT_EQ(p[i], p0[i] - lr * ev);
  }

  std::vector<float> g2 = g;
  AddProximal(g2.data(), p0.data(), ref_buf.data(), n, mu);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(g2[i], g[i] + mu * (p0[i] - ref_buf[i]));
  }
}

// ---------------------------------------------------------------------------
// Model-level equivalence: batched vs per-example reference on randomized
// shapes and batch sizes (1 exercises the degenerate minibatch, odd sizes
// the remainder tiles).

void ExpectGradientEquivalent(const Model& model, const Dataset& data,
                              size_t batch_size, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> batch;
  std::vector<int> picks = rng.SampleWithoutReplacement(
      static_cast<int>(data.size()),
      static_cast<int>(std::min(batch_size, data.size())));
  for (int p : picks) batch.push_back(static_cast<size_t>(p));

  std::vector<float> ref_grad, batched_grad;
  const double ref_loss = model.ComputeGradient(data, batch, ref_grad);
  const double batched_loss =
      model.ComputeGradientBatched(data, batch, batched_grad);
  EXPECT_NEAR(batched_loss, ref_loss,
              kKernelAbsTol + kKernelRelTol * std::fabs(ref_loss))
      << model.Name() << " loss, batch " << batch.size();
  ExpectAllClose(batched_grad, ref_grad, model.Name().c_str());
}

Dataset RandomClassificationData(int dim, int classes, size_t rows,
                                 uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> data = GenerateBlobs(classes, dim, 3.0, rows, rng);
  FEDSHAP_CHECK(data.ok());
  return std::move(data).value();
}

TEST(ModelEquivalence, LinearRegressionBatchedMatchesReference) {
  Rng shape_rng(43);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = static_cast<int>(shape_rng.UniformInt(1, 48));
    Result<Dataset> data = Dataset::Create(dim, 0);
    ASSERT_TRUE(data.ok());
    Rng rng(1000 + trial);
    std::vector<float> row(dim);
    for (int i = 0; i < 64; ++i) {
      for (float& v : row) v = static_cast<float>(rng.Gaussian());
      data->Append(row, static_cast<float>(rng.Gaussian()));
    }
    LinearRegression model(dim);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{7}, size_t{32}, size_t{64}}) {
      ExpectGradientEquivalent(model, *data, batch, 77 + trial);
    }
  }
}

TEST(ModelEquivalence, LogisticRegressionBatchedMatchesReference) {
  Rng shape_rng(47);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = static_cast<int>(shape_rng.UniformInt(1, 40));
    const int classes = static_cast<int>(shape_rng.UniformInt(2, 11));
    Dataset data = RandomClassificationData(dim, classes, 64, 2000 + trial);
    LogisticRegression model(dim, classes);
    Rng rng(3000 + trial);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{5}, size_t{32}, size_t{64}}) {
      ExpectGradientEquivalent(model, data, batch, 87 + trial);
    }
  }
}

TEST_P(KernelBackendSuite, MlpBatchedMatchesReference) {
  Rng shape_rng(53);
  for (int trial = 0; trial < 6; ++trial) {
    const int dim = static_cast<int>(shape_rng.UniformInt(2, 48));
    const int hidden = static_cast<int>(shape_rng.UniformInt(1, 24));
    const int classes = static_cast<int>(shape_rng.UniformInt(2, 11));
    Dataset data = RandomClassificationData(dim, classes, 64, 4000 + trial);
    Mlp model(dim, hidden, classes);
    Rng rng(5000 + trial);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{9}, size_t{32}, size_t{64}}) {
      ExpectGradientEquivalent(model, data, batch, 97 + trial);
    }
  }
}

TEST_P(KernelBackendSuite, CnnBatchedMatchesReference) {
  Rng shape_rng(59);
  for (int trial = 0; trial < 4; ++trial) {
    const int side = static_cast<int>(shape_rng.UniformInt(6, 10));
    const int filters = static_cast<int>(shape_rng.UniformInt(1, 5));
    const int classes = static_cast<int>(shape_rng.UniformInt(2, 8));
    DigitsConfig config;
    config.image_size = side;
    config.num_classes = classes;
    Rng data_rng(6000 + trial);
    Result<FederatedSource> source = GenerateDigits(config, 64, data_rng);
    ASSERT_TRUE(source.ok());
    Cnn model(side, filters, classes);
    Rng rng(7000 + trial);
    model.InitializeParameters(rng);
    for (size_t batch : {size_t{1}, size_t{11}, size_t{32}}) {
      ExpectGradientEquivalent(model, source->data, batch, 107 + trial);
    }
  }
}

TEST(ModelEquivalence, BatchedGradientAgreesWithNumericalGradient) {
  // Independent of the reference path: the batched gradient must also
  // descend the true loss surface.
  Dataset data = RandomClassificationData(6, 3, 24, 8080);
  Mlp model(6, 5, 3);
  Rng rng(909);
  model.InitializeParameters(rng);
  std::vector<size_t> batch;
  for (size_t i = 0; i < data.size(); ++i) batch.push_back(i);

  std::vector<float> analytic;
  model.ComputeGradientBatched(data, batch, analytic);
  std::vector<float> numeric = NumericalGradient(model, data, batch);
  ASSERT_EQ(analytic.size(), numeric.size());
  double dot = 0.0, na = 0.0, nn = 0.0;
  for (size_t i = 0; i < analytic.size(); ++i) {
    dot += static_cast<double>(analytic[i]) * numeric[i];
    na += static_cast<double>(analytic[i]) * analytic[i];
    nn += static_cast<double>(numeric[i]) * numeric[i];
  }
  ASSERT_GT(na, 0.0);
  ASSERT_GT(nn, 0.0);
  EXPECT_GT(dot / std::sqrt(na * nn), 0.999);
}

// ---------------------------------------------------------------------------
// Cross-backend checks: the scalar backend is the reference. GEMM-shaped
// kernels agree within the tolerance contract; element-wise kernels are
// bit-identical (they run the same per-element arithmetic order).

/// Runs `fn` under `backend`, restoring the entry backend afterwards.
template <typename Fn>
void WithBackend(KernelBackend backend, Fn fn) {
  const KernelBackend original = SelectedKernelBackend();
  ASSERT_TRUE(SetKernelBackend(backend).ok());
  fn();
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

TEST(CrossBackendEquivalence, GemmKernelsMatchScalarWithinTolerance) {
  for (Shape s : RandomShapes(61)) {
    Rng rng(s.m * 3 + s.k * 7 + s.n * 13);
    std::vector<float> a = RandomBuffer(s.m * s.k, rng);
    std::vector<float> b = RandomBuffer(s.k * s.n, rng);
    std::vector<float> scalar_out(s.m * s.n, 0.0f);
    WithBackend(KernelBackend::kScalar, [&] {
      MatMul(a.data(), s.m, s.k, b.data(), s.n, scalar_out.data());
    });
    for (KernelBackend backend : AvailableBackends()) {
      if (backend == KernelBackend::kScalar) continue;
      SCOPED_TRACE(KernelBackendName(backend));
      std::vector<float> vector_out(s.m * s.n, -1.0f);
      WithBackend(backend, [&] {
        MatMul(a.data(), s.m, s.k, b.data(), s.n, vector_out.data());
      });
      ExpectAllClose(vector_out, scalar_out, "MatMul cross-backend");
    }
  }
}

TEST(CrossBackendEquivalence, ElementwiseKernelsBitIdenticalToScalar) {
  Rng rng(67);
  const size_t rows = 11, cols = 37;  // odd sizes: vector tails
  const size_t n = rows * cols;
  const float lr = 0.07f, wd = 2e-3f, momentum = 0.85f, mu = 0.02f;
  std::vector<float> m0 = RandomBuffer(n, rng);
  std::vector<float> bias = RandomBuffer(cols, rng);
  std::vector<float> p0 = RandomBuffer(n, rng);
  std::vector<float> v0 = RandomBuffer(n, rng);
  std::vector<float> g0 = RandomBuffer(n, rng);
  std::vector<float> ref = RandomBuffer(n, rng);
  std::vector<float> logits = RandomBuffer(n, rng, -4.0, 4.0);

  struct Snapshot {
    std::vector<float> biased, relu, masked, softmax, sums, p, v, p2, v2, g;
  };
  auto run_all = [&] {
    Snapshot out;
    out.biased = m0;
    AddBiasRows(out.biased.data(), rows, cols, bias.data());
    out.relu = m0;
    AddBiasReluRows(out.relu.data(), rows, cols, bias.data());
    out.masked = g0;
    ReluMaskBackward(out.masked.data(), out.relu.data(), n);
    out.softmax = logits;
    SoftmaxRows(out.softmax.data(), rows, cols);
    out.sums.resize(cols);
    ColumnSums(m0.data(), rows, cols, out.sums.data());
    out.p = p0;
    SgdStep(out.p.data(), g0.data(), n, lr, wd);
    out.p2 = p0;
    out.v2 = v0;
    SgdMomentumStep(out.p2.data(), out.v2.data(), g0.data(), n, lr,
                    momentum, wd);
    out.g = g0;
    AddProximal(out.g.data(), p0.data(), ref.data(), n, mu);
    return out;
  };

  Snapshot scalar;
  WithBackend(KernelBackend::kScalar, [&] { scalar = run_all(); });
  for (KernelBackend backend : AvailableBackends()) {
    if (backend == KernelBackend::kScalar) continue;
    SCOPED_TRACE(KernelBackendName(backend));
    Snapshot vec;
    WithBackend(backend, [&] { vec = run_all(); });
    auto expect_bits = [](const std::vector<float>& actual,
                          const std::vector<float>& expected,
                          const char* what) {
      ASSERT_EQ(actual.size(), expected.size()) << what;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << what << " element " << i;
      }
    };
    expect_bits(vec.biased, scalar.biased, "AddBiasRows");
    expect_bits(vec.relu, scalar.relu, "AddBiasReluRows");
    expect_bits(vec.masked, scalar.masked, "ReluMaskBackward");
    expect_bits(vec.softmax, scalar.softmax, "SoftmaxRows");
    expect_bits(vec.sums, scalar.sums, "ColumnSums");
    expect_bits(vec.p, scalar.p, "SgdStep");
    expect_bits(vec.p2, scalar.p2, "SgdMomentumStep param");
    expect_bits(vec.v2, scalar.v2, "SgdMomentumStep velocity");
    expect_bits(vec.g, scalar.g, "AddProximal");
  }
}

TEST(CrossBackendEquivalence, FixedBackendIsDeterministicAcrossRuns) {
  for (KernelBackend backend : AvailableBackends()) {
    SCOPED_TRACE(KernelBackendName(backend));
    Rng rng(71);
    const size_t m = 13, k = 29, n = 21;
    std::vector<float> a = RandomBuffer(m * k, rng);
    std::vector<float> b = RandomBuffer(k * n, rng);
    std::vector<float> first(m * n), second(m * n);
    WithBackend(backend, [&] {
      MatMul(a.data(), m, k, b.data(), n, first.data());
      MatMul(a.data(), m, k, b.data(), n, second.data());
    });
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], second[i]) << "element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend selection: the accepted names and the FEDSHAP_KERNEL_BACKEND
// fallback.

/// The deleted AVX-512 backend's name, which a deployment may still
/// carry in FEDSHAP_KERNEL_BACKEND.
const std::string kRetiredBackendName = "avx512";

TEST(KernelBackendSelection, ParseAcceptsOnlyScalarAvx2Auto) {
  EXPECT_EQ(ParseKernelBackend("scalar").value(), KernelBackend::kScalar);
  EXPECT_EQ(ParseKernelBackend("avx2").value(), KernelBackend::kAvx2);
  EXPECT_EQ(ParseKernelBackend("auto").value(), AutoDetectKernelBackend());
  Result<KernelBackend> retired = ParseKernelBackend(kRetiredBackendName);
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retired.status().message().find("(expected scalar | avx2 | auto)"),
            std::string::npos)
      << retired.status().message();
}

/// Startup selection binds the FEDSHAP_KERNEL_BACKEND backend when it
/// names one this machine can run, and auto-detection otherwise. Every
/// other test restores the startup backend, so this holds at any point
/// of the run; the subprocess test below re-runs it under a chosen env.
TEST(KernelBackendSelection, StartupSelectionFollowsEnvOrAutoDetection) {
  KernelBackend expected = AutoDetectKernelBackend();
  if (const char* env = std::getenv("FEDSHAP_KERNEL_BACKEND")) {
    Result<KernelBackend> parsed = ParseKernelBackend(env);
    if (parsed.ok() && KernelBackendAvailable(parsed.value())) {
      expected = parsed.value();
    }
  }
  EXPECT_EQ(SelectedKernelBackend(), expected);
}

TEST(KernelBackendSelection, RetiredNameInEnvBindsAutoDetectedBackend) {
  // Selection happens once per process, so re-run the test above in a
  // fresh copy of this binary with the retired name in its environment.
  const std::string pin = "FEDSHAP_KERNEL_BACKEND=" + kRetiredBackendName;
  const std::string command =
      pin + " FEDSHAP_LOG_LEVEL=info '" +
      std::filesystem::read_symlink("/proc/self/exe").string() +
      "' --gtest_filter=KernelBackendSelection."
      "StartupSelectionFollowsEnvOrAutoDetection 2>&1";
  FILE* child = popen(command.c_str(), "r");
  ASSERT_NE(child, nullptr);
  std::string output;
  char buf[4096];
  for (size_t got; (got = fread(buf, 1, sizeof(buf), child)) > 0;) {
    output.append(buf, got);
  }
  EXPECT_EQ(pclose(child), 0) << output;
  EXPECT_NE(output.find("[  PASSED  ] 1 test."), std::string::npos)
      << output;
  EXPECT_NE(output.find(pin + " not recognized; using auto detection"),
            std::string::npos)
      << output;
}

// ---------------------------------------------------------------------------
// One whole SGD step / local training under both modes.

TEST(TrainSgdEquivalence, OneEpochParamsMatchWithinTolerance) {
  Dataset data = RandomClassificationData(10, 4, 48, 515);
  Mlp prototype(10, 8, 4);
  Rng init(616);
  prototype.InitializeParameters(init);
  const std::vector<float> start = prototype.GetParameters();

  SgdConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.learning_rate = 0.2;
  config.momentum = 0.9;
  config.weight_decay = 1e-3;
  config.proximal_mu = 0.05;

  Mlp per_example = prototype;
  ASSERT_TRUE(per_example.SetParameters(start).ok());
  SgdConfig ref_config = config;
  ref_config.gradient_mode = GradientMode::kPerExample;
  Rng rng_a(42);
  Result<double> loss_ref = TrainSgd(per_example, data, ref_config, rng_a);
  ASSERT_TRUE(loss_ref.ok());

  Mlp batched = prototype;
  ASSERT_TRUE(batched.SetParameters(start).ok());
  SgdConfig batched_config = config;
  batched_config.gradient_mode = GradientMode::kBatched;
  Rng rng_b(42);
  Result<double> loss_batched =
      TrainSgd(batched, data, batched_config, rng_b);
  ASSERT_TRUE(loss_batched.ok());

  // Both modes consumed the same shuffles, so batch order is identical;
  // parameters agree within the kernel tolerance (slightly relaxed: two
  // epochs of updates compound the per-step reassociation error).
  const std::vector<float> p_ref = per_example.GetParameters();
  const std::vector<float> p_batched = batched.GetParameters();
  ASSERT_EQ(p_ref.size(), p_batched.size());
  for (size_t i = 0; i < p_ref.size(); ++i) {
    const float tol =
        10.0f * (kKernelAbsTol + kKernelRelTol * std::fabs(p_ref[i]));
    EXPECT_NEAR(p_batched[i], p_ref[i], tol) << "param " << i;
  }
  EXPECT_NEAR(*loss_batched, *loss_ref, 1e-3);
}

}  // namespace
}  // namespace fedshap
