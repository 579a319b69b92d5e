#include "ml/matrix.h"

#include <algorithm>
#include <cmath>

#include "ml/kernel_dispatch.h"
#include "util/logging.h"

namespace fedshap {

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void MatVec(const Matrix& m, const float* x, std::vector<float>& out) {
  out.assign(m.rows(), 0.0f);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.RowPtr(r);
    float acc = 0.0f;
    for (size_t c = 0; c < m.cols(); ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
}

void MatTVec(const Matrix& m, const float* x, std::vector<float>& out) {
  out.assign(m.cols(), 0.0f);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.RowPtr(r);
    const float xr = x[r];
    for (size_t c = 0; c < m.cols(); ++c) out[c] += row[c] * xr;
  }
}

void Rank1Update(Matrix& m, float alpha, const float* a, const float* b) {
  for (size_t r = 0; r < m.rows(); ++r) {
    float* row = m.RowPtr(r);
    const float ar = alpha * a[r];
    for (size_t c = 0; c < m.cols(); ++c) row[c] += ar * b[c];
  }
}

// ---------------------------------------------------------------------------
// Batched kernels.
//
// The public functions below dispatch their hot bodies through the
// backend table of ml/kernel_backend.h. The implementations in this
// anonymous namespace are the *scalar* backend: portable blocked loops
// the compiler autovectorizes at the build's baseline ISA, and the
// reference the AVX2 table (matrix_avx2.cc) is tested against.

namespace {

/// k-panel height: bounds the slice of b the micro-tile walks (kKc * n
/// floats) so it stays hot in L1/L2 for large reduction dimensions.
constexpr size_t kKc = 256;

/// The shared GEMM body: accumulates a * b into c. A 4-row micro-tile
/// (one load of b's row feeds four output rows) crossed with a 2-step
/// unroll of the reduction dimension (one read-modify-write of the
/// output row pays for two rank-1 contributions). The inner j-loops are
/// pure saxpy over contiguous rows — no reduction dependence — so they
/// auto-vectorize without -ffast-math.
void MatMulBody(const float* __restrict a, size_t m, size_t k,
                       const float* __restrict b, size_t n,
                       float* __restrict c) {
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t k1 = std::min(k, k0 + kKc);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* c0 = c + i * n;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      size_t kk = k0;
      for (; kk + 2 <= k1; kk += 2) {
        const float* b0 = b + kk * n;
        const float* b1 = b0 + n;
        const float f00 = a0[kk], f01 = a0[kk + 1];
        const float f10 = a1[kk], f11 = a1[kk + 1];
        const float f20 = a2[kk], f21 = a2[kk + 1];
        const float f30 = a3[kk], f31 = a3[kk + 1];
        for (size_t j = 0; j < n; ++j) {
          const float v0 = b0[j];
          const float v1 = b1[j];
          c0[j] += f00 * v0 + f01 * v1;
          c1[j] += f10 * v0 + f11 * v1;
          c2[j] += f20 * v0 + f21 * v1;
          c3[j] += f30 * v0 + f31 * v1;
        }
      }
      for (; kk < k1; ++kk) {
        const float* brow = b + kk * n;
        const float f0 = a0[kk];
        const float f1 = a1[kk];
        const float f2 = a2[kk];
        const float f3 = a3[kk];
        for (size_t j = 0; j < n; ++j) {
          const float bv = brow[j];
          c0[j] += f0 * bv;
          c1[j] += f1 * bv;
          c2[j] += f2 * bv;
          c3[j] += f3 * bv;
        }
      }
    }
    for (; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (size_t kk = k0; kk < k1; ++kk) {
        const float* brow = b + kk * n;
        const float f = arow[kk];
        for (size_t j = 0; j < n; ++j) crow[j] += f * brow[j];
      }
    }
  }
}

void AddOuterBatchScalar(float* __restrict acc, size_t rows, size_t cols,
                         float alpha, const float* __restrict a,
                         const float* __restrict b, size_t batch) {
  // 2-step unroll of the batch (reduction) dimension: one traversal of
  // acc's row absorbs two outer products. Rows of `a` whose coefficients
  // are zero contribute nothing and are skipped, which makes the
  // mostly-zero backward deltas of pooled layers cheap.
  size_t s = 0;
  for (; s + 2 <= batch; s += 2) {
    const float* a0 = a + s * rows;
    const float* a1 = a0 + rows;
    const float* b0 = b + s * cols;
    const float* b1 = b0 + cols;
    for (size_t r = 0; r < rows; ++r) {
      const float f0 = alpha * a0[r];
      const float f1 = alpha * a1[r];
      if (f0 == 0.0f && f1 == 0.0f) continue;
      float* crow = acc + r * cols;
      for (size_t c = 0; c < cols; ++c) crow[c] += f0 * b0[c] + f1 * b1[c];
    }
  }
  for (; s < batch; ++s) {
    const float* arow = a + s * rows;
    const float* brow = b + s * cols;
    for (size_t r = 0; r < rows; ++r) {
      const float f = alpha * arow[r];
      if (f == 0.0f) continue;
      float* crow = acc + r * cols;
      for (size_t c = 0; c < cols; ++c) crow[c] += f * brow[c];
    }
  }
}

}  // namespace

void Transpose(const float* __restrict a, size_t rows, size_t cols,
               float* __restrict out) {
  constexpr size_t kBlock = 32;
  if (rows * cols <= kBlock * kBlock) {
    // Small weight matrices (the per-gradient-step case) fit in L1;
    // plain loops beat the blocked traversal's overhead.
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) out[c * rows + r] = a[r * cols + c];
    }
    return;
  }
  for (size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const size_t r1 = std::min(rows, r0 + kBlock);
    for (size_t c0 = 0; c0 < cols; c0 += kBlock) {
      const size_t c1 = std::min(cols, c0 + kBlock);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) out[c * rows + r] = a[r * cols + c];
      }
    }
  }
}

namespace {

void AddBiasRowsScalar(float* __restrict m, size_t rows, size_t cols,
                       const float* __restrict bias) {
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    for (size_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void AddBiasReluRowsScalar(float* __restrict m, size_t rows, size_t cols,
                           const float* __restrict bias) {
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      const float v = row[c] + bias[c];
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
}

void ReluMaskBackwardScalar(float* __restrict delta,
                            const float* __restrict act, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (act[i] <= 0.0f) delta[i] = 0.0f;
  }
}

void SoftmaxRowsScalar(float* m, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    float* row = m + r * cols;
    // Same arithmetic order as SoftmaxInPlace so equal logits produce
    // bit-equal probabilities.
    float max_logit = row[0];
    for (size_t c = 1; c < cols; ++c) max_logit = std::max(max_logit, row[c]);
    float total = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_logit);
      total += row[c];
    }
    for (size_t c = 0; c < cols; ++c) row[c] /= total;
  }
}

void ColumnSumsScalar(const float* __restrict m, size_t rows, size_t cols,
                      float* __restrict out) {
  std::fill(out, out + cols, 0.0f);
  for (size_t r = 0; r < rows; ++r) {
    const float* row = m + r * cols;
    for (size_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

void SgdStepScalar(float* __restrict p, const float* __restrict g,
                   size_t n, float lr, float wd) {
  for (size_t i = 0; i < n; ++i) p[i] -= lr * (g[i] + wd * p[i]);
}

void SgdMomentumStepScalar(float* __restrict p, float* __restrict v,
                           const float* __restrict g, size_t n, float lr,
                           float momentum, float wd) {
  for (size_t i = 0; i < n; ++i) {
    v[i] = momentum * v[i] + g[i] + wd * p[i];
    p[i] -= lr * v[i];
  }
}

void AddProximalScalar(float* __restrict g, const float* __restrict p,
                       const float* __restrict ref, size_t n, float mu) {
  for (size_t i = 0; i < n; ++i) g[i] += mu * (p[i] - ref[i]);
}

const internal::KernelTable kScalarTable = {
    MatMulBody,          AddOuterBatchScalar, AddBiasRowsScalar,
    AddBiasReluRowsScalar, ReluMaskBackwardScalar, SoftmaxRowsScalar,
    ColumnSumsScalar,    SgdStepScalar,       SgdMomentumStepScalar,
    AddProximalScalar,
};

}  // namespace

namespace internal {

const KernelTable& ScalarKernelTable() { return kScalarTable; }

}  // namespace internal

// ---------------------------------------------------------------------------
// Public kernels: thin dispatchers through the active backend table.

void MatMulAcc(const float* __restrict a, size_t m, size_t k,
               const float* __restrict b, size_t n, float* __restrict c) {
  internal::ActiveKernelTable().mat_mul_body(a, m, k, b, n, c);
}

void MatMul(const float* __restrict a, size_t m, size_t k,
            const float* __restrict b, size_t n, float* __restrict c) {
  std::fill(c, c + m * n, 0.0f);
  internal::ActiveKernelTable().mat_mul_body(a, m, k, b, n, c);
}

void MatTMat(const float* __restrict a, size_t m, size_t k,
             const float* __restrict b, size_t n, float* __restrict c) {
  // Transpose a once, then run the product as a plain GEMM: the 4-row
  // micro-tile shares each b-row load across four output rows, which the
  // outer-product formulation (AddOuterBatch) cannot.
  static thread_local AlignedFloats at;
  at.resize(k * m);
  Transpose(a, m, k, at.data());
  std::fill(c, c + k * n, 0.0f);
  internal::ActiveKernelTable().mat_mul_body(at.data(), k, m, b, n, c);
}

void AddOuterBatch(float* __restrict acc, size_t rows, size_t cols,
                   float alpha, const float* __restrict a,
                   const float* __restrict b, size_t batch) {
  internal::ActiveKernelTable().add_outer_batch(acc, rows, cols, alpha, a,
                                                b, batch);
}

void AddBiasRows(float* __restrict m, size_t rows, size_t cols,
                 const float* __restrict bias) {
  internal::ActiveKernelTable().add_bias_rows(m, rows, cols, bias);
}

void AddBiasReluRows(float* __restrict m, size_t rows, size_t cols,
                     const float* __restrict bias) {
  internal::ActiveKernelTable().add_bias_relu_rows(m, rows, cols, bias);
}

void ReluMaskBackward(float* __restrict delta, const float* __restrict act,
                      size_t n) {
  internal::ActiveKernelTable().relu_mask_backward(delta, act, n);
}

void SoftmaxRows(float* m, size_t rows, size_t cols) {
  internal::ActiveKernelTable().softmax_rows(m, rows, cols);
}

void ColumnSums(const float* __restrict m, size_t rows, size_t cols,
                float* __restrict out) {
  internal::ActiveKernelTable().column_sums(m, rows, cols, out);
}

void SgdStep(float* __restrict p, const float* __restrict g, size_t n,
             float lr, float wd) {
  internal::ActiveKernelTable().sgd_step(p, g, n, lr, wd);
}

void SgdMomentumStep(float* __restrict p, float* __restrict v,
                     const float* __restrict g, size_t n, float lr,
                     float momentum, float wd) {
  internal::ActiveKernelTable().sgd_momentum_step(p, v, g, n, lr, momentum,
                                                  wd);
}

void AddProximal(float* __restrict g, const float* __restrict p,
                 const float* __restrict ref, size_t n, float mu) {
  internal::ActiveKernelTable().add_proximal(g, p, ref, n, mu);
}

Result<std::vector<double>> SolveLinearSystem(std::vector<double> a,
                                              std::vector<double> b, int n) {
  if (n <= 0) return Status::InvalidArgument("system dimension must be > 0");
  if (a.size() != static_cast<size_t>(n) * n) {
    return Status::InvalidArgument("matrix a must have exactly n*n entries");
  }
  if (b.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("vector b must have exactly n entries");
  }
  for (int col = 0; col < n; ++col) {
    // Partial pivoting.
    int pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (int r = col + 1; r < n; ++r) {
      double candidate = std::fabs(a[r * n + col]);
      if (candidate > best) {
        best = candidate;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::FailedPrecondition("singular linear system");
    }
    if (pivot != col) {
      for (int c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double diag = a[col * n + col];
    for (int r = col + 1; r < n; ++r) {
      double factor = a[r * n + col] / diag;
      if (factor == 0.0) continue;
      for (int c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (int r = n - 1; r >= 0; --r) {
    double acc = b[r];
    for (int c = r + 1; c < n; ++c) acc -= a[r * n + c] * x[c];
    x[r] = acc / a[r * n + r];
  }
  return x;
}

}  // namespace fedshap
