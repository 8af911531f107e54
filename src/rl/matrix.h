// Dense row-major matrix and vector helpers sized for the small MLPs used by
// the RL congestion controllers, plus a small GEMM/GEMV kernel set operating
// on caller-owned buffers so training loops run allocation-free.
// No external dependencies.
//
// Every kernel dispatches once, via simd::use_avx2() (a relaxed atomic load),
// between the scalar bodies below — kept verbatim as the LIBRA_SIMD=off
// fallback, bitwise identical to pre-dispatch builds — and the AVX2+FMA
// microkernels in matrix_simd.cc. See rl/simd.h for the determinism contract.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "rl/matrix_simd.h"
#include "rl/simd.h"

namespace libra {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  /// Reshapes in place. Shrinking (or growing back within the high-water
  /// capacity) never allocates — workspaces size themselves once for the
  /// largest batch and then resize per minibatch for free.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  Vector& data() { return data_; }
  const Vector& data() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// y = W x, written into a caller-owned buffer (resized to `rows`); lets
  /// inference loops reuse scratch space instead of allocating per layer.
  /// Shape checks are assert-based: this is the per-ACK hot path, and every
  /// caller's dimensions are fixed at network construction.
  void multiply_into(const Vector& x, Vector& y) const {
    assert(x.size() == cols_ && "Matrix::multiply: dim mismatch");
    assert(&x != &y && "Matrix::multiply: aliased in/out");
    y.resize(rows_);
    if (simd::use_avx2()) {
      // Same dot contract as gemm_transB with m == 1, so per-sample
      // inference stays bitwise identical to batched rows.
      simd::matvec_avx2(data_.data(), x.data(), y.data(), rows_, cols_);
      return;
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      const double* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
  }

  /// y = W x  (rows x cols) * (cols) -> (rows)
  Vector multiply(const Vector& x) const {
    Vector y;
    multiply_into(x, y);
    return y;
  }

  /// y = W^T x, into a caller-owned buffer (resized to `cols`).
  void multiply_transposed_into(const Vector& x, Vector& y) const {
    assert(x.size() == rows_ && "multiply_transposed: dim mismatch");
    assert(&x != &y && "multiply_transposed: aliased in/out");
    y.assign(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * x[r];
    }
  }

  /// y = W^T x  (rows x cols)^T * (rows) -> (cols)
  Vector multiply_transposed(const Vector& x) const {
    Vector y;
    multiply_transposed_into(x, y);
    return y;
  }

  /// this += scale * (a outer b), a has `rows` entries, b has `cols` entries.
  void add_outer(const Vector& a, const Vector& b, double scale = 1.0) {
    assert(a.size() == rows_ && b.size() == cols_ && "add_outer: dim mismatch");
    for (std::size_t r = 0; r < rows_; ++r) {
      double* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) row[c] += scale * a[r] * b[c];
    }
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vector data_;
};

inline void axpy(Vector& y, const Vector& x, double a) {
  if (y.size() != x.size()) throw std::invalid_argument("axpy: dim mismatch");
  if (simd::use_avx2()) {
    simd::axpy_avx2(y.data(), x.data(), a, y.size());
    return;
  }
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

// --- Batched kernels --------------------------------------------------------
//
// All kernels write into caller-owned, pre-sized outputs and allocate nothing:
// they are the training hot path, driven per minibatch from Ppo::update.
// Shape checks are assert-based like the Matrix fast paths above. Accumulation
// order is fixed (row-major, leftmost index outermost) so results are bitwise
// reproducible and, for the batch dimension, identical to processing the rows
// one at a time.

/// C = A * B (+ C when `accumulate`). A (m x k), B (k x n), C (m x n).
inline void gemm(const Matrix& a, const Matrix& b, Matrix& c,
                 bool accumulate = false) {
  assert(a.cols() == b.rows() && "gemm: inner dim mismatch");
  assert(c.rows() == a.rows() && c.cols() == b.cols() && "gemm: out dim mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (simd::use_avx2()) {
    simd::gemm_avx2(a.data().data(), b.data().data(), c.data().data(), m, k, n,
                    accumulate);
    return;
  }
  if (!accumulate) c.fill(0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = &a.data()[i * k];
    double* crow = &c.data()[i * n];
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = arow[p];
      const double* brow = &b.data()[p * n];
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

/// C = A^T * B (+ C when `accumulate`). A (k x m), B (k x n), C (m x n).
/// With A = dZ and B = activations this accumulates a whole minibatch of
/// weight gradients in one pass, matching per-sample add_outer ordering.
inline void gemm_transA(const Matrix& a, const Matrix& b, Matrix& c,
                        bool accumulate = false) {
  assert(a.rows() == b.rows() && "gemm_transA: inner dim mismatch");
  assert(c.rows() == a.cols() && c.cols() == b.cols() && "gemm_transA: out dim mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (simd::use_avx2()) {
    simd::gemm_transA_avx2(a.data().data(), b.data().data(), c.data().data(),
                           k, m, n, accumulate);
    return;
  }
  if (!accumulate) c.fill(0.0);
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = &a.data()[p * m];
    const double* brow = &b.data()[p * n];
    for (std::size_t i = 0; i < m; ++i) {
      const double api = arow[i];
      double* crow = &c.data()[i * n];
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

/// C = A * B^T (+ C when `accumulate`). A (m x k), B (n x k), C (m x n).
/// The forward-pass shape: activations (batch x in) times weights (out x in).
///
/// Register-blocked 2x4: each step of the k loop feeds 8 independent
/// accumulator chains, hiding FP-add latency (a single-accumulator dot
/// product caps the whole MLP at one FMA per ~4 cycles). Every c(i,j) is
/// still a pure sequential sum over k, so results are bitwise identical to
/// the naive triple loop at any block size.
inline void gemm_transB(const Matrix& a, const Matrix& b, Matrix& c,
                        bool accumulate = false) {
  assert(a.cols() == b.cols() && "gemm_transB: inner dim mismatch");
  assert(c.rows() == a.rows() && c.cols() == b.rows() && "gemm_transB: out dim mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const double* adata = a.data().data();
  const double* bdata = b.data().data();
  double* cdata = c.data().data();
  if (simd::use_avx2()) {
    simd::gemm_transB_avx2(adata, bdata, cdata, m, k, n, accumulate);
    return;
  }

  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = adata + i * k;
    const double* a1 = a0 + k;
    double* c0 = cdata + i * n;
    double* c1 = c0 + n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = bdata + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double s00 = accumulate ? c0[j] : 0.0, s01 = accumulate ? c0[j + 1] : 0.0;
      double s02 = accumulate ? c0[j + 2] : 0.0, s03 = accumulate ? c0[j + 3] : 0.0;
      double s10 = accumulate ? c1[j] : 0.0, s11 = accumulate ? c1[j + 1] : 0.0;
      double s12 = accumulate ? c1[j + 2] : 0.0, s13 = accumulate ? c1[j + 3] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double x0 = a0[p], x1 = a1[p];
        const double w0 = b0[p], w1 = b1[p], w2 = b2[p], w3 = b3[p];
        s00 += x0 * w0; s01 += x0 * w1; s02 += x0 * w2; s03 += x0 * w3;
        s10 += x1 * w0; s11 += x1 * w1; s12 += x1 * w2; s13 += x1 * w3;
      }
      c0[j] = s00; c0[j + 1] = s01; c0[j + 2] = s02; c0[j + 3] = s03;
      c1[j] = s10; c1[j + 1] = s11; c1[j + 2] = s12; c1[j + 3] = s13;
    }
    for (; j < n; ++j) {
      const double* brow = bdata + j * k;
      double s0 = accumulate ? c0[j] : 0.0;
      double s1 = accumulate ? c1[j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s0 += a0[p] * brow[p];
        s1 += a1[p] * brow[p];
      }
      c0[j] = s0;
      c1[j] = s1;
    }
  }
  for (; i < m; ++i) {
    const double* arow = adata + i * k;
    double* crow = cdata + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = bdata + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double s0 = accumulate ? crow[j] : 0.0, s1 = accumulate ? crow[j + 1] : 0.0;
      double s2 = accumulate ? crow[j + 2] : 0.0, s3 = accumulate ? crow[j + 3] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double x = arow[p];
        s0 += x * b0[p]; s1 += x * b1[p]; s2 += x * b2[p]; s3 += x * b3[p];
      }
      crow[j] = s0; crow[j + 1] = s1; crow[j + 2] = s2; crow[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* brow = bdata + j * k;
      double acc = accumulate ? crow[j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

/// Every row of `m` += `row` (bias broadcast over a batch).
inline void add_row_broadcast(Matrix& m, const Vector& row) {
  assert(m.cols() == row.size() && "add_row_broadcast: dim mismatch");
  if (simd::use_avx2()) {
    simd::add_row_broadcast_avx2(m.data().data(), row.data(), m.rows(),
                                 m.cols());
    return;
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* r = &m.data()[i * m.cols()];
    for (std::size_t j = 0; j < m.cols(); ++j) r[j] += row[j];
  }
}

/// out += column sums of `m` (batch reduction of bias gradients).
inline void add_col_sums(const Matrix& m, Vector& out) {
  assert(m.cols() == out.size() && "add_col_sums: dim mismatch");
  if (simd::use_avx2()) {
    simd::add_col_sums_avx2(m.data().data(), out.data(), m.rows(), m.cols());
    return;
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* r = &m.data()[i * m.cols()];
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += r[j];
  }
}

/// Least-squares slope over n interleaved {t, y} pairs: den > 1e-12 ?
/// num/den : 0 (the RTT gradient of StatsWindow and MiCollector). The AVX2
/// body keeps its own accumulation contract (see rl/matrix_simd.h).
inline double ls_slope(const double* pairs, std::size_t n) {
  if (n < 2) return 0.0;
  if (simd::use_avx2()) return simd::ls_slope_avx2(pairs, n);
  double mt = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mt += pairs[2 * i];
    my += pairs[2 * i + 1];
  }
  mt /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (pairs[2 * i] - mt) * (pairs[2 * i + 1] - my);
    den += (pairs[2 * i] - mt) * (pairs[2 * i] - mt);
  }
  return den > 1e-12 ? num / den : 0.0;
}

inline double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: dim mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace libra
