// AVX2+FMA microkernels backing the dispatch branches in rl/matrix.h,
// rl/mlp.cc, rl/normalizer.h and rl/adam.h. Raw-pointer interfaces so the
// header stays free of intrinsics; the implementations live in
// matrix_simd.cc, the only translation unit built with -mavx2 -mfma. None of
// these may be called unless simd::use_avx2() is true (the stub bodies on
// non-AVX2 builds abort).
//
// Accumulation-order contract (asserted by tests/simd_test.cc):
//  - dot_contract kernels (gemm_transB, matvec, one shared microkernel): per
//    output element, two 4-lane vertical accumulator chains step k by 8 and
//    are reduced in a fixed tree ((l0+l2)+(l1+l3) then +tail); the k%8
//    remainder is folded in scalar index order with std::fma. No k-tiling of
//    the reduction, so batched and per-sample results are bitwise identical.
//  - axpy-order kernels (gemm, gemm_transA, axpy, adam_span): identical
//    per-element sequential accumulation order as the scalar kernels; FMA
//    contraction is the only difference (ULP-level, single rounding).
//  - exact kernels (add_row_broadcast, add_col_sums, normalize_into): only
//    IEEE-exact ops in the same order — bitwise identical to scalar.
//  - tanh kernels: vectorized expm1-based tanh, a few ULP from std::tanh;
//    remainder lanes are computed inside a padded vector so an element's
//    result never depends on its position or the buffer length.
#pragma once

#include <cstddef>

namespace libra::simd {

// C (m x n) = A (m x k) * B^T (n x k), += C when `accumulate`.
void gemm_transB_avx2(const double* a, const double* b, double* c,
                      std::size_t m, std::size_t k, std::size_t n,
                      bool accumulate);

// y (rows) = W (rows x cols) * x (cols). Same dot contract as gemm_transB
// with m == 1, so per-sample inference matches batched rows bitwise.
void matvec_avx2(const double* w, const double* x, double* y,
                 std::size_t rows, std::size_t cols);

// C (m x n) = A (m x k) * B (k x n), += C when `accumulate`.
void gemm_avx2(const double* a, const double* b, double* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);

// C (m x n) = A^T, A (k x m), * B (k x n), += C when `accumulate`.
void gemm_transA_avx2(const double* a, const double* b, double* c,
                      std::size_t k, std::size_t m, std::size_t n,
                      bool accumulate);

// y += a * x.
void axpy_avx2(double* y, const double* x, double a, std::size_t n);

// Every row of m (rows x cols) += row. Bitwise identical to scalar.
void add_row_broadcast_avx2(double* m, const double* row, std::size_t rows,
                            std::size_t cols);

// out (cols) += column sums of m (rows x cols). Bitwise identical to scalar.
void add_col_sums_avx2(const double* m, double* out, std::size_t rows,
                       std::size_t cols);

// x[i] = tanh(x[i]). Position-independent tail handling.
void tanh_inplace_avx2(double* x, std::size_t n);

// g[i] *= 1 - act[i]^2 (tanh backprop through stored activations).
void tanh_backprop_avx2(double* g, const double* act, std::size_t n);

// Vectorized RunningNormalizer::normalize_into body. Bitwise identical to the
// scalar loop: var = count > 1 ? m2/ (count-1) : 1; sd = sqrt(var);
// z = sd > 1e-9 ? (x - mean)/sd : 0; out = clamp(z, -clip, clip).
void normalize_into_avx2(const double* sample, const double* mean,
                         const double* m2, std::size_t count, double clip,
                         double* out, std::size_t n);

// Least-squares slope over n interleaved {t, y} sample pairs (the AVX2 body
// of ls_slope in rl/matrix.h): returns den > 1e-12 ? num/den : 0. Own
// accumulation contract: one 4-lane vertical chain per sum
// (lane pattern fixed by the pair deinterleave), fixed tree reduction,
// scalar tail in index order — deterministic run-to-run, ULP-level drift
// from the scalar two-pass loop.
double ls_slope_avx2(const double* pairs, std::size_t n);

// Vectorized AdamOptimizer::update_span body; same per-element op order as
// the scalar loop with FMA contraction on the moment updates.
void adam_span_avx2(double* param, const double* grad, double* m, double* v,
                    std::size_t n, double grad_scale, double beta1,
                    double beta2, double bc1, double bc2, double lr,
                    double eps);

}  // namespace libra::simd
