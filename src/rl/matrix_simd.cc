// AVX2+FMA kernel implementations. This is the only translation unit built
// with -mavx2 -mfma; everything else stays at the baseline ISA so the binary
// runs on any x86-64 (the dispatch in rl/simd.cc never routes here unless
// CPUID says the host can execute it).
//
// See matrix_simd.h for the accumulation-order contract each kernel obeys.
#include "rl/matrix_simd.h"

#include "rl/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace libra::simd {

bool compiled_with_avx2() { return true; }

namespace {

// --- The shared dot-product contract ---------------------------------------
//
// Every dot product (matvec, gemm_transB, any register blocking)
// is the same sequence of FP operations per output element: two 4-lane FMA
// chains over k in steps of 8, a fixed reduction tree, then the k%8 tail in
// scalar index order via std::fma. Register-blocked variants below interleave
// several such independent chains; interleaving never changes any single
// output's operation sequence, so all variants agree bitwise.

inline double reduce_tree(__m256d acc0, __m256d acc1) {
  const __m256d s = _mm256_add_pd(acc0, acc1);
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {s0+s2, s1+s3}
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

inline double fma_tail(const double* a, const double* b, std::size_t from,
                       std::size_t k, double s) {
  for (std::size_t p = from; p < k; ++p) s = std::fma(a[p], b[p], s);
  return s;
}

inline double dot1(const double* a, const double* b, std::size_t k) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + p), _mm256_loadu_pd(b + p), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + p + 4),
                           _mm256_loadu_pd(b + p + 4), acc1);
  }
  return fma_tail(a, b, p, k, reduce_tree(acc0, acc1));
}

// dot(a, b0) and dot(a, b1) with one pass over a.
inline void dot_1x2(const double* a, const double* b0, const double* b1,
                    std::size_t k, double& s0, double& s1) {
  __m256d p00 = _mm256_setzero_pd(), p01 = _mm256_setzero_pd();
  __m256d p10 = _mm256_setzero_pd(), p11 = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256d a0 = _mm256_loadu_pd(a + p);
    const __m256d a1 = _mm256_loadu_pd(a + p + 4);
    p00 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + p), p00);
    p01 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b0 + p + 4), p01);
    p10 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b1 + p), p10);
    p11 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + p + 4), p11);
  }
  s0 = fma_tail(a, b0, p, k, reduce_tree(p00, p01));
  s1 = fma_tail(a, b1, p, k, reduce_tree(p10, p11));
}

// The 2x2 microkernel: dots of two a-rows against two b-rows, eight
// independent accumulator chains (the full ymm budget after loads).
inline void dot_2x2(const double* a0, const double* a1, const double* b0,
                    const double* b1, std::size_t k, double& s00, double& s01,
                    double& s10, double& s11) {
  __m256d q00 = _mm256_setzero_pd(), q01 = _mm256_setzero_pd();
  __m256d q02 = _mm256_setzero_pd(), q03 = _mm256_setzero_pd();
  __m256d q10 = _mm256_setzero_pd(), q11 = _mm256_setzero_pd();
  __m256d q12 = _mm256_setzero_pd(), q13 = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256d va0 = _mm256_loadu_pd(a0 + p);
    const __m256d va1 = _mm256_loadu_pd(a0 + p + 4);
    const __m256d vb0 = _mm256_loadu_pd(a1 + p);
    const __m256d vb1 = _mm256_loadu_pd(a1 + p + 4);
    const __m256d w00 = _mm256_loadu_pd(b0 + p);
    const __m256d w01 = _mm256_loadu_pd(b0 + p + 4);
    const __m256d w10 = _mm256_loadu_pd(b1 + p);
    const __m256d w11 = _mm256_loadu_pd(b1 + p + 4);
    q00 = _mm256_fmadd_pd(va0, w00, q00);
    q01 = _mm256_fmadd_pd(va1, w01, q01);
    q02 = _mm256_fmadd_pd(va0, w10, q02);
    q03 = _mm256_fmadd_pd(va1, w11, q03);
    q10 = _mm256_fmadd_pd(vb0, w00, q10);
    q11 = _mm256_fmadd_pd(vb1, w01, q11);
    q12 = _mm256_fmadd_pd(vb0, w10, q12);
    q13 = _mm256_fmadd_pd(vb1, w11, q13);
  }
  s00 = fma_tail(a0, b0, p, k, reduce_tree(q00, q01));
  s01 = fma_tail(a0, b1, p, k, reduce_tree(q02, q03));
  s10 = fma_tail(a1, b0, p, k, reduce_tree(q10, q11));
  s11 = fma_tail(a1, b1, p, k, reduce_tree(q12, q13));
}

// C (m x n) = A (m x k) * B^T (n x k), += C when `accumulate`.
void transB(const double* a, const double* b, double* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    double* c0 = c + i * n;
    double* c1 = c0 + n;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      double s00, s01, s10, s11;
      dot_2x2(a0, a1, b + j * k, b + (j + 1) * k, k, s00, s01, s10, s11);
      c0[j] = accumulate ? c0[j] + s00 : s00;
      c0[j + 1] = accumulate ? c0[j + 1] + s01 : s01;
      c1[j] = accumulate ? c1[j] + s10 : s10;
      c1[j + 1] = accumulate ? c1[j + 1] + s11 : s11;
    }
    for (; j < n; ++j) {
      double s0, s1;
      dot_1x2(b + j * k, a0, a1, k, s0, s1);  // mul commutes: dot(b,a)==dot(a,b)
      c0[j] = accumulate ? c0[j] + s0 : s0;
      c1[j] = accumulate ? c1[j] + s1 : s1;
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      double s0, s1;
      dot_1x2(arow, b + j * k, b + (j + 1) * k, k, s0, s1);
      crow[j] = accumulate ? crow[j] + s0 : s0;
      crow[j + 1] = accumulate ? crow[j + 1] + s1 : s1;
    }
    for (; j < n; ++j) {
      const double s = dot1(arow, b + j * k, k);
      crow[j] = accumulate ? crow[j] + s : s;
    }
  }
}

}  // namespace

void gemm_transB_avx2(const double* a, const double* b, double* c,
                      std::size_t m, std::size_t k, std::size_t n,
                      bool accumulate) {
  transB(a, b, c, m, k, n, accumulate);
}

void matvec_avx2(const double* w, const double* x, double* y, std::size_t rows,
                 std::size_t cols) {
  transB(x, w, y, 1, cols, rows, /*accumulate=*/false);
}

void gemm_avx2(const double* a, const double* b, double* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  // C strips stay in registers across the whole k loop; B panels (k x strip)
  // are reused across every row of A. Per element the accumulation is the
  // scalar kernel's p-ascending order, with FMA contraction.
  std::size_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * n + j0;
      __m256d c0, c1, c2, c3;
      if (accumulate) {
        c0 = _mm256_loadu_pd(crow);
        c1 = _mm256_loadu_pd(crow + 4);
        c2 = _mm256_loadu_pd(crow + 8);
        c3 = _mm256_loadu_pd(crow + 12);
      } else {
        c0 = c1 = c2 = c3 = _mm256_setzero_pd();
      }
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(arow[p]);
        const double* brow = b + p * n + j0;
        c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow), c0);
        c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 4), c1);
        c2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 8), c2);
        c3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 12), c3);
      }
      _mm256_storeu_pd(crow, c0);
      _mm256_storeu_pd(crow + 4, c1);
      _mm256_storeu_pd(crow + 8, c2);
      _mm256_storeu_pd(crow + 12, c3);
    }
  }
  for (; j0 + 4 <= n; j0 += 4) {
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * n + j0;
      __m256d c0 = accumulate ? _mm256_loadu_pd(crow) : _mm256_setzero_pd();
      for (std::size_t p = 0; p < k; ++p) {
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(arow[p]),
                             _mm256_loadu_pd(b + p * n + j0), c0);
      }
      _mm256_storeu_pd(crow, c0);
    }
  }
  for (; j0 < n; ++j0) {
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double acc = accumulate ? c[i * n + j0] : 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc = std::fma(arow[p], b[p * n + j0], acc);
      c[i * n + j0] = acc;
    }
  }
}

void gemm_transA_avx2(const double* a, const double* b, double* c,
                      std::size_t k, std::size_t m, std::size_t n,
                      bool accumulate) {
  // A (k x m) column i is the broadcast source: identical structure to
  // gemm_avx2 with a strided a access.
  std::size_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    for (std::size_t i = 0; i < m; ++i) {
      double* crow = c + i * n + j0;
      __m256d c0, c1, c2, c3;
      if (accumulate) {
        c0 = _mm256_loadu_pd(crow);
        c1 = _mm256_loadu_pd(crow + 4);
        c2 = _mm256_loadu_pd(crow + 8);
        c3 = _mm256_loadu_pd(crow + 12);
      } else {
        c0 = c1 = c2 = c3 = _mm256_setzero_pd();
      }
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(a[p * m + i]);
        const double* brow = b + p * n + j0;
        c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow), c0);
        c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 4), c1);
        c2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 8), c2);
        c3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 12), c3);
      }
      _mm256_storeu_pd(crow, c0);
      _mm256_storeu_pd(crow + 4, c1);
      _mm256_storeu_pd(crow + 8, c2);
      _mm256_storeu_pd(crow + 12, c3);
    }
  }
  for (; j0 + 4 <= n; j0 += 4) {
    for (std::size_t i = 0; i < m; ++i) {
      double* crow = c + i * n + j0;
      __m256d c0 = accumulate ? _mm256_loadu_pd(crow) : _mm256_setzero_pd();
      for (std::size_t p = 0; p < k; ++p) {
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(a[p * m + i]),
                             _mm256_loadu_pd(b + p * n + j0), c0);
      }
      _mm256_storeu_pd(crow, c0);
    }
  }
  for (; j0 < n; ++j0) {
    for (std::size_t i = 0; i < m; ++i) {
      double acc = accumulate ? c[i * n + j0] : 0.0;
      for (std::size_t p = 0; p < k; ++p)
        acc = std::fma(a[p * m + i], b[p * n + j0], acc);
      c[i * n + j0] = acc;
    }
  }
}

void axpy_avx2(double* y, const double* x, double a, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(y + i + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4),
                                                _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

void add_row_broadcast_avx2(double* m, const double* row, std::size_t rows,
                            std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* r = m + i * cols;
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      _mm256_storeu_pd(
          r + j, _mm256_add_pd(_mm256_loadu_pd(r + j), _mm256_loadu_pd(row + j)));
    }
    for (; j < cols; ++j) r[j] += row[j];
  }
}

void add_col_sums_avx2(const double* m, double* out, std::size_t rows,
                       std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* r = m + i * cols;
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                              _mm256_loadu_pd(r + j)));
    }
    for (; j < cols; ++j) out[j] += r[j];
  }
}

namespace {

// Vector tanh via tanh(x) = -u / (u + 2), u = expm1(-2|x|), sign restored at
// the end. One formula for the whole range keeps the kernel branch-free:
// expm1 stays accurate near zero (no cancellation in -u/(u+2)), and |x| >= 22
// saturates to exactly +-1 (tanh(22) rounds to 1 in double). Accuracy is a
// few ULP against std::tanh — asserted by tests/simd_test.cc.
inline __m256d tanh4(__m256d x) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);

  // t = -2|x| in (-44, 0]; expm1(t) by Cephes-style range reduction:
  // t = n*ln2 + r, |r| <= ln2/2, expm1(t) = 2^n * (1 + p(r)) - 1 with p the
  // degree-13 Taylor polynomial of e^r - 1 (truncation ~4e-18 at |r|=0.35).
  const __m256d t = _mm256_mul_pd(ax, _mm256_set1_pd(-2.0));
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(t, _mm256_set1_pd(1.44269504088896340736)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(6.93147180369123816490e-01), t);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(1.90821492927058770002e-10), r);

  __m256d q = _mm256_set1_pd(1.0 / 6227020800.0);  // 1/13!
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 479001600.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 39916800.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 3628800.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 362880.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 40320.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 5040.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 720.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 120.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 24.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 6.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(0.5));
  // p = r + r^2 * q, in one FMA so p -> r exactly as r -> 0.
  const __m256d p = _mm256_fmadd_pd(r, _mm256_mul_pd(r, q), r);

  // 2^n via exponent-field arithmetic (n is integral, -64 <= n <= 0), then
  // expm1 = 2^n * p + (2^n - 1): exact 2^n - 1 plus one FMA keeps the
  // reconstruction to ~1 ulp even when n < 0 eats a bit in cancellation.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256d two_n = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52));
  const __m256d em = _mm256_fmadd_pd(two_n, p, _mm256_sub_pd(two_n, one));

  // tanh(|x|) = -em / (em + 2), then saturate and restore sign. NaN inputs
  // ride the arithmetic through (blendv keeps the NaN lane: the >= compare
  // is false), infinities hit the saturation blend.
  const __m256d den = _mm256_add_pd(em, _mm256_set1_pd(2.0));
  __m256d res = _mm256_div_pd(_mm256_xor_pd(em, sign_mask), den);
  const __m256d sat = _mm256_cmp_pd(ax, _mm256_set1_pd(22.0), _CMP_GE_OQ);
  res = _mm256_blendv_pd(res, one, sat);
  // x = +-0 leaves a stray -0 in res (em = +0, xor flips it); clear the sign
  // before restoring the input's, so tanh(+-0) = +-0 exactly.
  res = _mm256_andnot_pd(sign_mask, res);
  return _mm256_or_pd(res, sign);
}

}  // namespace

void tanh_inplace_avx2(double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, tanh4(_mm256_loadu_pd(x + i)));
  if (i < n) {
    // Pad the remainder into a full vector so each element's result is
    // independent of its position and of the buffer length (keeps batched
    // and per-sample activations bitwise identical at odd widths).
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) buf[j - i] = x[j];
    _mm256_store_pd(buf, tanh4(_mm256_load_pd(buf)));
    for (std::size_t j = i; j < n; ++j) x[j] = buf[j - i];
  }
}

void tanh_backprop_avx2(double* g, const double* act, std::size_t n) {
  // Deliberately mul/sub/mul (no FMA): bitwise identical to the scalar loop
  // g[j] *= 1.0 - act[j]*act[j].
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(act + i);
    const __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(a, a));
    _mm256_storeu_pd(g + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), d));
  }
  for (; i < n; ++i) g[i] *= 1.0 - act[i] * act[i];
}

void normalize_into_avx2(const double* sample, const double* mean,
                         const double* m2, std::size_t count, double clip,
                         double* out, std::size_t n) {
  // Exact IEEE ops only (div, sqrt, sub, compares, min/max): bitwise
  // identical to the scalar loop in RunningNormalizer::normalize_into.
  const bool have_var = count > 1;
  const __m256d inv_df =
      _mm256_set1_pd(have_var ? static_cast<double>(count - 1) : 1.0);
  const __m256d lo = _mm256_set1_pd(-clip);
  const __m256d hi = _mm256_set1_pd(clip);
  const __m256d sd_floor = _mm256_set1_pd(1e-9);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d var = have_var
                            ? _mm256_div_pd(_mm256_loadu_pd(m2 + i), inv_df)
                            : one;
    const __m256d sd = _mm256_sqrt_pd(var);
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(sample + i), _mm256_loadu_pd(mean + i));
    const __m256d z_raw = _mm256_div_pd(diff, sd);
    const __m256d ok = _mm256_cmp_pd(sd, sd_floor, _CMP_GT_OQ);
    const __m256d z = _mm256_blendv_pd(zero, z_raw, ok);
    _mm256_storeu_pd(out + i, _mm256_min_pd(_mm256_max_pd(z, lo), hi));
  }
  for (; i < n; ++i) {
    const double var = have_var ? m2[i] / static_cast<double>(count - 1) : 1.0;
    const double sd = std::sqrt(var);
    const double z = sd > 1e-9 ? (sample[i] - mean[i]) / sd : 0.0;
    out[i] = std::clamp(z, -clip, clip);
  }
}

double ls_slope_avx2(const double* pairs, std::size_t n) {
  if (n < 2) return 0.0;
  const auto reduce4 = [](__m256d v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);  // {v0+v2, v1+v3}
    return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  };
  // Pass 1: means. Deinterleave 4 {t, y} pairs per step; the unpack puts
  // lanes in {0, 2, 1, 3} sample order, which is part of this kernel's fixed
  // accumulation contract.
  __m256d st = _mm256_setzero_pd();
  __m256d sy = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v0 = _mm256_loadu_pd(pairs + 2 * i);
    const __m256d v1 = _mm256_loadu_pd(pairs + 2 * i + 4);
    st = _mm256_add_pd(st, _mm256_unpacklo_pd(v0, v1));
    sy = _mm256_add_pd(sy, _mm256_unpackhi_pd(v0, v1));
  }
  double mt = reduce4(st), my = reduce4(sy);
  for (; i < n; ++i) {
    mt += pairs[2 * i];
    my += pairs[2 * i + 1];
  }
  mt /= static_cast<double>(n);
  my /= static_cast<double>(n);
  // Pass 2: centered cross- and self-products.
  const __m256d vmt = _mm256_set1_pd(mt);
  const __m256d vmy = _mm256_set1_pd(my);
  __m256d vnum = _mm256_setzero_pd();
  __m256d vden = _mm256_setzero_pd();
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v0 = _mm256_loadu_pd(pairs + 2 * i);
    const __m256d v1 = _mm256_loadu_pd(pairs + 2 * i + 4);
    const __m256d dt = _mm256_sub_pd(_mm256_unpacklo_pd(v0, v1), vmt);
    const __m256d dy = _mm256_sub_pd(_mm256_unpackhi_pd(v0, v1), vmy);
    vnum = _mm256_fmadd_pd(dt, dy, vnum);
    vden = _mm256_fmadd_pd(dt, dt, vden);
  }
  double num = reduce4(vnum), den = reduce4(vden);
  for (; i < n; ++i) {
    const double dt = pairs[2 * i] - mt;
    const double dy = pairs[2 * i + 1] - my;
    num = std::fma(dt, dy, num);
    den = std::fma(dt, dt, den);
  }
  return den > 1e-12 ? num / den : 0.0;
}

void adam_span_avx2(double* param, const double* grad, double* m, double* v,
                    std::size_t n, double grad_scale, double beta1,
                    double beta2, double bc1, double bc2, double lr,
                    double eps) {
  const __m256d vscale = _mm256_set1_pd(grad_scale);
  const __m256d vb1 = _mm256_set1_pd(beta1);
  const __m256d vb2 = _mm256_set1_pd(beta2);
  const __m256d vomb1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d vomb2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grad + i), vscale);
    const __m256d mi =
        _mm256_fmadd_pd(vb1, _mm256_loadu_pd(m + i), _mm256_mul_pd(vomb1, g));
    const __m256d vi = _mm256_fmadd_pd(
        vb2, _mm256_loadu_pd(v + i), _mm256_mul_pd(_mm256_mul_pd(vomb2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d denom =
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vi, vbc2)), veps);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(vlr, _mm256_div_pd(mi, vbc1)), denom);
    _mm256_storeu_pd(param + i, _mm256_sub_pd(_mm256_loadu_pd(param + i), step));
  }
  const double omb1 = 1.0 - beta1, omb2 = 1.0 - beta2;
  for (; i < n; ++i) {
    const double g = grad[i] * grad_scale;
    m[i] = std::fma(beta1, m[i], omb1 * g);
    v[i] = std::fma(beta2, v[i], omb2 * g * g);
    param[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
  }
}

}  // namespace libra::simd

#else  // !(__AVX2__ && __FMA__)

// Stub bodies for toolchains that can't target AVX2: compiled_with_avx2()
// pins dispatch to scalar, so none of these can be reached.
#include <cstdlib>

namespace libra::simd {

bool compiled_with_avx2() { return false; }

void gemm_transB_avx2(const double*, const double*, double*, std::size_t,
                      std::size_t, std::size_t, bool) {
  std::abort();
}
void matvec_avx2(const double*, const double*, double*, std::size_t,
                 std::size_t) {
  std::abort();
}
void gemm_avx2(const double*, const double*, double*, std::size_t, std::size_t,
               std::size_t, bool) {
  std::abort();
}
void gemm_transA_avx2(const double*, const double*, double*, std::size_t,
                      std::size_t, std::size_t, bool) {
  std::abort();
}
void axpy_avx2(double*, const double*, double, std::size_t) { std::abort(); }
void add_row_broadcast_avx2(double*, const double*, std::size_t, std::size_t) {
  std::abort();
}
void add_col_sums_avx2(const double*, double*, std::size_t, std::size_t) {
  std::abort();
}
void tanh_inplace_avx2(double*, std::size_t) { std::abort(); }
void tanh_backprop_avx2(double*, const double*, std::size_t) { std::abort(); }
void normalize_into_avx2(const double*, const double*, const double*,
                         std::size_t, double, double*, std::size_t) {
  std::abort();
}
double ls_slope_avx2(const double*, std::size_t) { std::abort(); }
void adam_span_avx2(double*, const double*, double*, double*, std::size_t,
                    double, double, double, double, double, double, double) {
  std::abort();
}

}  // namespace libra::simd

#endif
