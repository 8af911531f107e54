// Scalar-vs-AVX2 kernel equivalence, the determinism contract from rl/simd.h,
// and the LIBRA_SIMD dispatch overrides.
//
// Structure mirrors the contract classes in rl/matrix_simd.h:
//  - dot-contract and axpy-order kernels match scalar within a ULP-style
//    bound scaled by the magnitude sum of the contracted terms (FMA's single
//    rounding and the lane-tree reduction are the only differences);
//  - exact kernels (row broadcast, column sums, normalize_into, tanh
//    backprop) match scalar bitwise;
//  - the AVX2 path is bitwise stable run-to-run, and batched == per-sample
//    at odd widths;
//  - vectorized tanh tracks std::tanh to ~1e-15 and handles ±0/±inf/NaN and
//    saturation, with position-independent remainder lanes.
//
// Every AVX2-dependent case GTEST_SKIPs on hosts without AVX2+FMA, so the
// suite stays green on any x86-64 or non-x86 runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "rl/adam.h"
#include "rl/matrix.h"
#include "rl/matrix_simd.h"
#include "rl/mlp.h"
#include "rl/normalizer.h"
#include "rl/simd.h"
#include "util/rng.h"

namespace libra {
namespace {

/// Forces an ISA for the scope and restores the previous decision on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : prev_(simd::active()) { simd::force(isa); }
  ~ScopedIsa() { simd::force(prev_); }

 private:
  simd::Isa prev_;
};

bool have_avx2() { return simd::avx2_supported(); }

void fill_uniform(Vector& v, Rng& rng, double lo = -1.0, double hi = 1.0) {
  for (double& x : v) x = rng.uniform(lo, hi);
}

void fill_uniform(Matrix& m, Rng& rng, double lo = -1.0, double hi = 1.0) {
  fill_uniform(m.data(), rng, lo, hi);
}

/// Error budget for a reordered/contracted sum: a few epsilons of the
/// magnitude sum of the contracted terms (the classic forward-error bound for
/// two different summation orders), plus an absolute floor for results near 0.
double contraction_tolerance(double magnitude_sum) {
  return 32.0 * std::numeric_limits<double>::epsilon() * magnitude_sum + 1e-300;
}

/// Scalar gemm_transB reference with a per-element magnitude sum, used to
/// bound the AVX2 kernel's reordered accumulation.
void reference_transB(const Matrix& a, const Matrix& b, Matrix& c,
                      Matrix& mags, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = accumulate ? c(i, j) : 0.0;
      double mag = std::abs(acc);
      for (std::size_t p = 0; p < k; ++p) {
        acc += a(i, p) * b(j, p);
        mag += std::abs(a(i, p) * b(j, p));
      }
      c(i, j) = acc;
      mags(i, j) = mag;
    }
  }
}

// --- Dispatch ---------------------------------------------------------------

TEST(SimdDispatch, EnvValueMapping) {
  const simd::Isa best = have_avx2() ? simd::Isa::kAvx2 : simd::Isa::kScalar;
  EXPECT_EQ(simd::isa_from_env_value(nullptr), best);
  EXPECT_EQ(simd::isa_from_env_value(""), best);
  EXPECT_EQ(simd::isa_from_env_value("auto"), best);
  EXPECT_EQ(simd::isa_from_env_value("on"), best);
  EXPECT_EQ(simd::isa_from_env_value("1"), best);
  EXPECT_EQ(simd::isa_from_env_value("off"), simd::Isa::kScalar);
  EXPECT_EQ(simd::isa_from_env_value("scalar"), simd::Isa::kScalar);
  EXPECT_EQ(simd::isa_from_env_value("0"), simd::Isa::kScalar);
  // "avx2" is a request, capped by what the host supports.
  EXPECT_EQ(simd::isa_from_env_value("avx2"), best);
}

TEST(SimdDispatch, EnvOverrideReinstallsDecision) {
  const simd::Isa before = simd::active();
  ASSERT_EQ(setenv("LIBRA_SIMD", "off", 1), 0);
  EXPECT_EQ(simd::init_from_env(), simd::Isa::kScalar);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  EXPECT_FALSE(simd::use_avx2());
  ASSERT_EQ(unsetenv("LIBRA_SIMD"), 0);
  const simd::Isa redetected = simd::init_from_env();
  EXPECT_EQ(redetected, have_avx2() ? simd::Isa::kAvx2 : simd::Isa::kScalar);
  simd::force(before);
}

TEST(SimdDispatch, ForceCapsAtHostSupport) {
  const simd::Isa before = simd::active();
  const simd::Isa got = simd::force(simd::Isa::kAvx2);
  EXPECT_EQ(got, have_avx2() ? simd::Isa::kAvx2 : simd::Isa::kScalar);
  EXPECT_EQ(simd::force(simd::Isa::kScalar), simd::Isa::kScalar);
  simd::force(before);
}

TEST(SimdDispatch, IsaNames) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
}

// --- Dot-contract kernels ---------------------------------------------------

TEST(SimdKernels, GemmTransBMatchesScalarWithinUlps) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(101);
  // Shapes straddle every remainder case: k % 8 in 0..7, odd n/m edges.
  const std::size_t ms[] = {1, 2, 3, 5};
  const std::size_t ks[] = {1, 3, 7, 8, 9, 16, 23, 64};
  const std::size_t ns[] = {1, 2, 3, 4, 5, 17};
  for (std::size_t m : ms)
    for (std::size_t k : ks)
      for (std::size_t n : ns)
        for (bool accumulate : {false, true}) {
          Matrix a(m, k), b(n, k), c0(m, n), c1(m, n), ref(m, n), mags(m, n);
          fill_uniform(a, rng);
          fill_uniform(b, rng);
          fill_uniform(c0, rng);
          c1.data() = c0.data();
          ref.data() = c0.data();
          reference_transB(a, b, ref, mags, accumulate);
          {
            ScopedIsa scalar(simd::Isa::kScalar);
            gemm_transB(a, b, c0, accumulate);
          }
          {
            ScopedIsa avx2(simd::Isa::kAvx2);
            gemm_transB(a, b, c1, accumulate);
          }
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j) {
              const double tol = contraction_tolerance(mags(i, j));
              EXPECT_NEAR(c0(i, j), ref(i, j), tol)
                  << "scalar vs naive at (" << i << "," << j << ") m=" << m
                  << " k=" << k << " n=" << n;
              EXPECT_NEAR(c1(i, j), ref(i, j), tol)
                  << "avx2 vs naive at (" << i << "," << j << ") m=" << m
                  << " k=" << k << " n=" << n;
            }
        }
}

TEST(SimdKernels, MatvecMatchesBatchedRowBitwise) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  ScopedIsa avx2(simd::Isa::kAvx2);
  Rng rng(7);
  for (std::size_t rows : {1u, 3u, 17u})
    for (std::size_t cols : {1u, 5u, 8u, 13u, 64u}) {
      Matrix w(rows, cols);
      fill_uniform(w, rng);
      Vector x(cols);
      fill_uniform(x, rng);
      // Per-sample inference (matvec) against the same row pushed through the
      // batched gemm_transB path: the shared dot contract makes them equal.
      Vector y;
      w.multiply_into(x, y);
      Matrix xb(1, cols), yb(1, rows);
      xb.data() = x;
      gemm_transB(xb, w, yb, false);
      for (std::size_t r = 0; r < rows; ++r) EXPECT_EQ(y[r], yb(0, r));
    }
}

TEST(SimdKernels, Avx2PathIsBitwiseStableRunToRun) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  ScopedIsa avx2(simd::Isa::kAvx2);
  Rng rng(29);
  Matrix a(4, 19), b(11, 19), c1(4, 11), c2(4, 11);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  gemm_transB(a, b, c1, false);
  gemm_transB(a, b, c2, false);
  EXPECT_EQ(c1.data(), c2.data());
  Vector x(19), y1, y2;
  fill_uniform(x, rng);
  Matrix w(7, 19);
  fill_uniform(w, rng);
  w.multiply_into(x, y1);
  w.multiply_into(x, y2);
  EXPECT_EQ(y1, y2);
}

// --- Axpy-order kernels -----------------------------------------------------

TEST(SimdKernels, GemmMatchesScalarWithinUlps) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(211);
  for (std::size_t m : {1u, 2u, 5u})
    for (std::size_t k : {1u, 3u, 9u, 32u})
      for (std::size_t n : {1u, 3u, 4u, 7u, 19u})
        for (bool accumulate : {false, true}) {
          Matrix a(m, k), b(k, n), c0(m, n), c1(m, n);
          fill_uniform(a, rng);
          fill_uniform(b, rng);
          fill_uniform(c0, rng);
          c1.data() = c0.data();
          // Magnitude bound per output: sum over p of |a(i,p) * b(p,j)|.
          Matrix mags(m, n);
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j) {
              double mag = accumulate ? std::abs(c0(i, j)) : 0.0;
              for (std::size_t p = 0; p < k; ++p)
                mag += std::abs(a(i, p) * b(p, j));
              mags(i, j) = mag;
            }
          {
            ScopedIsa scalar(simd::Isa::kScalar);
            gemm(a, b, c0, accumulate);
          }
          {
            ScopedIsa avx2(simd::Isa::kAvx2);
            gemm(a, b, c1, accumulate);
          }
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
              EXPECT_NEAR(c0(i, j), c1(i, j), contraction_tolerance(mags(i, j)))
                  << "(" << i << "," << j << ") m=" << m << " k=" << k
                  << " n=" << n << " acc=" << accumulate;
        }
}

TEST(SimdKernels, GemmTransAMatchesScalarWithinUlps) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(223);
  for (std::size_t k : {1u, 2u, 9u, 17u})
    for (std::size_t m : {1u, 3u, 8u})
      for (std::size_t n : {1u, 5u, 12u}) {
        Matrix a(k, m), b(k, n), c0(m, n), c1(m, n);
        fill_uniform(a, rng);
        fill_uniform(b, rng);
        {
          ScopedIsa scalar(simd::Isa::kScalar);
          gemm_transA(a, b, c0, false);
        }
        {
          ScopedIsa avx2(simd::Isa::kAvx2);
          gemm_transA(a, b, c1, false);
        }
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            double mag = 0;
            for (std::size_t p = 0; p < k; ++p)
              mag += std::abs(a(p, i) * b(p, j));
            EXPECT_NEAR(c0(i, j), c1(i, j), contraction_tolerance(mag))
                << "(" << i << "," << j << ") k=" << k << " m=" << m
                << " n=" << n;
          }
      }
}

TEST(SimdKernels, AxpyMatchesScalarWithinUlps) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(31);
  for (std::size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 100u}) {
    Vector x(n), y0(n), y1(n);
    fill_uniform(x, rng);
    fill_uniform(y0, rng);
    y1 = y0;
    const double a = rng.uniform(-2.0, 2.0);
    {
      ScopedIsa scalar(simd::Isa::kScalar);
      axpy(y0, x, a);
    }
    {
      ScopedIsa avx2(simd::Isa::kAvx2);
      axpy(y1, x, a);
    }
    // One FMA contraction per element: at most one rounding of difference.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(y0[i], y1[i],
                  contraction_tolerance(std::abs(y0[i]) + std::abs(a * x[i])))
          << "i=" << i << " n=" << n;
  }
}

TEST(SimdKernels, AdamSpanMatchesScalarWithinUlps) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(41);
  for (std::size_t n : {1u, 2u, 5u, 8u, 13u, 67u}) {
    // Two identical nets stepped once each on the same gradients, one per ISA.
    Rng init(5);
    Mlp net0({n, 3}, init);
    Rng init2(5);
    Mlp net1({n, 3}, init2);
    for (Mlp::Layer& l : net0.layers()) {
      fill_uniform(l.grad_weights, rng);
      fill_uniform(l.grad_bias, rng);
    }
    for (std::size_t li = 0; li < net0.layers().size(); ++li) {
      net1.layers()[li].grad_weights.data() =
          net0.layers()[li].grad_weights.data();
      net1.layers()[li].grad_bias = net0.layers()[li].grad_bias;
    }
    AdamOptimizer opt0(net0), opt1(net1);
    {
      ScopedIsa scalar(simd::Isa::kScalar);
      opt0.step(0.5);
    }
    {
      ScopedIsa avx2(simd::Isa::kAvx2);
      opt1.step(0.5);
    }
    for (std::size_t li = 0; li < net0.layers().size(); ++li) {
      const Vector& w0 = net0.layers()[li].weights.data();
      const Vector& w1 = net1.layers()[li].weights.data();
      for (std::size_t i = 0; i < w0.size(); ++i)
        EXPECT_NEAR(w0[i], w1[i], 1e-12) << "layer " << li << " w[" << i << "]";
    }
  }
}

// --- Exact kernels ----------------------------------------------------------

TEST(SimdKernels, RowBroadcastAndColSumsBitwiseIdentical) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(53);
  for (std::size_t rows : {1u, 2u, 7u})
    for (std::size_t cols : {1u, 3u, 4u, 5u, 8u, 11u}) {
      Matrix m0(rows, cols), m1(rows, cols);
      Vector row(cols), sums0(cols), sums1(cols);
      fill_uniform(m0, rng);
      m1.data() = m0.data();
      fill_uniform(row, rng);
      fill_uniform(sums0, rng);
      sums1 = sums0;
      {
        ScopedIsa scalar(simd::Isa::kScalar);
        add_row_broadcast(m0, row);
        add_col_sums(m0, sums0);
      }
      {
        ScopedIsa avx2(simd::Isa::kAvx2);
        add_row_broadcast(m1, row);
        add_col_sums(m1, sums1);
      }
      EXPECT_EQ(m0.data(), m1.data()) << rows << "x" << cols;
      EXPECT_EQ(sums0, sums1) << rows << "x" << cols;
    }
}

TEST(SimdKernels, NormalizeIntoBitwiseIdentical) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(61);
  for (std::size_t dim : {1u, 3u, 4u, 5u, 9u, 16u})
    for (int updates : {0, 1, 5}) {
      RunningNormalizer norm(dim);
      Vector sample(dim);
      for (int u = 0; u < updates; ++u) {
        fill_uniform(sample, rng, -3.0, 3.0);
        norm.update(sample);
      }
      fill_uniform(sample, rng, -50.0, 50.0);  // exercise the clip
      Vector out0(dim), out1(dim);
      {
        ScopedIsa scalar(simd::Isa::kScalar);
        norm.normalize_into(sample, out0.data(), 10.0);
      }
      {
        ScopedIsa avx2(simd::Isa::kAvx2);
        norm.normalize_into(sample, out1.data(), 10.0);
      }
      EXPECT_EQ(out0, out1) << "dim=" << dim << " updates=" << updates;
    }
}

TEST(SimdKernels, TanhBackpropBitwiseIdentical) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(71);
  for (std::size_t n : {1u, 3u, 4u, 5u, 8u, 13u}) {
    Vector g0(n), act(n);
    fill_uniform(g0, rng);
    fill_uniform(act, rng, -0.99, 0.99);
    Vector g1 = g0;
    for (std::size_t j = 0; j < n; ++j) g0[j] *= 1.0 - act[j] * act[j];
    simd::tanh_backprop_avx2(g1.data(), act.data(), n);
    EXPECT_EQ(g0, g1) << "n=" << n;
  }
}

// --- Vector tanh ------------------------------------------------------------

TEST(SimdKernels, TanhTracksStdTanh) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  std::vector<double> xs;
  for (double x = -30.0; x <= 30.0; x += 0.0137) xs.push_back(x);
  std::vector<double> got = xs;
  simd::tanh_inplace_avx2(got.data(), got.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(got[i], std::tanh(xs[i]), 1e-14) << "x=" << xs[i];
}

TEST(SimdKernels, TanhSpecialValues) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs = {0.0, -0.0, inf, -inf, nan, 22.0, -22.0, 700.0, -700.0};
  std::vector<double> got = xs;
  simd::tanh_inplace_avx2(got.data(), got.size());
  EXPECT_EQ(got[0], 0.0);
  EXPECT_FALSE(std::signbit(got[0]));
  EXPECT_EQ(got[1], 0.0);
  EXPECT_TRUE(std::signbit(got[1]));
  EXPECT_EQ(got[2], 1.0);
  EXPECT_EQ(got[3], -1.0);
  EXPECT_TRUE(std::isnan(got[4]));
  EXPECT_EQ(got[5], 1.0);   // saturation: |x| >= 22 is exactly ±1
  EXPECT_EQ(got[6], -1.0);
  EXPECT_EQ(got[7], 1.0);
  EXPECT_EQ(got[8], -1.0);
}

TEST(SimdKernels, TanhRemainderLanesArePositionIndependent) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  // The same value must produce the same bits whether it lands in a full
  // vector or in the padded tail, at any offset.
  const double probe = 0.73125;
  for (std::size_t n : {1u, 2u, 3u, 5u, 6u, 7u, 9u}) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      std::vector<double> buf(n, 0.1);
      buf[pos] = probe;
      simd::tanh_inplace_avx2(buf.data(), n);
      std::vector<double> full(8, probe);
      simd::tanh_inplace_avx2(full.data(), 8);
      EXPECT_EQ(buf[pos], full[0]) << "n=" << n << " pos=" << pos;
    }
  }
}

// --- Batched vs per-sample --------------------------------------------------

TEST(SimdKernels, ForwardBatchMatchesPerSampleAtOddWidths) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  ScopedIsa avx2(simd::Isa::kAvx2);
  Rng init(3);
  Mlp net({9, 13, 11, 1}, init);  // odd widths: every tail path in play
  constexpr std::size_t kBatch = 5;
  MlpWorkspace ws;
  ws.configure(net, kBatch);
  ws.set_batch(kBatch);
  Rng rng(17);
  fill_uniform(ws.input(), rng);
  net.forward_batch(ws);
  Vector x(9), y;
  for (std::size_t r = 0; r < kBatch; ++r) {
    for (std::size_t c = 0; c < 9; ++c) x[c] = ws.input()(r, c);
    net.evaluate_into(x, y);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(ws.output()(r, 0), y[0]) << "row " << r;
  }
}

// --- Least-squares slope ----------------------------------------------------

TEST(SimdKernels, LsSlopeMatchesScalarReference) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  Rng rng(83);
  for (std::size_t n : {2u, 3u, 4u, 5u, 8u, 9u, 100u}) {
    std::vector<double> pairs(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      pairs[2 * i] = 0.01 * static_cast<double>(i) + rng.uniform(0.0, 0.001);
      pairs[2 * i + 1] = rng.uniform(0.02, 0.08);
    }
    double ref = 0;
    {
      ScopedIsa scalar(simd::Isa::kScalar);
      ref = ls_slope(pairs.data(), n);
    }
    const double got = simd::ls_slope_avx2(pairs.data(), n);
    {
      ScopedIsa avx2(simd::Isa::kAvx2);
      EXPECT_EQ(ls_slope(pairs.data(), n), got) << "n=" << n;
    }
    if (ref == 0.0) {
      EXPECT_EQ(got, 0.0) << "n=" << n;
    } else {
      EXPECT_NEAR(got, ref, 1e-6 * std::abs(ref) + 1e-12) << "n=" << n;
    }
    // Run-to-run stability of the vector path.
    EXPECT_EQ(got, simd::ls_slope_avx2(pairs.data(), n)) << "n=" << n;
  }
}

TEST(SimdKernels, LsSlopeDegenerateSpreadReturnsZero) {
  if (!have_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  // All timestamps identical: den underflows the 1e-12 guard.
  std::vector<double> pairs = {1.0, 0.5, 1.0, 0.7, 1.0, 0.6};
  EXPECT_EQ(simd::ls_slope_avx2(pairs.data(), 3), 0.0);
}

}  // namespace
}  // namespace libra
