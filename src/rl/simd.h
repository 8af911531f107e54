// Runtime ISA dispatch for the dense kernel set in rl/matrix.h.
//
// Policy: one process-global dispatch decision, made once at static-init time
// from CPUID feature detection (AVX2 + FMA + OS xsave support, via
// __builtin_cpu_supports) and the LIBRA_SIMD environment variable, then read
// by every kernel through a relaxed atomic load. The decision is process-wide
// rather than per-call so a simulation is a pure function of (binary, inputs,
// LIBRA_SIMD): results are bitwise reproducible run-to-run at a given ISA.
//
// Determinism contract (mirrors the fixed-accumulation-order notes in
// matrix.h):
//  - kScalar is the pre-SIMD kernel set, verbatim. LIBRA_SIMD=off output is
//    bitwise identical to builds that predate the dispatch layer.
//  - kAvx2 dot-product kernels use one uniform accumulation structure: two
//    4-lane vertical accumulator chains stepping k by 8, reduced in a fixed
//    tree, with the k%8 remainder folded in scalar index order via std::fma.
//    Every dot product in the process — matvec, gemm_transB, any batch
//    size — shares that structure, so per-sample and batched inference stay
//    bitwise identical to each other, just as in scalar mode.
//  - Axpy-style kernels (gemm, gemm_transA, axpy, Adam) keep the scalar
//    per-element accumulation order; the only cross-ISA drift is FMA's single
//    rounding, which the ULP-bound tests in tests/simd_test.cc assert.
//  - Element-wise kernels without contractions (row broadcast, column sums,
//    normalize_into) are bitwise identical across ISAs.
//
// LIBRA_SIMD values: "off"/"scalar"/"0" force the scalar fallback;
// "avx2" requests AVX2 (silently falling back when unsupported);
// unset/""/"auto"/"on"/"1" auto-detect.
#pragma once

#include <atomic>

namespace libra::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

namespace detail {
// The active dispatch decision. Defined in simd.cc, initialized by a static
// initializer there; kernels in headers read it with a relaxed load (a plain
// register read on x86), so dispatch adds no synchronization to hot loops.
extern std::atomic<int> g_active_isa;
}  // namespace detail

/// True when this build carries the AVX2 kernel translation unit (x86-64
/// compilers with -mavx2 -mfma support). When false, dispatch is pinned to
/// scalar regardless of the host CPU.
bool compiled_with_avx2();

/// True when the host CPU (and OS, via xgetbv) supports AVX2 + FMA and the
/// AVX2 kernels are compiled in.
bool avx2_supported();

/// The ISA the kernel layer is currently dispatching to.
inline Isa active() {
  return static_cast<Isa>(detail::g_active_isa.load(std::memory_order_relaxed));
}

/// Hot-path dispatch predicate used by the kernels in matrix.h et al.
inline bool use_avx2() {
  return detail::g_active_isa.load(std::memory_order_relaxed) ==
         static_cast<int>(Isa::kAvx2);
}

/// Forces the dispatch decision, e.g. `force(Isa::kScalar)` for the
/// --deterministic bench mode or for scalar-vs-AVX2 comparison tests.
/// Requests for an unsupported ISA fall back to scalar. Returns the ISA
/// actually installed. Allocation-free; callers must not race it against
/// in-flight kernels if they need a consistent mode for a whole computation.
Isa force(Isa isa);

/// Maps a LIBRA_SIMD value to the ISA it requests (capped by host support).
/// Exposed for tests; `nullptr` (unset) means auto-detect.
Isa isa_from_env_value(const char* value);

/// Re-reads LIBRA_SIMD from the environment and reinstalls the dispatch
/// decision. Called once automatically at static-init time; tests call it
/// again after setenv() to exercise the override path.
Isa init_from_env();

/// Short stable name for baseline files and bench reports: "scalar" | "avx2".
const char* isa_name(Isa isa);

}  // namespace libra::simd
