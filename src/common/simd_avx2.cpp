// AVX2 + FMA kernels. This file is always part of the build; CMake adds
// -mavx2 -mfma on x86 unless CAMO_SIMD=OFF, and the whole implementation is
// guarded on __AVX2__/__FMA__ so a portable build simply exports a null
// table. The dispatcher (simd.cpp) additionally checks
// __builtin_cpu_supports at runtime, so shipping these kernels never traps
// on an older CPU.
//
// Layout notes (the lc0 linear-backend idiom): weights are packed row-
// blocked, w[(blk * in + i) * 8 + lane] = W[blk*8 + lane][i], so the inner
// GEMV step is one broadcast of x[i] FMA'd against a contiguous 8-float
// column slice. The GEMM and conv bodies are the register tiles of
// simd_avx2_tiles.hpp with an FMA step: 4 rows x 2 output blocks (a single
// row, as in the RNN recurrence, against up to 8 blocks) and 8 / 4 / 2
// adjacent output pixels x 1 / 2 / 4 channel blocks, so 8 independent
// chains fill the FMA pipes. Each output keeps one accumulator chain in the
// simd.hpp order, which is what makes a batched call bitwise identical to
// the same rows run one by one (the batched-inference equivalence
// contract).
#include "common/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__) && !defined(CAMO_SIMD_OFF)

#include <immintrin.h>

#include "common/simd_avx2_tiles.hpp"

namespace camo::simd {
namespace {

struct FmaStep {
    static __m256 step(__m256 acc, __m256 x, __m256 w) { return _mm256_fmadd_ps(x, w, acc); }
};

void avx2_cmul(const std::complex<float>* a, const std::complex<float>* b,
               std::complex<float>* out, std::size_t n) {
    const float* af = reinterpret_cast<const float*>(a);
    const float* bf = reinterpret_cast<const float*>(b);
    float* of = reinterpret_cast<float*>(out);
    std::size_t i = 0;
    // 4 complex values (8 floats, interleaved re/im) per iteration:
    // (ar+i*ai)(br+i*bi) = (ar*br - ai*bi) + i*(ar*bi + ai*br).
    for (; i + 4 <= n; i += 4) {
        const __m256 av = _mm256_loadu_ps(af + 2 * i);
        const __m256 bv = _mm256_loadu_ps(bf + 2 * i);
        const __m256 ar = _mm256_moveldup_ps(av);             // [ar0 ar0 ar1 ar1 ...]
        const __m256 ai = _mm256_movehdup_ps(av);             // [ai0 ai0 ai1 ai1 ...]
        const __m256 bswap = _mm256_permute_ps(bv, 0xB1);     // [bi0 br0 bi1 br1 ...]
        // ar*b ± ai*swap(b): fmaddsub subtracts in even lanes (real part)
        // and adds in odd lanes (imaginary part), which is exactly the
        // complex product layout.
        const __m256 res = _mm256_fmaddsub_ps(ar, bv, _mm256_mul_ps(ai, bswap));
        _mm256_storeu_ps(of + 2 * i, res);
    }
    for (; i < n; ++i) out[i] = a[i] * b[i];
}

void avx2_norm_acc(const std::complex<float>* field, float lambda, float* intensity,
                   std::size_t n) {
    const float* ff = reinterpret_cast<const float*>(field);
    const __m256 lam = _mm256_set1_ps(lambda);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Two interleaved loads = 8 complex values; hadd pairs re*re+im*im.
        const __m256 v0 = _mm256_loadu_ps(ff + 2 * i);      // c0..c3 interleaved
        const __m256 v1 = _mm256_loadu_ps(ff + 2 * i + 8);  // c4..c7 interleaved
        const __m256 sq0 = _mm256_mul_ps(v0, v0);
        const __m256 sq1 = _mm256_mul_ps(v1, v1);
        // hadd on 128-bit halves: [n0 n1 n4 n5 | n2 n3 n6 n7]
        const __m256 sums = _mm256_hadd_ps(sq0, sq1);
        const __m256 norms = _mm256_permutevar8x32_ps(
            sums, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
        const __m256 acc = _mm256_fmadd_ps(lam, norms, _mm256_loadu_ps(intensity + i));
        _mm256_storeu_ps(intensity + i, acc);
    }
    for (; i < n; ++i) intensity[i] += lambda * std::norm(field[i]);
}

const Ops kAvx2Ops = {
    Level::kAvx2,
    tiled_gemm_blocked<FmaStep>,
    tiled_conv2d_packed<FmaStep>,
    avx2_cmul,
    avx2_norm_acc,
};

}  // namespace

namespace detail {
const Ops* avx2_ops() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace camo::simd

#else  // portable build of this TU: export no table

namespace camo::simd::detail {
const Ops* avx2_ops() { return nullptr; }
}  // namespace camo::simd::detail

#endif
