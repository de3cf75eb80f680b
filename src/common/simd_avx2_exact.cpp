// AVX2 exact-order kernels for training (simd::ExactOps). Every output is
// bit-identical to the scalar table: lanes run across output elements, each
// lane keeps one accumulator fed in the scalar loop's order, and every
// product is rounded by _mm256_mul_ps before _mm256_add_ps adds it. The
// forward GEMM and conv are the register tiles of simd_avx2_tiles.hpp (the
// same tile bodies as the FMA table) with that multiply-then-add step; the
// backward kernels are below. CMake builds this file with -mavx2
// -ffp-contract=off and without -mfma; with FMA contraction the compiler
// would fuse the multiply and the add and the bits would change, so those
// flags are part of the contract. The dispatcher (simd.cpp) only hands this
// table out when the active level is AVX2.
#include "common/simd.hpp"

#if defined(__AVX2__) && !defined(CAMO_SIMD_OFF)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/simd_avx2_tiles.hpp"

namespace camo::simd {
namespace {

inline __m256 madd(__m256 acc, __m256 a, __m256 b) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

// The forward tiles' step: acc + w * x, the product rounded before the add
// (the scalar loop's `acc += w * x`).
struct MulAddStep {
    static __m256 step(__m256 acc, __m256 x, __m256 w) { return madd(acc, w, x); }
};

// One gemm_tn_acc call's operands.
struct TnAcc {
    const float* a;
    int a_row_stride, a_col_stride;
    const float* b;
    int rows, k;
    float* c;
    bool descending;
};

// Rows i0 .. i0+R-1 of c x columns j0 .. j0 + 8 * NV - 1, plus, with kTail,
// one vector of columns masked by `tail`. R and the vector count are
// template constants and every loop over them unrolls, so the R x (NV + 1)
// accumulators stay in registers across the reduction; each b vector is
// loaded once per step and feeds R chains.
template <int R, int NV, bool kTail>
void tn_acc_tile(const TnAcc& g, int i0, int j0, __m256i tail) {
    constexpr int kVecs = NV + (kTail ? 1 : 0);
    __m256 acc[R][kVecs];
    #pragma GCC unroll 8
    for (int q = 0; q < R; ++q) {
        const float* cq = g.c + zu(i0 + q) * zu(g.k) + zu(j0);
        #pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) acc[q][v] = _mm256_loadu_ps(cq + v * kBlock);
        if constexpr (kTail) acc[q][NV] = _mm256_maskload_ps(cq + NV * kBlock, tail);
    }
    const float* a0 = g.a + static_cast<std::ptrdiff_t>(i0) * g.a_col_stride;
    for (int step = 0; step < g.rows; ++step) {
        const int r = g.descending ? g.rows - 1 - step : step;
        const float* ar = a0 + static_cast<std::ptrdiff_t>(r) * g.a_row_stride;
        const float* br = g.b + zu(r) * zu(g.k) + zu(j0);
        __m256 av[R];
        #pragma GCC unroll 8
        for (int q = 0; q < R; ++q) {
            av[q] = _mm256_set1_ps(ar[static_cast<std::ptrdiff_t>(q) * g.a_col_stride]);
        }
        #pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v) {
            const __m256 bv = kTail && v == NV ? _mm256_maskload_ps(br + v * kBlock, tail)
                                               : _mm256_loadu_ps(br + v * kBlock);
            #pragma GCC unroll 8
            for (int q = 0; q < R; ++q) acc[q][v] = madd(acc[q][v], av[q], bv);
        }
    }
    #pragma GCC unroll 8
    for (int q = 0; q < R; ++q) {
        float* cq = g.c + zu(i0 + q) * zu(g.k) + zu(j0);
        #pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) _mm256_storeu_ps(cq + v * kBlock, acc[q][v]);
        if constexpr (kTail) _mm256_maskstore_ps(cq + NV * kBlock, tail, acc[q][NV]);
    }
}

// Rows i0 .. i0+R-1 over the `width` <= 32 columns from j0: the tile with
// exactly that many full vectors and, for a k tail, one masked one.
template <int R>
void tn_acc_block(const TnAcc& g, int i0, int j0, int width) {
    const int rem = width % kBlock;
    const __m256i tail = lane_mask(rem == 0 ? kBlock : rem);
    switch (width / kBlock * 2 + (rem != 0 ? 1 : 0)) {
        case 1: tn_acc_tile<R, 0, true>(g, i0, j0, tail); break;
        case 2: tn_acc_tile<R, 1, false>(g, i0, j0, tail); break;
        case 3: tn_acc_tile<R, 1, true>(g, i0, j0, tail); break;
        case 4: tn_acc_tile<R, 2, false>(g, i0, j0, tail); break;
        case 5: tn_acc_tile<R, 2, true>(g, i0, j0, tail); break;
        case 6: tn_acc_tile<R, 3, false>(g, i0, j0, tail); break;
        case 7: tn_acc_tile<R, 3, true>(g, i0, j0, tail); break;
        default: tn_acc_tile<R, 4, false>(g, i0, j0, tail); break;
    }
}

// Column blocks of 32 outermost, so each block's slice of b stays in L1
// while every row pair of c passes over it.
void exact_gemm_tn_acc(const float* a, int a_row_stride, int a_col_stride, const float* b,
                       int rows, int m, int k, float* c, bool descending) {
    const TnAcc g{a, a_row_stride, a_col_stride, b, rows, k, c, descending};
    constexpr int kCols = 4 * kBlock;
    for (int j0 = 0; j0 < k; j0 += kCols) {
        const int width = k - j0 < kCols ? k - j0 : kCols;
        int i = 0;
        for (; i + 2 <= m; i += 2) tn_acc_block<2>(g, i, j0, width);
        if (i < m) tn_acc_block<1>(g, i, j0, width);
    }
}

// y = x w is the transposed-operand accumulation from zero, with y's rows as
// c's rows and the reduction running over x's columns (a_row_stride 1,
// a_col_stride inner) and w's rows, ascending: the same chain per output.
void exact_gemm_nn(const float* x, int rows, int inner, const float* w, int cols, float* y) {
    std::fill(y, y + zu(rows) * zu(cols), 0.0F);
    exact_gemm_tn_acc(x, 1, inner, w, inner, rows, cols, y, false);
}

// Scatter in (oc, oy, ox) order into per-pixel input-channel vectors
// ([iy][ix][ic_padded]); every input pixel's accumulator sees its terms in
// exactly that order. The updates of one output pixel hit distinct input
// pixels, so consecutive updates overlap instead of forming one chain.
void exact_conv2d_dx(const float* wt, const float* dy, int in_ch, int in_ch_padded, int h,
                     int wdt, int out_ch, int k, int stride, int pad, int oh, int ow,
                     float* dx) {
    const std::size_t in_plane = static_cast<std::size_t>(h) * static_cast<std::size_t>(wdt);
    const std::size_t icp = static_cast<std::size_t>(in_ch_padded);
    std::vector<float> acc(in_plane * icp, 0.0F);
    for (int oc = 0; oc < out_ch; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                const float g = dy[(static_cast<std::size_t>(oc) * static_cast<std::size_t>(oh) +
                                    static_cast<std::size_t>(oy)) *
                                       static_cast<std::size_t>(ow) +
                                   static_cast<std::size_t>(ox)];
                if (g == 0.0F) continue;
                const __m256 gv = _mm256_set1_ps(g);
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= h) continue;
                    for (int kx = 0; kx < k; ++kx) {
                        const int ix = ox * stride - pad + kx;
                        if (ix < 0 || ix >= wdt) continue;
                        const float* wv =
                            wt + ((static_cast<std::size_t>(oc) * static_cast<std::size_t>(k) +
                                   static_cast<std::size_t>(ky)) *
                                      static_cast<std::size_t>(k) +
                                  static_cast<std::size_t>(kx)) *
                                     icp;
                        float* ap = acc.data() + (static_cast<std::size_t>(iy) *
                                                      static_cast<std::size_t>(wdt) +
                                                  static_cast<std::size_t>(ix)) *
                                                     icp;
                        for (std::size_t c = 0; c < icp; c += kBlock) {
                            _mm256_storeu_ps(ap + c, madd(_mm256_loadu_ps(ap + c), gv,
                                                          _mm256_loadu_ps(wv + c)));
                        }
                    }
                }
            }
        }
    }
    for (int ic = 0; ic < in_ch; ++ic) {
        float* dplane = dx + static_cast<std::size_t>(ic) * in_plane;
        for (std::size_t p = 0; p < in_plane; ++p) {
            dplane[p] = acc[p * icp + static_cast<std::size_t>(ic)];
        }
    }
}

const ExactOps kAvx2ExactOps = {
    Level::kAvx2,
    tiled_gemm_blocked<MulAddStep>,
    tiled_conv2d_packed<MulAddStep>,
    exact_gemm_nn,
    exact_gemm_tn_acc,
    exact_conv2d_dx,
};

}  // namespace

namespace detail {
const ExactOps* avx2_exact_ops() { return &kAvx2ExactOps; }
}  // namespace detail

}  // namespace camo::simd

#else  // portable build of this TU: export no table

namespace camo::simd::detail {
const ExactOps* avx2_exact_ops() { return nullptr; }
}  // namespace camo::simd::detail

#endif
