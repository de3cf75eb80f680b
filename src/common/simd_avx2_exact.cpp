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

// 4 rows x 8 columns per tile: four independent accumulator chains.
void exact_gemm_nn(const float* x, int rows, int inner, const float* w, int cols, float* y) {
    for (int c0 = 0; c0 < cols; c0 += kBlock) {
        const int width = cols - c0 < kBlock ? cols - c0 : kBlock;
        const float* wc = w + c0;
        int r = 0;
        for (; r + 4 <= rows; r += 4) {
            const float* x0 = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(inner);
            const float* x1 = x0 + inner;
            const float* x2 = x1 + inner;
            const float* x3 = x2 + inner;
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            for (int j = 0; j < inner; ++j) {
                const __m256 wv = load_cols(
                    wc + static_cast<std::size_t>(j) * static_cast<std::size_t>(cols), width);
                a0 = madd(a0, _mm256_set1_ps(x0[j]), wv);
                a1 = madd(a1, _mm256_set1_ps(x1[j]), wv);
                a2 = madd(a2, _mm256_set1_ps(x2[j]), wv);
                a3 = madd(a3, _mm256_set1_ps(x3[j]), wv);
            }
            float* y0 = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) + c0;
            store_cols(y0, width, a0);
            store_cols(y0 + cols, width, a1);
            store_cols(y0 + 2 * static_cast<std::size_t>(cols), width, a2);
            store_cols(y0 + 3 * static_cast<std::size_t>(cols), width, a3);
        }
        for (; r < rows; ++r) {
            const float* xr = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(inner);
            __m256 acc = _mm256_setzero_ps();
            for (int j = 0; j < inner; ++j) {
                const __m256 wv = load_cols(
                    wc + static_cast<std::size_t>(j) * static_cast<std::size_t>(cols), width);
                acc = madd(acc, _mm256_set1_ps(xr[j]), wv);
            }
            store_cols(y + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) + c0, width,
                       acc);
        }
    }
}

// Rows i0 .. i0+kRows-1 of c, columns j0 .. j0+31 (fewer at the edge):
// each b block is loaded once per reduction step and feeds kRows chains.
template <int kRows>
void tn_acc_tile(const float* a, int a_row_stride, int a_col_stride, const float* b, int rows,
                 int i0, int j0, int k, float* c, bool descending) {
    constexpr int kVecs = 4;
    int width[kVecs] = {};
    __m256 acc[kRows][kVecs];
    int nvec = 0;
    for (; nvec < kVecs && j0 + nvec * kBlock < k; ++nvec) {
        const int left = k - j0 - nvec * kBlock;
        width[nvec] = left < kBlock ? left : kBlock;
        for (int q = 0; q < kRows; ++q) {
            const float* cq = c + static_cast<std::size_t>(i0 + q) * static_cast<std::size_t>(k);
            acc[q][nvec] = load_cols(cq + j0 + nvec * kBlock, width[nvec]);
        }
    }
    for (int step = 0; step < rows; ++step) {
        const int r = descending ? rows - 1 - step : step;
        const float* br = b + static_cast<std::size_t>(r) * static_cast<std::size_t>(k) + j0;
        __m256 ar[kRows];
        for (int q = 0; q < kRows; ++q) {
            ar[q] = _mm256_set1_ps(a[static_cast<std::ptrdiff_t>(r) * a_row_stride +
                                     static_cast<std::ptrdiff_t>(i0 + q) * a_col_stride]);
        }
        for (int v = 0; v < nvec; ++v) {
            const __m256 bv = load_cols(br + v * kBlock, width[v]);
            for (int q = 0; q < kRows; ++q) acc[q][v] = madd(acc[q][v], ar[q], bv);
        }
    }
    for (int q = 0; q < kRows; ++q) {
        for (int v = 0; v < nvec; ++v) {
            store_cols(c + static_cast<std::size_t>(i0 + q) * static_cast<std::size_t>(k) + j0 +
                           v * kBlock,
                       width[v], acc[q][v]);
        }
    }
}

// Column tiles outermost, so each tile's slice of b stays in L1 while every
// row of c passes over it.
void exact_gemm_tn_acc(const float* a, int a_row_stride, int a_col_stride, const float* b,
                       int rows, int m, int k, float* c, bool descending) {
    for (int j0 = 0; j0 < k; j0 += 4 * kBlock) {
        int i = 0;
        for (; i + 2 <= m; i += 2) {
            tn_acc_tile<2>(a, a_row_stride, a_col_stride, b, rows, i, j0, k, c, descending);
        }
        for (; i < m; ++i) {
            tn_acc_tile<1>(a, a_row_stride, a_col_stride, b, rows, i, j0, k, c, descending);
        }
    }
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
