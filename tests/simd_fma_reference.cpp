// Single-chain FMA reference kernels; see simd_fma_reference.hpp. The
// bodies below are the pre-tile simd_avx2.cpp kernels, unchanged.
#include "simd_fma_reference.hpp"

#if defined(__AVX2__) && defined(__FMA__) && !defined(CAMO_SIMD_OFF)

#include <immintrin.h>

#include <cstddef>
#include <cstring>

#include "common/simd.hpp"

namespace camo::simd_ref {

using simd::kBlock;

bool fma_reference_available() { return true; }

namespace {

// Stores an 8-lane accumulator into y[o0 .. o0+count), count <= 8.
inline void store_tail(float* y, int o0, int count, __m256 acc) {
    if (count == 8) {
        _mm256_storeu_ps(y + o0, acc);
    } else {
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, acc);
        std::memcpy(y + o0, lanes, static_cast<std::size_t>(count) * sizeof(float));
    }
}

inline __m256 load_tail(const float* y, int o0, int count) {
    if (count == 8) return _mm256_loadu_ps(y + o0);
    alignas(32) float lanes[8] = {};
    std::memcpy(lanes, y + o0, static_cast<std::size_t>(count) * sizeof(float));
    return _mm256_load_ps(lanes);
}

}  // namespace

void avx2_gemm_blocked(const float* w, const float* bias, const float* x, int rows, int in,
                       int out, int out_padded, float* y, bool accumulate) {
    const int blocks = out_padded / kBlock;
    for (int blk = 0; blk < blocks; ++blk) {
        const int o0 = blk * kBlock;
        const int width = out - o0 < kBlock ? out - o0 : kBlock;
        if (width <= 0) break;
        const float* wb = w + static_cast<std::size_t>(blk) * static_cast<std::size_t>(in) * kBlock;
        const __m256 b8 = accumulate ? _mm256_setzero_ps() : _mm256_loadu_ps(bias + blk * kBlock);

        int r = 0;
        for (; r + 4 <= rows; r += 4) {
            const float* x0 = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(in);
            const float* x1 = x0 + in;
            const float* x2 = x1 + in;
            const float* x3 = x2 + in;
            float* y0 = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(out);
            float* y1 = y0 + out;
            float* y2 = y1 + out;
            float* y3 = y2 + out;
            __m256 a0 = accumulate ? load_tail(y0, o0, width) : b8;
            __m256 a1 = accumulate ? load_tail(y1, o0, width) : b8;
            __m256 a2 = accumulate ? load_tail(y2, o0, width) : b8;
            __m256 a3 = accumulate ? load_tail(y3, o0, width) : b8;
            for (int i = 0; i < in; ++i) {
                const __m256 wv = _mm256_loadu_ps(wb + static_cast<std::size_t>(i) * kBlock);
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(x0[i]), wv, a0);
                a1 = _mm256_fmadd_ps(_mm256_set1_ps(x1[i]), wv, a1);
                a2 = _mm256_fmadd_ps(_mm256_set1_ps(x2[i]), wv, a2);
                a3 = _mm256_fmadd_ps(_mm256_set1_ps(x3[i]), wv, a3);
            }
            store_tail(y0, o0, width, a0);
            store_tail(y1, o0, width, a1);
            store_tail(y2, o0, width, a2);
            store_tail(y3, o0, width, a3);
        }
        for (; r < rows; ++r) {
            const float* xr = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(in);
            float* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(out);
            __m256 acc = accumulate ? load_tail(yr, o0, width) : b8;
            for (int i = 0; i < in; ++i) {
                const __m256 wv = _mm256_loadu_ps(wb + static_cast<std::size_t>(i) * kBlock);
                acc = _mm256_fmadd_ps(_mm256_set1_ps(xr[i]), wv, acc);
            }
            store_tail(yr, o0, width, acc);
        }
    }
}

void avx2_conv2d_packed(const float* w, const float* bias, const float* x, int in_ch, int h,
                        int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                        float* y, int oh, int ow) {
    const std::size_t plane = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    for (int oc0 = 0; oc0 < out_ch; oc0 += kBlock) {
        const int width = out_ch - oc0 < kBlock ? out_ch - oc0 : kBlock;
        const __m256 b8 = _mm256_loadu_ps(bias + oc0);
        for (int oy = 0; oy < oh; ++oy) {
            const int iy0 = oy * stride - pad;
            for (int ox = 0; ox < ow; ++ox) {
                const int ix0 = ox * stride - pad;
                __m256 acc = b8;
                for (int ic = 0; ic < in_ch; ++ic) {
                    const float* xp = x + (static_cast<std::size_t>(ic) *
                                           static_cast<std::size_t>(h)) *
                                              static_cast<std::size_t>(wdt);
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= h) continue;
                        const float* xrow = xp + static_cast<std::size_t>(iy) *
                                                     static_cast<std::size_t>(wdt);
                        const float* wrow =
                            w + ((static_cast<std::size_t>(ic) * static_cast<std::size_t>(k) +
                                  static_cast<std::size_t>(ky)) *
                                 static_cast<std::size_t>(k)) *
                                    static_cast<std::size_t>(out_ch_padded) +
                            static_cast<std::size_t>(oc0);
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= wdt) continue;
                            const __m256 wv = _mm256_loadu_ps(
                                wrow + static_cast<std::size_t>(kx) *
                                           static_cast<std::size_t>(out_ch_padded));
                            acc = _mm256_fmadd_ps(_mm256_set1_ps(xrow[ix]), wv, acc);
                        }
                    }
                }
                // y is channel-major [oc][oy][ox]: scatter the lane block.
                alignas(32) float lanes[8];
                _mm256_store_ps(lanes, acc);
                float* ypix = y + (static_cast<std::size_t>(oc0) * plane) +
                              static_cast<std::size_t>(oy) * static_cast<std::size_t>(ow) +
                              static_cast<std::size_t>(ox);
                for (int l = 0; l < width; ++l) ypix[static_cast<std::size_t>(l) * plane] = lanes[l];
            }
        }
    }
}

}  // namespace camo::simd_ref

#else  // no FMA build: the test skips

namespace camo::simd_ref {

bool fma_reference_available() { return false; }
void avx2_gemm_blocked(const float*, const float*, const float*, int, int, int, int, float*,
                       bool) {}
void avx2_conv2d_packed(const float*, const float*, const float*, int, int, int, int, int, int,
                        int, int, float*, int, int) {}

}  // namespace camo::simd_ref

#endif
