// Register-tiled AVX2 bodies of the two forward kernels: the row-blocked
// GEMM (Ops::gemm_blocked) and the packed conv (Ops::conv2d_packed). Only
// simd_avx2_exact.cpp includes this header; the backward kernels and the
// FFT line kernel sit in that TU.
//
// Why tiles: one accumulator chain per output block leaves the vector units
// waiting on the previous step's latency. A tile runs R rows x NB output
// blocks (GEMM) or P output pixels x NB output-channel blocks (conv) in
// lockstep, at least 8 independent chains per step where the shape allows.
// Tiling only interleaves chains; it never splits one. Every output keeps
// its single chain, started from its bias (or its existing y) and fed in the
// scalar order, so results are bit-identical to the scalar table at any
// tile shape:
//   * GEMM: i ascending;
//   * conv: (ic, ky, kx) ascending, out-of-image taps skipped per pixel
//     (never zero-padded: a -0 bias or a non-finite weight would otherwise
//     change bits).
//
// Each step is madd(acc, w, x): the product rounded by _mm256_mul_ps, then
// added by _mm256_add_ps, as the scalar loop's `acc += w * x`. Every loop
// over a tile's rows, pixels or blocks carries `#pragma GCC unroll`: fully
// unrolled, the accumulator arrays live in registers, where GCC would
// otherwise keep them in memory and store every chain on every step.
#pragma once

#if !defined(__AVX2__)
#error "simd_avx2_tiles.hpp is for the AVX2 translation units only"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/simd.hpp"

namespace camo::simd {
namespace {

inline std::size_t zu(int v) { return static_cast<std::size_t>(v); }

// acc + a * b with the product rounded before the add (never an FMA).
inline __m256 madd(__m256 acc, __m256 a, __m256 b) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

// Lane mask for the first `count` lanes (count in 1..8).
inline __m256i lane_mask(int count) {
    alignas(32) static const int kOnes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                              0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kOnes + 8 - count));
}

// Loads (stores) `width` <= 8 contiguous floats at p; only a partial last
// block goes through the lane mask (masked lanes load as 0, never store).
inline __m256 load_cols(const float* p, int width) {
    return width == kBlock ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, lane_mask(width));
}

inline void store_cols(float* p, int width, __m256 v) {
    if (width == kBlock) {
        _mm256_storeu_ps(p, v);
    } else {
        _mm256_maskstore_ps(p, lane_mask(width), v);
    }
}

// ---- GEMM -------------------------------------------------------------------

// Rows r0 .. r0+R-1 x output blocks blk0 .. blk0+NB-1 of y = x W^T (+ b).
template <int R, int NB>
void gemm_tile(const float* w, const float* bias, const float* x, int in, int out, float* y,
               bool accumulate, int r0, int blk0) {
    const float* wb[NB];
    int width[NB];
    __m256 acc[R][NB];
    #pragma GCC unroll 16
    for (int b = 0; b < NB; ++b) {
        const int o0 = (blk0 + b) * kBlock;
        width[b] = std::min(kBlock, out - o0);
        wb[b] = w + zu(blk0 + b) * zu(in) * kBlock;
        const __m256 b8 = accumulate ? _mm256_setzero_ps() : _mm256_loadu_ps(bias + o0);
        #pragma GCC unroll 16
        for (int q = 0; q < R; ++q) {
            acc[q][b] = accumulate ? load_cols(y + zu(r0 + q) * zu(out) + zu(o0), width[b]) : b8;
        }
    }
    const float* xr = x + zu(r0) * zu(in);
    for (int i = 0; i < in; ++i) {
        __m256 wv[NB];
        #pragma GCC unroll 16
        for (int b = 0; b < NB; ++b) wv[b] = _mm256_loadu_ps(wb[b] + zu(i) * kBlock);
        #pragma GCC unroll 16
        for (int q = 0; q < R; ++q) {
            const __m256 xv = _mm256_set1_ps(xr[zu(q) * zu(in) + zu(i)]);
            #pragma GCC unroll 16
            for (int b = 0; b < NB; ++b) acc[q][b] = madd(acc[q][b], wv[b], xv);
        }
    }
    #pragma GCC unroll 16
    for (int q = 0; q < R; ++q) {
        #pragma GCC unroll 16
        for (int b = 0; b < NB; ++b) {
            store_cols(y + zu(r0 + q) * zu(out) + zu((blk0 + b) * kBlock), width[b], acc[q][b]);
        }
    }
}

// One row over `nb` <= NB output blocks: the largest tile that fits.
template <int NB>
void gemm_row(int nb, const float* w, const float* bias, const float* x, int in, int out,
              float* y, bool accumulate, int r, int blk0) {
    if constexpr (NB > 1) {
        if (nb < NB) {
            gemm_row<NB - 1>(nb, w, bias, x, in, out, y, accumulate, r, blk0);
            return;
        }
    }
    gemm_tile<1, NB>(w, bias, x, in, out, y, accumulate, r, blk0);
}

// The Ops::gemm_blocked contract. Full row quads run 4 x 2 tiles, block
// pairs outermost so a pair's weight slices stay in L1 while every quad
// passes over them; the last rows % 4 rows (all of a GEMV, such as the RNN
// recurrence) run one row against up to 8 blocks.
void tiled_gemm_blocked(const float* w, const float* bias, const float* x, int rows, int in,
                        int out, int out_padded, float* y, bool accumulate) {
    (void)out_padded;  // blocks past `out` are padding: never computed
    const int blocks = (out + kBlock - 1) / kBlock;
    const int quads = rows / 4 * 4;
    for (int blk = 0; blk < blocks; blk += 2) {
        for (int r = 0; r < quads; r += 4) {
            if (blocks - blk >= 2) {
                gemm_tile<4, 2>(w, bias, x, in, out, y, accumulate, r, blk);
            } else {
                gemm_tile<4, 1>(w, bias, x, in, out, y, accumulate, r, blk);
            }
        }
    }
    for (int r = quads; r < rows; ++r) {
        for (int blk = 0; blk < blocks; blk += 8) {
            gemm_row<8>(blocks - blk, w, bias, x, in, out, y, accumulate, r, blk);
        }
    }
}

// ---- Convolution ------------------------------------------------------------

struct ConvShape {
    const float* w;
    const float* bias;
    const float* x;
    int in_ch, h, wdt, out_ch, oc_padded, k, stride, pad;
    float* y;
    int oh, ow;
};

// One (ic, ky, kx) tap of an output row: x offset of the tap for a pixel
// whose first tap column is 0, offset of its packed weight slice, and kx.
struct ConvTap {
    std::ptrdiff_t x;
    std::size_t w;
    int kx;
};

// The taps of output row oy in (ic, ky, kx) ascending order, rows outside
// the image skipped; returns how many.
inline int row_taps(const ConvShape& s, int oy, ConvTap* taps) {
    int n = 0;
    for (int ic = 0; ic < s.in_ch; ++ic) {
        for (int ky = 0; ky < s.k; ++ky) {
            const int iy = oy * s.stride - s.pad + ky;
            if (iy < 0 || iy >= s.h) continue;
            const auto row = static_cast<std::ptrdiff_t>((zu(ic) * zu(s.h) + zu(iy)) * zu(s.wdt));
            for (int kx = 0; kx < s.k; ++kx) {
                const std::size_t wk = (zu(ic) * zu(s.k) + zu(ky)) * zu(s.k) + zu(kx);
                taps[n++] = {row + kx, wk * zu(s.oc_padded), kx};
            }
        }
    }
    return n;
}

// Output pixels (oy, ox .. ox+P-1) x channel blocks from oc0, NB blocks
// wide, over the row's taps. kClip: some pixel of the run has taps outside
// the input row, which are skipped for that pixel alone.
template <int P, int NB, bool kClip>
void conv_tile(const ConvShape& s, const ConvTap* taps, int ntaps, int oc0, int oy, int ox) {
    std::ptrdiff_t ix[P];  // pixel q's first tap column
    #pragma GCC unroll 16
    for (int q = 0; q < P; ++q) ix[q] = static_cast<std::ptrdiff_t>(ox + q) * s.stride - s.pad;

    __m256 acc[P][NB];
    #pragma GCC unroll 16
    for (int b = 0; b < NB; ++b) {
        const __m256 b8 = _mm256_loadu_ps(s.bias + oc0 + b * kBlock);
        #pragma GCC unroll 16
        for (int q = 0; q < P; ++q) acc[q][b] = b8;
    }
    const float* w = s.w + oc0;
    for (int t = 0; t < ntaps; ++t) {
        const ConvTap tap = taps[t];
        __m256 wv[NB];
        #pragma GCC unroll 16
        for (int b = 0; b < NB; ++b) wv[b] = _mm256_loadu_ps(w + tap.w + zu(b * kBlock));
        #pragma GCC unroll 16
        for (int q = 0; q < P; ++q) {
            if (kClip && (ix[q] + tap.kx < 0 || ix[q] + tap.kx >= s.wdt)) continue;
            const __m256 xv = _mm256_set1_ps(s.x[tap.x + ix[q]]);
            #pragma GCC unroll 16
            for (int b = 0; b < NB; ++b) acc[q][b] = madd(acc[q][b], wv[b], xv);
        }
    }
    // y is channel-major [oc][oy][ox]: scatter each lane block.
    const std::size_t plane = zu(s.oh) * zu(s.ow);
    float* ypix = s.y + zu(oc0) * plane + zu(oy) * zu(s.ow) + zu(ox);
    #pragma GCC unroll 16
    for (int b = 0; b < NB; ++b) {
        const int width = std::min(kBlock, s.out_ch - oc0 - b * kBlock);
        float* yb = ypix + zu(b * kBlock) * plane;
        #pragma GCC unroll 16
        for (int q = 0; q < P; ++q) {
            alignas(32) float lanes[kBlock];
            _mm256_store_ps(lanes, acc[q][b]);
            for (int l = 0; l < width; ++l) yb[zu(l) * plane + zu(q)] = lanes[l];
        }
    }
}

// A run of `run` <= P pixels: the tile of exactly that width.
template <int NB, int P>
void conv_run(int run, bool interior, const ConvShape& s, const ConvTap* taps, int ntaps, int oc0,
              int oy, int ox) {
    if constexpr (P > 1) {
        if (run < P) {
            conv_run<NB, P - 1>(run, interior, s, taps, ntaps, oc0, oy, ox);
            return;
        }
    }
    if (interior) {
        conv_tile<P, NB, false>(s, taps, ntaps, oc0, oy, ox);
    } else {
        conv_tile<P, NB, true>(s, taps, ntaps, oc0, oy, ox);
    }
}

// Output row oy for channel blocks oc0 .. oc0+NB-1, in runs of up to
// ceil(8 / NB) pixels (conv1's one block: 8 pixels; conv2's two: 4;
// conv3's four: 2).
template <int NB>
void conv_row(const ConvShape& s, const ConvTap* taps, int ntaps, int oc0, int oy) {
    constexpr int kPix = (8 + NB - 1) / NB;
    for (int ox = 0; ox < s.ow; ox += kPix) {
        const int run = std::min(kPix, s.ow - ox);
        // Tap columns grow with ox: the run is interior iff its ends are.
        const bool interior =
            ox * s.stride - s.pad >= 0 && (ox + run - 1) * s.stride - s.pad + s.k <= s.wdt;
        conv_run<NB, kPix>(run, interior, s, taps, ntaps, oc0, oy, ox);
    }
}

// The Ops::conv2d_packed contract: output rows outermost, each row's tap
// list built once and shared by its channel groups (four blocks at a time).
void tiled_conv2d_packed(const float* w, const float* bias, const float* x, int in_ch, int h,
                         int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                         float* y, int oh, int ow) {
    const ConvShape s{w, bias, x, in_ch, h, wdt, out_ch, out_ch_padded, k, stride, pad, y, oh, ow};
    std::vector<ConvTap> taps(zu(in_ch) * zu(k) * zu(k));
    const int blocks = (out_ch + kBlock - 1) / kBlock;
    for (int oy = 0; oy < oh; ++oy) {
        const int ntaps = row_taps(s, oy, taps.data());
        for (int blk = 0; blk < blocks; blk += 4) {
            const int oc0 = blk * kBlock;
            switch (std::min(4, blocks - blk)) {
                case 1: conv_row<1>(s, taps.data(), ntaps, oc0, oy); break;
                case 2: conv_row<2>(s, taps.data(), ntaps, oc0, oy); break;
                case 3: conv_row<3>(s, taps.data(), ntaps, oc0, oy); break;
                default: conv_row<4>(s, taps.data(), ntaps, oc0, oy); break;
            }
        }
    }
}

}  // namespace
}  // namespace camo::simd
