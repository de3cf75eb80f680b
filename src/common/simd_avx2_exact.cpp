// The AVX2 kernel table (simd::Ops at Level::kAvx2). Every output is
// bit-identical to the scalar table: lanes run across output elements, each
// lane keeps one accumulator fed in the scalar loop's order, and every
// product is rounded by _mm256_mul_ps before _mm256_add_ps adds it. The
// forward GEMM and conv are the register tiles of simd_avx2_tiles.hpp; the
// complex multiply, the SOCS accumulation, the backward kernels and the FFT
// line kernel are below. CMake builds this file with -mavx2 and without
// -mfma, and the whole tree with -ffp-contract=off: with FMA contraction
// the compiler would fuse a multiply and its add and the bits would change,
// so those flags are part of the contract. Built without -mavx2 (any ISA
// but x86-64), the file exports no table.
#include "common/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/simd_avx2_tiles.hpp"

namespace camo::simd {
namespace {

// 4 complex values (8 floats, interleaved re/im) per iteration:
// (ar+i*ai)(br+i*bi) = (ar*br - ai*bi) + i*(ar*bi + ai*br). Both products
// of each part are rounded, then addsub subtracts in the even (real) lanes
// and adds in the odd (imaginary) ones, in the scalar operand order.
void avx2_cmul(const std::complex<float>* a, const std::complex<float>* b,
               std::complex<float>* out, std::size_t n) {
    const float* af = reinterpret_cast<const float*>(a);
    const float* bf = reinterpret_cast<const float*>(b);
    float* of = reinterpret_cast<float*>(out);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256 av = _mm256_loadu_ps(af + 2 * i);
        const __m256 bv = _mm256_loadu_ps(bf + 2 * i);
        const __m256 ar = _mm256_moveldup_ps(av);          // [ar0 ar0 ar1 ar1 ...]
        const __m256 ai = _mm256_movehdup_ps(av);          // [ai0 ai0 ai1 ai1 ...]
        const __m256 bswap = _mm256_permute_ps(bv, 0xB1);  // [bi0 br0 bi1 br1 ...]
        const __m256 res = _mm256_addsub_ps(_mm256_mul_ps(ar, bv), _mm256_mul_ps(ai, bswap));
        if (_mm256_movemask_ps(_mm256_cmp_ps(res, res, _CMP_UNORD_Q)) == 0) {
            _mm256_storeu_ps(of + 2 * i, res);
        } else {
            // A NaN part: the scalar product may recover an infinity
            // (C99 Annex G), so these four take the scalar path.
            for (std::size_t q = i; q < i + 4; ++q) out[q] = a[q] * b[q];
        }
    }
    for (; i < n; ++i) out[i] = a[i] * b[i];
}

// 8 complex values per iteration: hadd pairs the rounded squares into
// re*re + im*im, then lambda * norm is rounded and added to the intensity.
void avx2_norm_acc(const std::complex<float>* field, float lambda, float* intensity,
                   std::size_t n) {
    const float* ff = reinterpret_cast<const float*>(field);
    const __m256 lam = _mm256_set1_ps(lambda);
    const __m256i order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v0 = _mm256_loadu_ps(ff + 2 * i);      // c0..c3 interleaved
        const __m256 v1 = _mm256_loadu_ps(ff + 2 * i + 8);  // c4..c7 interleaved
        // hadd works on 128-bit halves: [n0 n1 n4 n5 | n2 n3 n6 n7].
        const __m256 sums = _mm256_hadd_ps(_mm256_mul_ps(v0, v0), _mm256_mul_ps(v1, v1));
        const __m256 norms = _mm256_permutevar8x32_ps(sums, order);
        _mm256_storeu_ps(intensity + i, madd(_mm256_loadu_ps(intensity + i), lam, norms));
    }
    for (; i < n; ++i) intensity[i] += lambda * std::norm(field[i]);
}

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
void avx2_gemm_tn_acc(const float* a, int a_row_stride, int a_col_stride, const float* b,
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
void avx2_gemm_nn(const float* x, int rows, int inner, const float* w, int cols, float* y) {
    std::fill(y, y + zu(rows) * zu(cols), 0.0F);
    avx2_gemm_tn_acc(x, 1, inner, w, inner, rows, cols, y, false);
}

// Scatter in (oc, oy, ox) order into per-pixel input-channel vectors
// ([iy][ix][ic_padded]); every input pixel's accumulator sees its terms in
// exactly that order. The updates of one output pixel hit distinct input
// pixels, so consecutive updates overlap instead of forming one chain.
void avx2_conv2d_dx(const float* wt, const float* dy, int in_ch, int in_ch_padded, int h,
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

// ---- FFT line kernel ---------------------------------------------------------
// Ops::fft_lines on 8 lines at a time. Scratch slot s holds element s
// (in bit-reversed order) of all 8 lines as two vectors, 8 re parts then 8
// im parts, so a butterfly is the scalar one on 8 lanes at once.

struct Lines {
    __m256 re, im;
};

inline Lines load_slot(const float* x, std::size_t s) {
    return {_mm256_load_ps(x + 16 * s), _mm256_load_ps(x + 16 * s + 8)};
}

inline void store_slot(float* x, std::size_t s, Lines v) {
    _mm256_store_ps(x + 16 * s, v.re);
    _mm256_store_ps(x + 16 * s + 8, v.im);
}

// The scalar butterfly on 8 lanes: t = v * w in std::complex order, every
// product rounded before it is added, then v = u - t and u = u + t.
inline void butterfly(Lines& u, Lines& v, __m256 wr, __m256 wi) {
    const __m256 tr = _mm256_sub_ps(_mm256_mul_ps(v.re, wr), _mm256_mul_ps(v.im, wi));
    const __m256 ti = _mm256_add_ps(_mm256_mul_ps(v.re, wi), _mm256_mul_ps(v.im, wr));
    v.re = _mm256_sub_ps(u.re, tr);
    v.im = _mm256_sub_ps(u.im, ti);
    u.re = _mm256_add_ps(u.re, tr);
    u.im = _mm256_add_ps(u.im, ti);
}

// Every stage over the n slots of x, two stages per pass: the stages
// spanning 2h and 4h elements run on each group of four elements (i + k,
// + h, + 2h, + 3h) while it sits in registers. An element meets the same
// butterflies in the same order as stage by stage; a last odd stage runs
// alone.
void fft_stages(float* x, std::size_t n, const float* wr, const float* wi) {
    std::size_t h = 1;
    for (; 4 * h <= n; h *= 4) {
        const float* w1r = wr + (h - 1);
        const float* w1i = wi + (h - 1);
        const float* w2r = wr + (2 * h - 1);
        const float* w2i = wi + (2 * h - 1);
        for (std::size_t i = 0; i < n; i += 4 * h) {
            for (std::size_t k = 0; k < h; ++k) {
                const std::size_t s = i + k;
                Lines a = load_slot(x, s);
                Lines b = load_slot(x, s + h);
                Lines c = load_slot(x, s + 2 * h);
                Lines d = load_slot(x, s + 3 * h);
                const __m256 ar = _mm256_set1_ps(w1r[k]);
                const __m256 ai = _mm256_set1_ps(w1i[k]);
                butterfly(a, b, ar, ai);
                butterfly(c, d, ar, ai);
                butterfly(a, c, _mm256_set1_ps(w2r[k]), _mm256_set1_ps(w2i[k]));
                butterfly(b, d, _mm256_set1_ps(w2r[k + h]), _mm256_set1_ps(w2i[k + h]));
                store_slot(x, s, a);
                store_slot(x, s + h, b);
                store_slot(x, s + 2 * h, c);
                store_slot(x, s + 3 * h, d);
            }
        }
    }
    if (h < n) {
        for (std::size_t k = 0; k < h; ++k) {
            Lines a = load_slot(x, k);
            Lines b = load_slot(x, k + h);
            butterfly(a, b, _mm256_set1_ps(wr[h - 1 + k]), _mm256_set1_ps(wi[h - 1 + k]));
            store_slot(x, k, a);
            store_slot(x, k + h, b);
        }
    }
}

// In-register transpose of an 8 x 8 float block: v[k][j] becomes v[j][k].
inline void transpose8(__m256 (&v)[8]) {
    __m256 t[8];
    for (int q = 0; q < 4; ++q) {
        t[2 * q] = _mm256_unpacklo_ps(v[2 * q], v[2 * q + 1]);
        t[2 * q + 1] = _mm256_unpackhi_ps(v[2 * q], v[2 * q + 1]);
    }
    __m256 u[8];
    for (int q = 0; q < 2; ++q) {
        u[4 * q] = _mm256_shuffle_ps(t[4 * q], t[4 * q + 2], 0x44);
        u[4 * q + 1] = _mm256_shuffle_ps(t[4 * q], t[4 * q + 2], 0xEE);
        u[4 * q + 2] = _mm256_shuffle_ps(t[4 * q + 1], t[4 * q + 3], 0x44);
        u[4 * q + 3] = _mm256_shuffle_ps(t[4 * q + 1], t[4 * q + 3], 0xEE);
    }
    for (int q = 0; q < 4; ++q) {
        v[q] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x20);
        v[q + 4] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x31);
    }
}

// Eight rows (stride 1, n >= 4), four elements at a time: one load per row
// holds the interleaved re/im of four elements, and a transpose turns the
// eight loads into those elements' re and im vectors. Lanes past a partial
// group repeat row 0 and are never stored.
void load_rows(float* x, std::complex<float>* const (&rows)[8], std::size_t n,
               const int* rev) {
    for (std::size_t e = 0; e < n; e += 4) {
        __m256 v[8];
        for (int j = 0; j < 8; ++j) {
            v[j] = _mm256_loadu_ps(reinterpret_cast<const float*>(rows[j] + e));
        }
        transpose8(v);
        for (std::size_t q = 0; q < 4; ++q) {
            store_slot(x, static_cast<std::size_t>(rev[e + q]), {v[2 * q], v[2 * q + 1]});
        }
    }
}

void store_rows(const float* x, std::complex<float>* const (&rows)[8], std::size_t lanes,
                std::size_t n, float scale) {
    const __m256 sv = _mm256_set1_ps(scale);
    for (std::size_t e = 0; e < n; e += 4) {
        __m256 v[8];
        for (std::size_t q = 0; q < 4; ++q) {
            const Lines c = load_slot(x, e + q);
            v[2 * q] = c.re;
            v[2 * q + 1] = c.im;
        }
        transpose8(v);
        for (std::size_t j = 0; j < lanes; ++j) {
            const __m256 out = scale != 0.0F ? _mm256_mul_ps(v[j], sv) : v[j];
            _mm256_storeu_ps(reinterpret_cast<float*>(rows[j] + e), out);
        }
    }
}

// Eight adjacent columns: element e of all eight is 64 contiguous bytes,
// two loads split into re and im by one shuffle each. The lanes come out
// in the order 0 1 4 5 2 3 6 7; the unpacks on the way back undo it.
void load_cols(float* x, const std::complex<float>* first, std::size_t stride, std::size_t n,
               const int* rev) {
    for (std::size_t e = 0; e < n; ++e) {
        const float* p = reinterpret_cast<const float*>(first + e * stride);
        const __m256 a = _mm256_loadu_ps(p);
        const __m256 b = _mm256_loadu_ps(p + 8);
        store_slot(x, static_cast<std::size_t>(rev[e]),
                   {_mm256_shuffle_ps(a, b, 0x88), _mm256_shuffle_ps(a, b, 0xDD)});
    }
}

void store_cols(const float* x, std::complex<float>* first, std::size_t stride, std::size_t n,
                float scale) {
    const __m256 sv = _mm256_set1_ps(scale);
    for (std::size_t e = 0; e < n; ++e) {
        Lines c = load_slot(x, e);
        if (scale != 0.0F) {
            c.re = _mm256_mul_ps(c.re, sv);
            c.im = _mm256_mul_ps(c.im, sv);
        }
        float* p = reinterpret_cast<float*>(first + e * stride);
        _mm256_storeu_ps(p, _mm256_unpacklo_ps(c.re, c.im));
        _mm256_storeu_ps(p + 8, _mm256_unpackhi_ps(c.re, c.im));
    }
}

// Any `lanes` <= 8 lines, one element of one line at a time (scattered
// columns, partial column groups, n < 4); lanes past `lanes` hold +0.0.
void load_lanes(float* x, const std::complex<float>* data, std::size_t stride,
                const std::size_t* first, std::size_t lanes, std::size_t n, const int* rev) {
    if (lanes < 8) std::fill(x, x + 16 * n, 0.0F);
    for (std::size_t e = 0; e < n; ++e) {
        const std::complex<float>* src = data + e * stride;
        float* slot = x + 16 * static_cast<std::size_t>(rev[e]);
        for (std::size_t j = 0; j < lanes; ++j) {
            const std::complex<float> c = src[first[j]];
            slot[j] = c.real();
            slot[8 + j] = c.imag();
        }
    }
}

void store_lanes(const float* x, std::complex<float>* data, std::size_t stride,
                 const std::size_t* first, std::size_t lanes, std::size_t n, float scale) {
    for (std::size_t e = 0; e < n; ++e) {
        std::complex<float>* dst = data + e * stride;
        const float* slot = x + 16 * e;
        for (std::size_t j = 0; j < lanes; ++j) {
            std::complex<float> c(slot[j], slot[8 + j]);
            if (scale != 0.0F) c *= scale;
            dst[first[j]] = c;
        }
    }
}

// Each group of 8 lines takes the widest load its layout allows: rows
// (stride 1) through the transpose, 8 adjacent columns through the re/im
// split, anything else lane by lane.
void avx2_fft_lines(std::complex<float>* data, int n, std::size_t stride,
                     const std::size_t* starts, std::size_t count, const int* rev,
                     const float* wr, const float* wi, float scale) {
    const auto len = static_cast<std::size_t>(n);
    thread_local std::vector<float> scratch;
    const std::size_t bytes = 16 * len * sizeof(float);
    if (scratch.size() < 16 * len + 8) scratch.resize(16 * len + 8);
    void* aligned = scratch.data();
    std::size_t space = scratch.size() * sizeof(float);
    float* x = static_cast<float*>(std::align(32, bytes, aligned, space));

    for (std::size_t g = 0; g < count; g += 8) {
        const std::size_t lanes = std::min<std::size_t>(8, count - g);
        const std::size_t* first = starts + g;
        bool adjacent = lanes == 8;
        for (std::size_t j = 1; adjacent && j < 8; ++j) adjacent = first[j] == first[0] + j;

        if (stride == 1 && len >= 4) {
            std::complex<float>* rows[8];
            for (std::size_t j = 0; j < 8; ++j) rows[j] = data + first[j < lanes ? j : 0];
            load_rows(x, rows, len, rev);
            fft_stages(x, len, wr, wi);
            store_rows(x, rows, lanes, len, scale);
        } else if (adjacent) {
            load_cols(x, data + first[0], stride, len, rev);
            fft_stages(x, len, wr, wi);
            store_cols(x, data + first[0], stride, len, scale);
        } else {
            load_lanes(x, data, stride, first, lanes, len, rev);
            fft_stages(x, len, wr, wi);
            store_lanes(x, data, stride, first, lanes, len, scale);
        }
    }
}

const Ops kAvx2Ops = {
    Level::kAvx2,
    tiled_gemm_blocked,
    tiled_conv2d_packed,
    avx2_cmul,
    avx2_norm_acc,
    avx2_gemm_nn,
    avx2_gemm_tn_acc,
    avx2_conv2d_dx,
    avx2_fft_lines,
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
