#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace camo::simd {
namespace detail {

// The AVX2 table, in simd_avx2_exact.cpp; nullptr when that translation
// unit was built without -mavx2 (every ISA but x86-64).
const Ops* avx2_ops();

}  // namespace detail

namespace {

// ---- Scalar reference kernels ----------------------------------------------
// The naive loops: one accumulator per output element, products added in
// ascending input order. The blocked weight layout only changes where
// W[o][i] lives, not the order it is read in.

void scalar_gemm_blocked(const float* w, const float* bias, const float* x, int rows, int in,
                         int out, int out_padded, float* y, bool accumulate) {
    (void)out_padded;
    for (int r = 0; r < rows; ++r) {
        const float* xr = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(in);
        float* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(out);
        for (int o = 0; o < out; ++o) {
            const int blk = o / kBlock;
            const int lane = o % kBlock;
            const float* wcol =
                w + (static_cast<std::size_t>(blk) * static_cast<std::size_t>(in)) * kBlock + lane;
            float acc = accumulate ? yr[o] : bias[o];
            for (int i = 0; i < in; ++i) {
                acc += wcol[static_cast<std::size_t>(i) * kBlock] * xr[i];
            }
            yr[o] = acc;
        }
    }
}

void scalar_conv2d_packed(const float* w, const float* bias, const float* x, int in_ch, int h,
                          int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                          float* y, int oh, int ow) {
    for (int oc = 0; oc < out_ch; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float acc = bias[oc];
                const int iy0 = oy * stride - pad;
                const int ix0 = ox * stride - pad;
                for (int ic = 0; ic < in_ch; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= wdt) continue;
                            const std::size_t widx =
                                ((static_cast<std::size_t>(ic) * static_cast<std::size_t>(k) +
                                  static_cast<std::size_t>(ky)) *
                                     static_cast<std::size_t>(k) +
                                 static_cast<std::size_t>(kx)) *
                                    static_cast<std::size_t>(out_ch_padded) +
                                static_cast<std::size_t>(oc);
                            const std::size_t xidx =
                                (static_cast<std::size_t>(ic) * static_cast<std::size_t>(h) +
                                 static_cast<std::size_t>(iy)) *
                                    static_cast<std::size_t>(wdt) +
                                static_cast<std::size_t>(ix);
                            acc += w[widx] * x[xidx];
                        }
                    }
                }
                y[(static_cast<std::size_t>(oc) * static_cast<std::size_t>(oh) +
                   static_cast<std::size_t>(oy)) *
                      static_cast<std::size_t>(ow) +
                  static_cast<std::size_t>(ox)] = acc;
            }
        }
    }
}

void scalar_cmul(const std::complex<float>* a, const std::complex<float>* b,
                 std::complex<float>* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void scalar_norm_acc(const std::complex<float>* field, float lambda, float* intensity,
                     std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) intensity[i] += lambda * std::norm(field[i]);
}

// ---- Scalar backward kernels -------------------------------------------------

void scalar_gemm_nn(const float* x, int rows, int inner, const float* w, int cols, float* y) {
    for (int r = 0; r < rows; ++r) {
        const float* xr = x + static_cast<std::size_t>(r) * static_cast<std::size_t>(inner);
        float* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols);
        for (int c = 0; c < cols; ++c) {
            float acc = 0.0F;
            for (int j = 0; j < inner; ++j) {
                acc += xr[j] * w[static_cast<std::size_t>(j) * static_cast<std::size_t>(cols) +
                                 static_cast<std::size_t>(c)];
            }
            yr[c] = acc;
        }
    }
}

void scalar_gemm_tn_acc(const float* a, int a_row_stride, int a_col_stride, const float* b,
                        int rows, int m, int k, float* c, bool descending) {
    for (int i = 0; i < m; ++i) {
        float* ci = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
        for (int step = 0; step < rows; ++step) {
            const int r = descending ? rows - 1 - step : step;
            const float ar = a[static_cast<std::ptrdiff_t>(r) * a_row_stride +
                               static_cast<std::ptrdiff_t>(i) * a_col_stride];
            const float* br = b + static_cast<std::size_t>(r) * static_cast<std::size_t>(k);
            for (int j = 0; j < k; ++j) ci[j] += ar * br[j];
        }
    }
}

// The per-sample layer loop's input-gradient scatter: zero output
// gradients skipped, terms added in (oc, oy, ox) order.
void scalar_conv2d_dx(const float* wt, const float* dy, int in_ch, int in_ch_padded, int h,
                      int wdt, int out_ch, int k, int stride, int pad, int oh, int ow,
                      float* dx) {
    std::fill(dx, dx + static_cast<std::size_t>(in_ch) * static_cast<std::size_t>(h) *
                           static_cast<std::size_t>(wdt),
              0.0F);
    for (int oc = 0; oc < out_ch; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                const float g = dy[(static_cast<std::size_t>(oc) * static_cast<std::size_t>(oh) +
                                    static_cast<std::size_t>(oy)) *
                                       static_cast<std::size_t>(ow) +
                                   static_cast<std::size_t>(ox)];
                if (g == 0.0F) continue;
                for (int ic = 0; ic < in_ch; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy * stride - pad + ky;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox * stride - pad + kx;
                            if (ix < 0 || ix >= wdt) continue;
                            const std::size_t widx =
                                ((static_cast<std::size_t>(oc) * static_cast<std::size_t>(k) +
                                  static_cast<std::size_t>(ky)) *
                                     static_cast<std::size_t>(k) +
                                 static_cast<std::size_t>(kx)) *
                                    static_cast<std::size_t>(in_ch_padded) +
                                static_cast<std::size_t>(ic);
                            dx[(static_cast<std::size_t>(ic) * static_cast<std::size_t>(h) +
                                static_cast<std::size_t>(iy)) *
                                   static_cast<std::size_t>(wdt) +
                               static_cast<std::size_t>(ix)] += g * wt[widx];
                        }
                    }
                }
            }
        }
    }
}

// ---- Scalar FFT line kernel --------------------------------------------------

// Lines one group runs side by side.
constexpr int kLanes = 8;

// One butterfly on kLanes independent lines: exactly the reference
// butterfly per lane, t = v * w in std::complex operation order, then
// v = u - t and u = u + t. The restrict-qualified parameters let the
// compiler vectorize across lanes.
inline void butterfly(float* __restrict ur, float* __restrict ui, float* __restrict vr,
                      float* __restrict vi, float wr, float wi) {
    for (int j = 0; j < kLanes; ++j) {
        const float tr = vr[j] * wr - vi[j] * wi;
        const float ti = vr[j] * wi + vi[j] * wr;
        vr[j] = ur[j] - tr;
        vi[j] = ui[j] - ti;
        ur[j] = ur[j] + tr;
        ui[j] = ui[j] + ti;
    }
}

// Every radix-2 stage over kLanes lines stored lane-minor (element e of
// lane j at [e * kLanes + j]) and already in bit-reversed order. Kept out
// of line: inlined into scalar_fft_lines, GCC 12 vectorizes only half of
// each butterfly.
[[gnu::noinline]] void butterflies(float* re, float* im, int n, const float* wr_all,
                                   const float* wi_all) {
    for (int half = 1; half < n; half <<= 1) {
        const float* wr = wr_all + (half - 1);
        const float* wi = wi_all + (half - 1);
        for (int i = 0; i < n; i += 2 * half) {
            for (int k = 0; k < half; ++k) {
                const std::size_t u = static_cast<std::size_t>(i + k) * kLanes;
                const std::size_t v = u + static_cast<std::size_t>(half) * kLanes;
                butterfly(re + u, im + u, re + v, im + v, wr[k], wi[k]);
            }
        }
    }
}

// Gathers each group of kLanes lines into lane-minor scratch in bit-reversed
// order, runs the butterflies and scatters the group back.
void scalar_fft_lines(std::complex<float>* data, int n, std::size_t stride,
                      const std::size_t* starts, std::size_t count, const int* rev,
                      const float* wr, const float* wi, float scale) {
    const auto len = static_cast<std::size_t>(n);
    thread_local std::vector<float> scratch;
    if (scratch.size() < 2 * len * kLanes) scratch.resize(2 * len * kLanes);
    float* re = scratch.data();
    float* im = re + len * kLanes;

    for (std::size_t g = 0; g < count; g += kLanes) {
        const std::size_t lanes = std::min<std::size_t>(kLanes, count - g);
        const std::size_t* first = starts + g;
        if (lanes < kLanes) std::fill(re, re + 2 * len * kLanes, 0.0F);

        for (std::size_t e = 0; e < len; ++e) {
            const std::complex<float>* src = data + e * stride;
            const std::size_t d = static_cast<std::size_t>(rev[e]) * kLanes;
            for (std::size_t j = 0; j < lanes; ++j) {
                const std::complex<float> c = src[first[j]];
                re[d + j] = c.real();
                im[d + j] = c.imag();
            }
        }

        butterflies(re, im, n, wr, wi);

        for (std::size_t e = 0; e < len; ++e) {
            std::complex<float>* dst = data + e * stride;
            const std::size_t s = e * kLanes;
            for (std::size_t j = 0; j < lanes; ++j) {
                std::complex<float> c(re[s + j], im[s + j]);
                if (scale != 0.0F) c *= scale;
                dst[first[j]] = c;
            }
        }
    }
}

const Ops kScalarOps = {
    Level::kScalar,
    scalar_gemm_blocked,
    scalar_conv2d_packed,
    scalar_cmul,
    scalar_norm_acc,
    scalar_gemm_nn,
    scalar_gemm_tn_acc,
    scalar_conv2d_dx,
    scalar_fft_lines,
};

// ---- Dispatch ---------------------------------------------------------------

const Ops* table_for(Level level) {
    if (level == Level::kAvx2) {
        if (const Ops* t = detail::avx2_ops()) return t;
    }
    return &kScalarOps;
}

Level compute_detected() {
#if defined(__x86_64__) || defined(_M_X64)
    if (detail::avx2_ops() != nullptr && __builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
    return Level::kScalar;
}

Level env_requested(Level best) {
    const char* env = std::getenv("CAMO_BACKEND");
    if (env == nullptr || std::strcmp(env, "auto") == 0 || env[0] == '\0') return best;
    if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(env, "simd") == 0) {
        if (best == Level::kScalar) {
            std::fprintf(stderr,
                         "CAMO_BACKEND=simd: no SIMD kernels available on this "
                         "build/CPU; using scalar\n");
        }
        return best;
    }
    std::fprintf(stderr, "CAMO_BACKEND: unknown value '%s' (scalar|simd|auto); using auto\n",
                 env);
    return best;
}

std::atomic<const Ops*>& active_table() {
    static std::atomic<const Ops*> table{table_for(env_requested(compute_detected()))};
    return table;
}

}  // namespace

const char* level_name(Level level) {
    return level == Level::kAvx2 ? "avx2" : "scalar";
}

Level detected_level() {
    static const Level level = compute_detected();
    return level;
}

Level active_level() { return active_table().load(std::memory_order_relaxed)->level; }

const Ops& ops() { return *active_table().load(std::memory_order_relaxed); }

const Ops& scalar_ops() { return kScalarOps; }

ScopedOverride::ScopedOverride(Level level) : prev_(active_level()) {
    // Anything non-scalar clips to what this build + CPU can actually run.
    const Level want = level == Level::kScalar ? Level::kScalar : detected_level();
    active_table().store(table_for(want), std::memory_order_relaxed);
}

ScopedOverride::~ScopedOverride() {
    active_table().store(table_for(prev_), std::memory_order_relaxed);
}

}  // namespace camo::simd
