// The scalar entry of ExactOps::fft_lines, the reference the AVX2 entry
// (simd_avx2_exact.cpp) must match bit for bit. It lives in its own
// translation unit because CMake pins -ffp-contract=off on it: a butterfly
// contracted to an FMA (aarch64, -march=native) rounds differently from the
// std::complex reference.
#include <algorithm>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/simd.hpp"

namespace camo::simd::detail {
namespace {

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

}  // namespace

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

}  // namespace camo::simd::detail
