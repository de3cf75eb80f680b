#include "litho/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace camo::litho {
namespace {

// Lines (rows or columns) one pass of the 2D transform runs side by side.
constexpr int kLanes = 8;

// Bit-reversal indices and stage twiddles for one size and direction.
struct Plan {
    std::vector<int> rev;  ///< bit-reversed position of each index
    // Twiddles of each butterfly stage, concatenated: the stage whose
    // butterflies span 2*h elements reads its h twiddles from offset h - 1.
    std::vector<float> wr;
    std::vector<float> wi;
};

Plan make_plan(int n, bool inverse) {
    // The stage spanning len elements uses tw[k * (n / len)] of this table,
    // rounded from double exactly as the reference transform rounds it.
    std::vector<Complex> tw(static_cast<std::size_t>(n) / 2);
    const double sign = inverse ? 1.0 : -1.0;
    for (int k = 0; k < n / 2; ++k) {
        const double ang = sign * 2.0 * std::numbers::pi * k / n;
        tw[static_cast<std::size_t>(k)] =
            Complex(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
    }

    Plan p;
    p.rev.assign(static_cast<std::size_t>(n), 0);
    for (int i = 1, j = 0; i < n; ++i) {
        int bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        p.rev[static_cast<std::size_t>(i)] = j;
    }
    p.wr.reserve(static_cast<std::size_t>(n));
    p.wi.reserve(static_cast<std::size_t>(n));
    for (int half = 1; half < n; half <<= 1) {
        const int step = n / (2 * half);
        for (int k = 0; k < half; ++k) {
            const Complex w = tw[static_cast<std::size_t>(k * step)];
            p.wr.push_back(w.real());
            p.wi.push_back(w.imag());
        }
    }
    return p;
}

// Plans are cached per thread, one per size and direction: the batch
// runtime calls the FFT from many workers at once, and one
// SupportApplicator::apply alternates between its coarse and fine sizes.
const Plan& plan(int n, bool inverse) {
    thread_local std::array<std::array<Plan, 2>, 31> plans;
    Plan& p = plans[static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(n)))]
                   [inverse ? 1 : 0];
    if (p.rev.empty()) p = make_plan(n, inverse);
    return p;
}

// One butterfly on Lanes independent lines: exactly the reference
// butterfly per lane, t = v * w in std::complex operation order, then
// v = u - t and u = u + t. The restrict-qualified parameters let the
// compiler vectorize across lanes.
template <int Lanes>
inline void butterfly(float* __restrict ur, float* __restrict ui, float* __restrict vr,
                      float* __restrict vi, float wr, float wi) {
    for (int j = 0; j < Lanes; ++j) {
        const float tr = vr[j] * wr - vi[j] * wi;
        const float ti = vr[j] * wi + vi[j] * wr;
        vr[j] = ur[j] - tr;
        vi[j] = ui[j] - ti;
        ur[j] = ur[j] + tr;
        ui[j] = ui[j] + ti;
    }
}

// Every radix-2 stage over Lanes lines stored lane-minor (element e of
// lane j at [e * Lanes + j]) and already in bit-reversed order.
template <int Lanes>
void butterflies(float* re, float* im, int n, const Plan& p) {
    for (int half = 1; half < n; half <<= 1) {
        const float* wr = p.wr.data() + (half - 1);
        const float* wi = p.wi.data() + (half - 1);
        for (int i = 0; i < n; i += 2 * half) {
            for (int k = 0; k < half; ++k) {
                const std::size_t u = static_cast<std::size_t>(i + k) * Lanes;
                const std::size_t v = u + static_cast<std::size_t>(half) * Lanes;
                butterfly<Lanes>(re + u, im + u, re + v, im + v, wr[k], wi[k]);
            }
        }
    }
}

// Transforms the lines whose first elements sit at `starts` (element e of
// a line at start + e * stride), Lanes at a time: gather into lane-minor
// scratch in bit-reversed order, run the butterflies, scatter back. A
// nonzero `scale` multiplies every output, as the reference's final
// `c *= scale` does.
template <int Lanes>
void transform_lines(Complex* data, int n, std::size_t stride,
                     std::span<const std::size_t> starts, const Plan& p, float scale) {
    const auto len = static_cast<std::size_t>(n);
    thread_local std::vector<float> scratch;
    if (scratch.size() < 2 * len * Lanes) scratch.resize(2 * len * Lanes);
    float* re = scratch.data();
    float* im = re + len * Lanes;

    for (std::size_t g = 0; g < starts.size(); g += Lanes) {
        const std::size_t lanes = std::min<std::size_t>(Lanes, starts.size() - g);
        const std::size_t* first = starts.data() + g;
        if (lanes < Lanes) std::fill(re, re + 2 * len * Lanes, 0.0F);

        for (std::size_t e = 0; e < len; ++e) {
            const Complex* src = data + e * stride;
            const std::size_t d = static_cast<std::size_t>(p.rev[e]) * Lanes;
            for (std::size_t j = 0; j < lanes; ++j) {
                const Complex c = src[first[j]];
                re[d + j] = c.real();
                im[d + j] = c.imag();
            }
        }

        butterflies<Lanes>(re, im, n, p);

        for (std::size_t e = 0; e < len; ++e) {
            Complex* dst = data + e * stride;
            const std::size_t s = e * Lanes;
            for (std::size_t j = 0; j < lanes; ++j) {
                Complex c(re[s + j], im[s + j]);
                if (scale != 0.0F) c *= scale;
                dst[first[j]] = c;
            }
        }
    }
}

void require_flags(std::span<const std::uint8_t> mask, int n, const char* what) {
    if (mask.size() != static_cast<std::size_t>(n)) {
        throw std::invalid_argument(std::string(what) + " must hold n flags");
    }
}

// The one 2D transform behind every fft2d_* entry point: a row pass over
// the rows flagged in row_mask, then a column pass over the columns flagged
// in col_mask (an empty mask selects every line; the entry points check
// that a given mask holds n flags).
void transform_2d(std::span<Complex> grid, int n, bool inverse,
                  std::span<const std::uint8_t> row_mask,
                  std::span<const std::uint8_t> col_mask) {
    if (!is_pow2(n)) throw std::invalid_argument("fft2d: n must be a power of two");
    const auto len = static_cast<std::size_t>(n);
    if (grid.size() != len * len) throw std::invalid_argument("fft2d: grid must hold n*n entries");
    const Plan& p = plan(n, inverse);

    std::vector<std::size_t> starts;
    starts.reserve(len);
    for (std::size_t r = 0; r < len; ++r) {
        if (row_mask.empty() || row_mask[r]) starts.push_back(r * len);
    }
    transform_lines<kLanes>(grid.data(), n, 1, starts, p, 0.0F);

    starts.clear();
    for (std::size_t c = 0; c < len; ++c) {
        if (col_mask.empty() || col_mask[c]) starts.push_back(c);
    }
    const float scale = inverse ? 1.0F / (static_cast<float>(n) * static_cast<float>(n)) : 0.0F;
    transform_lines<kLanes>(grid.data(), n, len, starts, p, scale);
}

void transform_1d(std::span<Complex> data, bool inverse) {
    const int n = static_cast<int>(data.size());
    if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");
    const std::size_t start = 0;
    const float scale = inverse ? 1.0F / static_cast<float>(data.size()) : 0.0F;
    transform_lines<1>(data.data(), n, 1, {&start, 1}, plan(n, inverse), scale);
}

}  // namespace

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

void fft_forward(std::span<Complex> data) { transform_1d(data, false); }

void fft_inverse(std::span<Complex> data) { transform_1d(data, true); }

void fft2d_forward(std::span<Complex> grid, int n) { transform_2d(grid, n, false, {}, {}); }

void fft2d_inverse(std::span<Complex> grid, int n) { transform_2d(grid, n, true, {}, {}); }

void fft2d_inverse_rowsparse(std::span<Complex> grid, int n,
                             std::span<const std::uint8_t> row_nonzero) {
    require_flags(row_nonzero, n, "fft2d_inverse_rowsparse: row_nonzero");
    transform_2d(grid, n, true, row_nonzero, {});
}

void fft2d_forward_pruned(std::span<Complex> grid, int n,
                          std::span<const std::uint8_t> row_nonzero,
                          std::span<const std::uint8_t> col_needed) {
    require_flags(row_nonzero, n, "fft2d_forward_pruned: row_nonzero");
    require_flags(col_needed, n, "fft2d_forward_pruned: col_needed");
    transform_2d(grid, n, false, row_nonzero, col_needed);
}

}  // namespace camo::litho
