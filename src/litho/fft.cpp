#include "litho/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "common/simd.hpp"

namespace camo::litho {
namespace {

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
// KernelApplicator::apply alternates between its coarse and fine sizes.
const Plan& plan(int n, bool inverse) {
    thread_local std::array<std::array<Plan, 2>, 31> plans;
    Plan& p = plans[static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(n)))]
                   [inverse ? 1 : 0];
    if (p.rev.empty()) p = make_plan(n, inverse);
    return p;
}

// Transforms the lines whose first elements sit at `starts` (element e of
// a line at start + e * stride) through the dispatched line kernel. A
// nonzero `scale` multiplies every output, as the reference's final
// `c *= scale` does.
void transform_lines(Complex* data, int n, std::size_t stride,
                     std::span<const std::size_t> starts, const Plan& p, float scale) {
    simd::ops().fft_lines(data, n, stride, starts.data(), starts.size(), p.rev.data(),
                          p.wr.data(), p.wi.data(), scale);
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
    transform_lines(grid.data(), n, 1, starts, p, 0.0F);

    starts.clear();
    for (std::size_t c = 0; c < len; ++c) {
        if (col_mask.empty() || col_mask[c]) starts.push_back(c);
    }
    const float scale = inverse ? 1.0F / (static_cast<float>(n) * static_cast<float>(n)) : 0.0F;
    transform_lines(grid.data(), n, len, starts, p, scale);
}

void transform_1d(std::span<Complex> data, bool inverse) {
    const int n = static_cast<int>(data.size());
    if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");
    const std::size_t start = 0;
    const float scale = inverse ? 1.0F / static_cast<float>(data.size()) : 0.0F;
    transform_lines(data.data(), n, 1, {&start, 1}, plan(n, inverse), scale);
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
