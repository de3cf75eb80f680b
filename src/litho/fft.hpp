// Iterative radix-2 complex FFT (1D and 2D, power-of-two sizes).
//
// Conventions: forward() applies no scaling; inverse() scales by 1/N (1D)
// or 1/N^2 (2D), so inverse(forward(x)) == x.
//
// Bit-identity contract: for finite inputs every entry point produces,
// bit for bit, the output of the textbook radix-2 transform (bit-reversal
// permutation, then log2 N butterfly stages with std::complex<float>
// arithmetic and twiddles rounded from double), applied to rows first and
// then to columns. tests/test_fft.cpp checks this against a verbatim copy
// of that reference at every SIMD level. The butterflies run in the
// dispatched line kernel simd::Ops::fft_lines (common/simd.hpp), written
// out in float arithmetic in the same operation order, so the tree is
// compiled without floating-point contraction (-ffp-contract=off, set in
// CMakeLists.txt).
//
// The sparse variants skip work whose result is known without doing it:
//   * fft2d_inverse_rowsparse() skips the row pass on rows flagged empty and
//     leaves them as they are. It equals fft2d_inverse() bit for bit when
//     every skipped row is all +0.0 (the row pass maps such a row to
//     itself); otherwise the skipped rows enter the column pass untransformed.
//   * fft2d_forward_pruned() does the same for the forward row pass and runs
//     the column pass only on the needed columns. Needed columns equal
//     fft2d_forward() bit for bit under the same all-+0.0 condition; every
//     other column holds unspecified values. A row holding -0.0 is not
//     empty: its transform may carry signed zeros into the output.
//
// Every entry point throws std::invalid_argument when n is not a power of
// two, the grid does not hold n*n entries, or a mask does not hold n flags.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace camo::litho {

using Complex = std::complex<float>;

/// True iff n is a power of two (and > 0).
bool is_pow2(int n);

/// In-place forward FFT of length data.size() (power of two).
void fft_forward(std::span<Complex> data);

/// In-place inverse FFT (includes the 1/N scale).
void fft_inverse(std::span<Complex> data);

/// In-place forward 2D FFT of an n-by-n row-major grid.
void fft2d_forward(std::span<Complex> grid, int n);

/// In-place inverse 2D FFT (includes the 1/N^2 scale).
void fft2d_inverse(std::span<Complex> grid, int n);

/// Inverse 2D FFT that skips the row pass on rows whose `row_nonzero` flag
/// is zero (nonzero byte = occupied). See the contract above.
void fft2d_inverse_rowsparse(std::span<Complex> grid, int n,
                             std::span<const std::uint8_t> row_nonzero);

/// Forward 2D FFT that skips the row pass on rows whose `row_nonzero` flag
/// is zero and transforms only the columns whose `col_needed` flag is
/// nonzero. See the contract above.
void fft2d_forward_pruned(std::span<Complex> grid, int n,
                          std::span<const std::uint8_t> row_nonzero,
                          std::span<const std::uint8_t> col_needed);

}  // namespace camo::litho
