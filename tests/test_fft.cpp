// FFT tests: mathematical properties (tolerances) and the bit-identity
// contract of litho/fft.hpp, checked with memcmp against the textbook
// radix-2 transform kept below as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "litho/fft.hpp"

namespace camo::simd {
// Names the level in gtest's parameter messages.
void PrintTo(Level level, std::ostream* os) { *os << level_name(level); }
}  // namespace camo::simd

namespace camo::litho {
namespace reference {

// The original std::complex radix-2 transform, kept verbatim as the
// reference the fast core must reproduce bit for bit.

const std::vector<Complex>& twiddles(int n, bool inverse) {
    thread_local std::vector<Complex> fwd_cache;
    thread_local std::vector<Complex> inv_cache;
    thread_local int fwd_n = 0;
    thread_local int inv_n = 0;

    std::vector<Complex>& cache = inverse ? inv_cache : fwd_cache;
    int& cached_n = inverse ? inv_n : fwd_n;
    if (cached_n != n) {
        cache.resize(static_cast<std::size_t>(n) / 2);
        const double sign = inverse ? 1.0 : -1.0;
        for (int k = 0; k < n / 2; ++k) {
            const double ang = sign * 2.0 * std::numbers::pi * k / n;
            cache[static_cast<std::size_t>(k)] =
                Complex(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
        }
        cached_n = n;
    }
    return cache;
}

void fft_core(std::span<Complex> a, bool inverse) {
    const int n = static_cast<int>(a.size());
    if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");

    // Bit-reversal permutation.
    for (int i = 1, j = 0; i < n; ++i) {
        int bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(a[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(j)]);
    }

    const auto& tw = twiddles(n, inverse);
    for (int len = 2; len <= n; len <<= 1) {
        const int step = n / len;
        for (int i = 0; i < n; i += len) {
            for (int k = 0; k < len / 2; ++k) {
                const Complex w = tw[static_cast<std::size_t>(k * step)];
                Complex& u = a[static_cast<std::size_t>(i + k)];
                Complex& v = a[static_cast<std::size_t>(i + k + len / 2)];
                const Complex t = v * w;
                v = u - t;
                u = u + t;
            }
        }
    }
}

void fft_forward(std::span<Complex> data) { fft_core(data, false); }

void fft_inverse(std::span<Complex> data) {
    fft_core(data, true);
    const float scale = 1.0F / static_cast<float>(data.size());
    for (Complex& c : data) c *= scale;
}

void transform_rows(std::span<Complex> grid, int n, bool inverse,
                    std::span<const std::uint8_t> row_mask) {
    for (int r = 0; r < n; ++r) {
        if (!row_mask.empty() && !row_mask[static_cast<std::size_t>(r)]) continue;
        fft_core(grid.subspan(static_cast<std::size_t>(r) * static_cast<std::size_t>(n),
                              static_cast<std::size_t>(n)),
                 inverse);
    }
}

void transform_cols(std::span<Complex> grid, int n, bool inverse) {
    std::vector<Complex> col(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
        for (int r = 0; r < n; ++r) {
            col[static_cast<std::size_t>(r)] =
                grid[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(c)];
        }
        fft_core(col, inverse);
        for (int r = 0; r < n; ++r) {
            grid[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(c)] = col[static_cast<std::size_t>(r)];
        }
    }
}

void fft2d_forward(std::span<Complex> grid, int n) {
    transform_rows(grid, n, false, {});
    transform_cols(grid, n, false);
}

void fft2d_inverse(std::span<Complex> grid, int n) {
    transform_rows(grid, n, true, {});
    transform_cols(grid, n, true);
    const float scale = 1.0F / (static_cast<float>(n) * static_cast<float>(n));
    for (Complex& c : grid) c *= scale;
}

void fft2d_inverse_rowsparse(std::span<Complex> grid, int n,
                             std::span<const std::uint8_t> row_nonzero) {
    transform_rows(grid, n, true, row_nonzero);
    transform_cols(grid, n, true);
    const float scale = 1.0F / (static_cast<float>(n) * static_cast<float>(n));
    for (Complex& c : grid) c *= scale;
}

}  // namespace reference

namespace {

std::vector<Complex> random_signal(int n, Rng& rng) {
    std::vector<Complex> v(static_cast<std::size_t>(n));
    for (auto& c : v) {
        c = Complex(static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1)));
    }
    return v;
}

TEST(Fft, IsPow2) {
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(1024));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_FALSE(is_pow2(-4));
}

TEST(Fft, RejectsNonPowerOfTwo) {
    std::vector<Complex> v(6);
    EXPECT_THROW(fft_forward(v), std::invalid_argument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
    std::vector<Complex> v(16);
    v[0] = Complex(1.0F, 0.0F);
    fft_forward(v);
    for (const Complex& c : v) {
        EXPECT_NEAR(c.real(), 1.0F, 1e-5F);
        EXPECT_NEAR(c.imag(), 0.0F, 1e-5F);
    }
}

TEST(Fft, SingleToneLandsOnOneBin) {
    const int n = 32;
    const int tone = 5;
    std::vector<Complex> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const double ang = 2.0 * std::numbers::pi * tone * i / n;
        v[static_cast<std::size_t>(i)] =
            Complex(static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang)));
    }
    fft_forward(v);
    for (int k = 0; k < n; ++k) {
        const float mag = std::abs(v[static_cast<std::size_t>(k)]);
        if (k == tone) {
            EXPECT_NEAR(mag, static_cast<float>(n), 1e-3F);
        } else {
            EXPECT_NEAR(mag, 0.0F, 1e-3F);
        }
    }
}

class FftRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(FftRoundtrip, InverseRecoversInput) {
    const int n = GetParam();
    Rng rng(7);
    const auto orig = random_signal(n, rng);
    auto v = orig;
    fft_forward(v);
    fft_inverse(v);
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(v[static_cast<std::size_t>(i)].real(), orig[static_cast<std::size_t>(i)].real(), 1e-4F);
        EXPECT_NEAR(v[static_cast<std::size_t>(i)].imag(), orig[static_cast<std::size_t>(i)].imag(), 1e-4F);
    }
}

TEST_P(FftRoundtrip, ParsevalHolds) {
    const int n = GetParam();
    Rng rng(11);
    auto v = random_signal(n, rng);
    double time_energy = 0.0;
    for (const Complex& c : v) time_energy += std::norm(c);
    fft_forward(v);
    double freq_energy = 0.0;
    for (const Complex& c : v) freq_energy += std::norm(c);
    EXPECT_NEAR(freq_energy / n, time_energy, time_energy * 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundtrip, ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, Linearity) {
    const int n = 64;
    Rng rng(3);
    const auto a = random_signal(n, rng);
    const auto b = random_signal(n, rng);
    std::vector<Complex> sum(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        sum[static_cast<std::size_t>(i)] =
            2.0F * a[static_cast<std::size_t>(i)] + b[static_cast<std::size_t>(i)];
    }
    auto fa = a;
    auto fb = b;
    auto fs = sum;
    fft_forward(fa);
    fft_forward(fb);
    fft_forward(fs);
    for (int i = 0; i < n; ++i) {
        const Complex expect = 2.0F * fa[static_cast<std::size_t>(i)] + fb[static_cast<std::size_t>(i)];
        EXPECT_NEAR(std::abs(fs[static_cast<std::size_t>(i)] - expect), 0.0F, 2e-3F);
    }
}

TEST(Fft2d, RoundtripAndParseval) {
    const int n = 32;
    Rng rng(5);
    auto grid = random_signal(n * n, rng);
    const auto orig = grid;
    double te = 0.0;
    for (const Complex& c : grid) te += std::norm(c);

    fft2d_forward(grid, n);
    double fe = 0.0;
    for (const Complex& c : grid) fe += std::norm(c);
    EXPECT_NEAR(fe / (static_cast<double>(n) * n), te, te * 1e-4);

    fft2d_inverse(grid, n);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_NEAR(std::abs(grid[i] - orig[i]), 0.0F, 1e-3F);
    }
}

TEST(Fft2d, RowSparseMatchesDense) {
    const int n = 32;
    Rng rng(9);
    std::vector<Complex> grid(static_cast<std::size_t>(n) * n);
    std::vector<std::uint8_t> row_mask(static_cast<std::size_t>(n), 0);
    // Populate only a few rows (like a compact kernel support).
    for (int r : {0, 1, 2, 30, 31}) {
        row_mask[static_cast<std::size_t>(r)] = 1;
        for (int c = 0; c < n; ++c) {
            grid[static_cast<std::size_t>(r) * n + c] = Complex(
                static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1)));
        }
    }
    auto dense = grid;
    fft2d_inverse(dense, n);
    auto sparse = grid;
    fft2d_inverse_rowsparse(sparse, n, row_mask);
    for (std::size_t i = 0; i < dense.size(); ++i) {
        EXPECT_NEAR(std::abs(dense[i] - sparse[i]), 0.0F, 1e-5F);
    }
}

TEST(Fft2d, DcComponentIsMean) {
    const int n = 16;
    std::vector<Complex> grid(static_cast<std::size_t>(n) * n, Complex(0.25F, 0.0F));
    fft2d_forward(grid, n);
    EXPECT_NEAR(grid[0].real(), 0.25F * n * n, 1e-3F);
    for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_NEAR(std::abs(grid[i]), 0.0F, 1e-3F);
}


// ---- Bit identity with the reference transform ----------------------------
//
// Every case runs once per line-kernel level (simd::Ops::fft_lines):
// the scalar entry and, where the build and CPU have one, the vector entry.

::testing::AssertionResult same_bits(std::span<const Complex> got, std::span<const Complex> want) {
    if (got.size() != want.size()) return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(&got[i], &want[i], sizeof(Complex)) != 0) {
            return ::testing::AssertionFailure()
                   << "first mismatch at " << i << ": got " << got[i] << ", want " << want[i];
        }
    }
    return ::testing::AssertionSuccess();
}

constexpr int kMaxBitIdentityN = 1024;

// An n-by-n grid whose rows cycle through the shapes the sparse contract
// tells apart: random signed values, all +0.0 (flagged empty), values with
// -0.0 entries, and all -0.0. row_nonzero flags every row not all +0.0.
struct MixedGrid {
    std::vector<Complex> values;
    std::vector<std::uint8_t> row_nonzero;
};

MixedGrid mixed_grid(int n, Rng& rng) {
    MixedGrid g;
    g.values.resize(static_cast<std::size_t>(n) * n);
    g.row_nonzero.assign(static_cast<std::size_t>(n), 1);
    for (int r = 0; r < n; ++r) {
        Complex* row = g.values.data() + static_cast<std::size_t>(r) * n;
        for (int c = 0; c < n; ++c) {
            const auto re = static_cast<float>(rng.uniform(-1, 1));
            const auto im = static_cast<float>(rng.uniform(-1, 1));
            switch (r % 4) {
                case 0: row[c] = Complex(re, im); break;
                case 1: row[c] = Complex(0.0F, 0.0F); break;
                case 2: row[c] = c % 3 == 0 ? Complex(-0.0F, 0.0F) : Complex(re, 0.0F); break;
                default: row[c] = Complex(-0.0F, -0.0F); break;
            }
        }
        if (r % 4 == 1) g.row_nonzero[static_cast<std::size_t>(r)] = 0;
    }
    return g;
}

class FftBitIdentity : public ::testing::TestWithParam<simd::Level> {
protected:
    void SetUp() override { level_.emplace(GetParam()); }
    void TearDown() override { level_.reset(); }

private:
    std::optional<simd::ScopedOverride> level_;
};

std::vector<simd::Level> line_kernel_levels() {
    std::vector<simd::Level> levels{simd::Level::kScalar};
    if (simd::detected_level() != simd::Level::kScalar) levels.push_back(simd::detected_level());
    return levels;
}

INSTANTIATE_TEST_SUITE_P(Levels, FftBitIdentity, ::testing::ValuesIn(line_kernel_levels()),
                         [](const ::testing::TestParamInfo<simd::Level>& info) {
                             return std::string(simd::level_name(info.param));
                         });

TEST_P(FftBitIdentity, OneDimensionalEverySize) {
    Rng rng(101);
    for (int n = 1; n <= kMaxBitIdentityN; n *= 2) {
        auto fwd = random_signal(n, rng);
        fwd[0] = Complex(-0.0F, 0.0F);
        auto want = fwd;
        fft_forward(fwd);
        reference::fft_forward(want);
        EXPECT_TRUE(same_bits(fwd, want)) << "forward n=" << n;

        auto inv = random_signal(n, rng);
        want = inv;
        fft_inverse(inv);
        reference::fft_inverse(want);
        EXPECT_TRUE(same_bits(inv, want)) << "inverse n=" << n;
    }
}

TEST_P(FftBitIdentity, TwoDimensionalEverySize) {
    Rng rng(202);
    for (int n = 1; n <= kMaxBitIdentityN; n *= 2) {
        const MixedGrid g = mixed_grid(n, rng);

        auto got = g.values;
        auto want = g.values;
        fft2d_forward(got, n);
        reference::fft2d_forward(want, n);
        EXPECT_TRUE(same_bits(got, want)) << "forward n=" << n;

        got = g.values;
        want = g.values;
        fft2d_inverse(got, n);
        reference::fft2d_inverse(want, n);
        EXPECT_TRUE(same_bits(got, want)) << "inverse n=" << n;
    }
}

TEST_P(FftBitIdentity, RowSparseInverseEverySize) {
    Rng rng(303);
    for (int n = 1; n <= kMaxBitIdentityN; n *= 2) {
        MixedGrid g = mixed_grid(n, rng);

        // Skipped rows all +0.0: equal to the dense inverse.
        auto got = g.values;
        auto want = g.values;
        fft2d_inverse_rowsparse(got, n, g.row_nonzero);
        reference::fft2d_inverse(want, n);
        EXPECT_TRUE(same_bits(got, want)) << "vs dense n=" << n;

        // Skipped rows holding values enter the column pass untransformed,
        // as in the reference row-sparse transform.
        for (std::size_t i = 0; i < g.values.size(); ++i) {
            if (!g.row_nonzero[i / static_cast<std::size_t>(n)]) {
                g.values[i] = Complex(static_cast<float>(rng.uniform(-1, 1)), -0.0F);
            }
        }
        got = g.values;
        want = g.values;
        fft2d_inverse_rowsparse(got, n, g.row_nonzero);
        reference::fft2d_inverse_rowsparse(want, n, g.row_nonzero);
        EXPECT_TRUE(same_bits(got, want)) << "vs reference row-sparse n=" << n;
    }
}

TEST_P(FftBitIdentity, PrunedForwardMatchesDenseOnNeededColumns) {
    Rng rng(404);
    for (int n = 1; n <= kMaxBitIdentityN; n *= 2) {
        const MixedGrid g = mixed_grid(n, rng);
        // A low-frequency band on both ends (the union-support shape) plus
        // scattered columns.
        std::vector<std::uint8_t> col_needed(static_cast<std::size_t>(n), 0);
        for (int c = 0; c < n; ++c) {
            const int k = std::min(c, n - c);
            col_needed[static_cast<std::size_t>(c)] = k <= n / 16 || rng.uniform(0, 1) < 0.1;
        }

        auto got = g.values;
        auto want = g.values;
        fft2d_forward_pruned(got, n, g.row_nonzero, col_needed);
        reference::fft2d_forward(want, n);
        for (int r = 0; r < n; ++r) {
            for (int c = 0; c < n; ++c) {
                if (!col_needed[static_cast<std::size_t>(c)]) continue;
                const std::size_t i = static_cast<std::size_t>(r) * n + c;
                ASSERT_TRUE(same_bits({&got[i], 1}, {&want[i], 1}))
                    << "n=" << n << " row " << r << " col " << c;
            }
        }
    }
}

// Grids whose flagged rows or needed columns leave a partial group of 8
// lines: 1 to 7 flagged rows, 3 apart (distinct, since 3 is coprime to n),
// and scattered needed columns whose groups are rarely adjacent.
TEST_P(FftBitIdentity, RowSparseInversePartialGroups) {
    Rng rng(707);
    for (int n : {4, 8, 64, 512}) {
        for (int flagged = 1; flagged <= 7 && flagged <= n; ++flagged) {
            std::vector<Complex> grid = random_signal(n * n, rng);
            std::vector<std::uint8_t> rows(static_cast<std::size_t>(n), 0);
            for (int k = 0; k < flagged; ++k) rows[static_cast<std::size_t>((1 + 3 * k) % n)] = 1;
            auto got = grid;
            auto want = grid;
            fft2d_inverse_rowsparse(got, n, rows);
            reference::fft2d_inverse_rowsparse(want, n, rows);
            EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " flagged rows " << flagged;
        }
    }
}

TEST_P(FftBitIdentity, PrunedForwardScatteredColumns) {
    Rng rng(808);
    for (int n : {8, 64, 512}) {
        for (int flagged = 1; flagged <= 7; ++flagged) {
            const MixedGrid g = mixed_grid(n, rng);
            std::vector<std::uint8_t> rows(static_cast<std::size_t>(n), 0);
            for (int k = 0; k < flagged; ++k) rows[static_cast<std::size_t>((1 + 3 * k) % n)] = 1;
            std::vector<std::uint8_t> cols(static_cast<std::size_t>(n), 0);
            for (int c = 0; c < n; ++c) cols[static_cast<std::size_t>(c)] = rng.uniform(0, 1) < 0.3;
            // Rows not flagged must be all +0.0 for the pruned transform to
            // equal the dense one.
            std::vector<Complex> values = g.values;
            for (std::size_t i = 0; i < values.size(); ++i) {
                if (!rows[i / static_cast<std::size_t>(n)]) values[i] = Complex(0.0F, 0.0F);
            }
            auto got = values;
            auto want = values;
            fft2d_forward_pruned(got, n, rows, cols);
            reference::fft2d_forward(want, n);
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (!cols[i % static_cast<std::size_t>(n)]) continue;
                ASSERT_TRUE(same_bits({&got[i], 1}, {&want[i], 1}))
                    << "n=" << n << " flagged rows " << flagged << " at " << i;
            }
        }
    }
}

// Runs forward, inverse and row-sparse transforms over `sizes` in order and
// reports whether every output matched the reference bit for bit.
bool sizes_match_reference(const std::vector<int>& sizes, std::uint64_t seed) {
    Rng rng(seed);
    bool ok = true;
    for (int n : sizes) {
        const MixedGrid g = mixed_grid(n, rng);
        auto got = g.values;
        auto want = g.values;
        fft2d_forward(got, n);
        reference::fft2d_forward(want, n);
        ok = ok && std::memcmp(got.data(), want.data(), got.size() * sizeof(Complex)) == 0;

        got = g.values;
        want = g.values;
        fft2d_inverse_rowsparse(got, n, g.row_nonzero);
        reference::fft2d_inverse_rowsparse(want, n, g.row_nonzero);
        ok = ok && std::memcmp(got.data(), want.data(), got.size() * sizeof(Complex)) == 0;
    }
    return ok;
}

TEST_P(FftBitIdentity, AlternatingSizesOnOneThread) {
    // KernelApplicator alternates a coarse and a fine size on one thread;
    // the per-thread table cache must serve both.
    EXPECT_TRUE(sizes_match_reference({128, 512, 128, 512, 64, 128, 1, 512, 2}, 505));
}

TEST_P(FftBitIdentity, ConcurrentThreads) {
    const std::vector<std::vector<int>> orders = {
        {64, 128, 512, 64}, {512, 64, 128, 512}, {128, 128, 64, 256}, {256, 512, 32, 128}};
    std::vector<int> ok(orders.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < orders.size(); ++t) {
        threads.emplace_back([&, t] { ok[t] = sizes_match_reference(orders[t], 600 + t) ? 1 : 0; });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < orders.size(); ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

// ---- Argument validation ----------------------------------------------------

TEST(Fft2d, RejectsMalformedArguments) {
    const int n = 8;
    std::vector<Complex> full(static_cast<std::size_t>(n) * n);
    std::vector<Complex> short_grid(static_cast<std::size_t>(n) * n - 1);
    const std::vector<std::uint8_t> rows(static_cast<std::size_t>(n), 1);
    const std::vector<std::uint8_t> short_mask(static_cast<std::size_t>(n) - 1, 1);

    EXPECT_THROW(fft2d_forward(short_grid, n), std::invalid_argument);
    EXPECT_THROW(fft2d_inverse(short_grid, n), std::invalid_argument);
    EXPECT_THROW(fft2d_inverse_rowsparse(short_grid, n, rows), std::invalid_argument);
    EXPECT_THROW(fft2d_forward_pruned(short_grid, n, rows, rows), std::invalid_argument);

    EXPECT_THROW(fft2d_inverse_rowsparse(full, n, short_mask), std::invalid_argument);
    EXPECT_THROW(fft2d_forward_pruned(full, n, short_mask, rows), std::invalid_argument);
    EXPECT_THROW(fft2d_forward_pruned(full, n, rows, short_mask), std::invalid_argument);

    std::vector<Complex> six(36);
    EXPECT_THROW(fft2d_forward(six, 6), std::invalid_argument);
    EXPECT_THROW(fft2d_inverse(six, 6), std::invalid_argument);
}

}  // namespace
}  // namespace camo::litho
