#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <random>

#include "geometry/raster.hpp"
#include "litho/aerial.hpp"
#include "litho/linalg.hpp"
#include "litho/tcc.hpp"

namespace camo::litho {
namespace {

LithoConfig tiny_cfg() {
    LithoConfig cfg;
    cfg.grid = 64;
    cfg.pixel_nm = 16.0;
    cfg.cache_dir = "";
    return cfg;
}

TEST(Tcc, EigenvaluesDescendingAndNonNegative) {
    const auto ks = compute_socs_kernels(tiny_cfg(), 0.0, 6);
    ASSERT_GE(ks.count(), 4);
    for (int i = 0; i < ks.count(); ++i) {
        EXPECT_GE(ks.eigenvalues[static_cast<std::size_t>(i)], 0.0);
        if (i > 0) {
            EXPECT_LE(ks.eigenvalues[static_cast<std::size_t>(i)],
                      ks.eigenvalues[static_cast<std::size_t>(i - 1)] + 1e-12);
        }
    }
}

TEST(Tcc, KernelsAreOrthonormal) {
    const auto ks = compute_socs_kernels(tiny_cfg(), 0.0, 5);
    for (int a = 0; a < ks.count(); ++a) {
        for (int b = a; b < ks.count(); ++b) {
            std::complex<double> dot{0.0, 0.0};
            for (int i = 0; i < ks.support_size(); ++i) {
                const auto ca = ks.coeffs[static_cast<std::size_t>(a)][static_cast<std::size_t>(i)];
                const auto cb = ks.coeffs[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)];
                dot += std::conj(std::complex<double>(ca)) * std::complex<double>(cb);
            }
            if (a == b) {
                EXPECT_NEAR(std::abs(dot), 1.0, 1e-4);
            } else {
                EXPECT_NEAR(std::abs(dot), 0.0, 1e-3);
            }
        }
    }
}

TEST(Tcc, LeadingKernelsCaptureMostEnergy) {
    const LithoConfig cfg = tiny_cfg();
    const auto ks = compute_socs_kernels(cfg, 0.0, 10);
    const double trace = tcc_trace(cfg, 0.0);
    double captured = 0.0;
    for (double e : ks.eigenvalues) captured += e;
    EXPECT_GT(trace, 0.0);
    EXPECT_GT(captured / trace, 0.6);  // top-10 of an annular TCC
    EXPECT_LE(captured / trace, 1.0 + 1e-9);
}

TEST(Tcc, DeterministicAcrossSeeds) {
    // The dominant eigenvalues are a property of the TCC, not the RNG.
    const auto a = compute_socs_kernels(tiny_cfg(), 0.0, 4, 123);
    const auto b = compute_socs_kernels(tiny_cfg(), 0.0, 4, 987);
    ASSERT_EQ(a.count(), b.count());
    for (int i = 0; i < a.count(); ++i) {
        const double ea = a.eigenvalues[static_cast<std::size_t>(i)];
        const double eb = b.eigenvalues[static_cast<std::size_t>(i)];
        EXPECT_NEAR(ea, eb, std::max(ea, eb) * 5e-3 + 1e-9);
    }
}

TEST(Tcc, DefocusPreservesTotalEnergy) {
    // Defocus is a pure pupil phase: the TCC trace must not change.
    const LithoConfig cfg = tiny_cfg();
    EXPECT_NEAR(tcc_trace(cfg, 0.0), tcc_trace(cfg, cfg.defocus_nm), 1e-9);
}

TEST(Tcc, SupportSharedAcrossKernels) {
    const auto ks = compute_socs_kernels(tiny_cfg(), 0.0, 3);
    for (const auto& c : ks.coeffs) {
        EXPECT_EQ(static_cast<int>(c.size()), ks.support_size());
    }
}

// ---- Dense oracle -----------------------------------------------------------
// The m x m TCC and the subspace iteration over it, as compute_socs_kernels
// ran before the TCC became a TccOperator (verbatim but for the name). The
// operator must reproduce the dense T x, and the kernels built through it
// the dense solver's eigenvalues and aerial images. Coefficients are not
// compared: lambda_2 = lambda_3 exactly (the annulus is fourfold symmetric),
// so rounding rotates the basis inside that degenerate pair.

using Cd = std::complex<double>;

// Dense Hermitian TCC stored row-major (m x m).
struct TccMatrix {
    int m = 0;
    std::vector<Cd> a;

    Cd& at(int r, int c) { return a[static_cast<std::size_t>(r) * m + c]; }
    [[nodiscard]] Cd get(int r, int c) const { return a[static_cast<std::size_t>(r) * m + c]; }
};

TccMatrix build_tcc(const LithoConfig& cfg, double defocus_nm,
                    const std::vector<FreqIndex>& freqs) {
    const int m = static_cast<int>(freqs.size());
    TccMatrix t;
    t.m = m;
    t.a.assign(static_cast<std::size_t>(m) * m, Cd{0.0, 0.0});

    const auto source = sample_annular_source(cfg);

    std::vector<int> idx;
    std::vector<Cd> val;
    idx.reserve(static_cast<std::size_t>(m));
    val.reserve(static_cast<std::size_t>(m));

    for (const SourcePoint& s : source) {
        idx.clear();
        val.clear();
        for (int i = 0; i < m; ++i) {
            const FreqIndex f{freqs[static_cast<std::size_t>(i)].kx + s.f.kx,
                              freqs[static_cast<std::size_t>(i)].ky + s.f.ky};
            const Cd p = pupil_value(cfg, f, defocus_nm);
            if (p != Cd{0.0, 0.0}) {
                idx.push_back(i);
                val.push_back(p);
            }
        }
        const int k = static_cast<int>(idx.size());
        for (int ii = 0; ii < k; ++ii) {
            const Cd wa = s.weight * val[static_cast<std::size_t>(ii)];
            const int r = idx[static_cast<std::size_t>(ii)];
            for (int jj = ii; jj < k; ++jj) {
                t.at(r, idx[static_cast<std::size_t>(jj)]) +=
                    wa * std::conj(val[static_cast<std::size_t>(jj)]);
            }
        }
    }

    // Mirror the upper triangle (Hermitian).
    for (int r = 0; r < m; ++r) {
        for (int c = r + 1; c < m; ++c) t.at(c, r) = std::conj(t.get(r, c));
    }
    return t;
}

// y = T x for column vectors stored contiguously.
void tcc_matvec(const TccMatrix& t, const std::vector<Cd>& x, std::vector<Cd>& y) {
    const int m = t.m;
    for (int r = 0; r < m; ++r) {
        Cd acc{0.0, 0.0};
        const Cd* row = &t.a[static_cast<std::size_t>(r) * m];
        for (int c = 0; c < m; ++c) acc += row[c] * x[static_cast<std::size_t>(c)];
        y[static_cast<std::size_t>(r)] = acc;
    }
}

// Modified Gram-Schmidt orthonormalization of `cols` (each length m).
void orthonormalize(std::vector<std::vector<Cd>>& cols) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            Cd dot{0.0, 0.0};
            for (std::size_t k = 0; k < cols[j].size(); ++k) {
                dot += std::conj(cols[i][k]) * cols[j][k];
            }
            for (std::size_t k = 0; k < cols[j].size(); ++k) cols[j][k] -= dot * cols[i][k];
        }
        double norm2 = 0.0;
        for (const Cd& c : cols[j]) norm2 += std::norm(c);
        const double norm = std::sqrt(norm2);
        if (norm < 1e-14) {
            std::fill(cols[j].begin(), cols[j].end(), Cd{0.0, 0.0});
            continue;
        }
        for (Cd& c : cols[j]) c /= norm;
    }
}

KernelSet dense_socs_kernels(const LithoConfig& cfg, double defocus_nm, int count,
                             std::uint64_t seed = 0x5eedULL) {
    const auto freqs = tcc_support_freqs(cfg);
    const int m = static_cast<int>(freqs.size());
    const TccMatrix t = build_tcc(cfg, defocus_nm, freqs);

    const int r = std::min(m, count + 8);

    // Randomized subspace iteration: Q spans the dominant eigenspace.
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<std::vector<Cd>> q(static_cast<std::size_t>(r),
                                   std::vector<Cd>(static_cast<std::size_t>(m)));
    for (auto& col : q) {
        for (Cd& c : col) c = Cd{gauss(rng), gauss(rng)};
    }
    orthonormalize(q);

    std::vector<Cd> tmp(static_cast<std::size_t>(m));
    const int power_iters = 3;
    for (int it = 0; it < power_iters; ++it) {
        for (auto& col : q) {
            tcc_matvec(t, col, tmp);
            col = tmp;
        }
        orthonormalize(q);
    }

    // Rayleigh-Ritz projection S = Q^H T Q (r x r Hermitian).
    std::vector<std::vector<Cd>> tq(static_cast<std::size_t>(r),
                                    std::vector<Cd>(static_cast<std::size_t>(m)));
    for (int j = 0; j < r; ++j) tcc_matvec(t, q[static_cast<std::size_t>(j)], tq[static_cast<std::size_t>(j)]);

    std::vector<Cd> s(static_cast<std::size_t>(r) * r);
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < r; ++j) {
            Cd dot{0.0, 0.0};
            for (int k = 0; k < m; ++k) {
                dot += std::conj(q[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) *
                       tq[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
            }
            s[static_cast<std::size_t>(i) * r + j] = dot;
        }
    }

    // Real symmetric embedding [[Re, -Im], [Im, Re]]: each complex eigenpair
    // of S appears twice; duplicates are removed by complex-overlap testing.
    const int n2 = 2 * r;
    std::vector<double> emb(static_cast<std::size_t>(n2) * n2, 0.0);
    for (int i = 0; i < r; ++i) {
        for (int j = 0; j < r; ++j) {
            const Cd v = s[static_cast<std::size_t>(i) * r + j];
            emb[static_cast<std::size_t>(i) * n2 + j] = v.real();
            emb[static_cast<std::size_t>(i) * n2 + (j + r)] = -v.imag();
            emb[static_cast<std::size_t>(i + r) * n2 + j] = v.imag();
            emb[static_cast<std::size_t>(i + r) * n2 + (j + r)] = v.real();
        }
    }
    std::vector<double> vecs;
    std::vector<double> eig = jacobi_eig_symmetric(std::move(emb), n2, vecs);

    std::vector<int> order(static_cast<std::size_t>(n2));
    for (int i = 0; i < n2; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&eig](int a, int b) {
        return eig[static_cast<std::size_t>(a)] > eig[static_cast<std::size_t>(b)];
    });

    // Collect unique complex Ritz vectors w (length r).
    std::vector<std::pair<double, std::vector<Cd>>> ritz;
    for (int oi = 0; oi < n2 && static_cast<int>(ritz.size()) < count; ++oi) {
        const int col = order[static_cast<std::size_t>(oi)];
        std::vector<Cd> w(static_cast<std::size_t>(r));
        for (int i = 0; i < r; ++i) {
            w[static_cast<std::size_t>(i)] = Cd{vecs[static_cast<std::size_t>(i) * n2 + col],
                                                vecs[static_cast<std::size_t>(i + r) * n2 + col]};
        }
        double norm2 = 0.0;
        for (const Cd& c : w) norm2 += std::norm(c);
        if (norm2 < 1e-12) continue;
        for (Cd& c : w) c /= std::sqrt(norm2);

        bool duplicate = false;
        for (const auto& [lam, kept] : ritz) {
            Cd dot{0.0, 0.0};
            for (int i = 0; i < r; ++i) dot += std::conj(kept[static_cast<std::size_t>(i)]) * w[static_cast<std::size_t>(i)];
            if (std::abs(dot) > 0.99) {
                duplicate = true;
                break;
            }
        }
        if (!duplicate) ritz.emplace_back(std::max(0.0, eig[static_cast<std::size_t>(col)]), std::move(w));
    }

    KernelSet out;
    out.support = freqs;
    for (const auto& [lam, w] : ritz) {
        std::vector<std::complex<float>> coeff(static_cast<std::size_t>(m));
        for (int k = 0; k < m; ++k) {
            Cd acc{0.0, 0.0};
            for (int j = 0; j < r; ++j) {
                acc += q[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)] *
                       w[static_cast<std::size_t>(j)];
            }
            coeff[static_cast<std::size_t>(k)] = std::complex<float>(
                static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
        }
        out.eigenvalues.push_back(lam);
        out.coeffs.push_back(std::move(coeff));
    }
    return out;
}

struct OracleCase {
    const char* name;
    int grid;
    double pixel_nm;
    bool defocus;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

class TccOracle : public ::testing::TestWithParam<OracleCase> {
protected:
    [[nodiscard]] static LithoConfig cfg() {
        LithoConfig c;
        c.grid = GetParam().grid;
        c.pixel_nm = GetParam().pixel_nm;
        c.cache_dir = "";
        return c;
    }
    [[nodiscard]] static double defocus() { return GetParam().defocus ? cfg().defocus_nm : 0.0; }
    [[nodiscard]] static int count() { return GetParam().defocus ? 5 : 6; }
};

TEST_P(TccOracle, OperatorMatchesDenseMatvec) {
    const LithoConfig c = cfg();
    const auto freqs = tcc_support_freqs(c);
    const int m = static_cast<int>(freqs.size());
    const TccMatrix dense = build_tcc(c, defocus(), freqs);
    const TccOperator op(c, defocus(), freqs);
    ASSERT_EQ(op.size(), m);
    EXPECT_LT(op.nonzeros(), static_cast<std::size_t>(m) * m / 4);

    // Three random vectors through one blocked apply, each against the dense
    // matvec of its own column.
    constexpr int kCols = 3;
    std::mt19937_64 rng(7);
    std::normal_distribution<double> gauss(0.0, 1.0);
    std::vector<Cd> x(static_cast<std::size_t>(m) * kCols);
    for (Cd& v : x) v = Cd{gauss(rng), gauss(rng)};
    std::vector<Cd> y(x.size());
    op.apply(x.data(), y.data(), kCols);

    std::vector<Cd> col(static_cast<std::size_t>(m));
    std::vector<Cd> ref(static_cast<std::size_t>(m));
    for (int j = 0; j < kCols; ++j) {
        for (int i = 0; i < m; ++i) col[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i) * kCols + j];
        tcc_matvec(dense, col, ref);
        double err2 = 0.0;
        double ref2 = 0.0;
        for (int i = 0; i < m; ++i) {
            err2 += std::norm(y[static_cast<std::size_t>(i) * kCols + j] - ref[static_cast<std::size_t>(i)]);
            ref2 += std::norm(ref[static_cast<std::size_t>(i)]);
        }
        ASSERT_GT(ref2, 0.0);
        EXPECT_LT(std::sqrt(err2 / ref2), 1e-12) << "column " << j;
    }
}

TEST_P(TccOracle, KernelsMatchDenseSolver) {
    const LithoConfig c = cfg();
    const KernelApplicator fast(compute_socs_kernels(c, defocus(), count()), c.grid);
    const KernelApplicator dense(dense_socs_kernels(c, defocus(), count()), c.grid);

    const KernelSet& ks = fast.kernels();
    const KernelSet& ref = dense.kernels();
    ASSERT_EQ(ks.count(), ref.count());
    double eig_err = 0.0;
    for (int k = 0; k < ks.count(); ++k) {
        const double a = ks.eigenvalues[static_cast<std::size_t>(k)];
        const double b = ref.eigenvalues[static_cast<std::size_t>(k)];
        eig_err = std::max(eig_err, std::abs(a - b) / b);
    }
    EXPECT_LE(eig_err, 1e-9);

    // Three vias and a wire, placed in the window by fractions of its span.
    const int span = static_cast<int>(c.grid * c.pixel_nm);
    const int via = span / 14;
    geo::Raster mask(c.grid, c.pixel_nm);
    for (const int at : {span / 5, span / 2, 7 * span / 10}) {
        mask.add_polygon(geo::Polygon::from_rect({at, span / 4, at + via, span / 4 + via}));
    }
    mask.add_polygon(
        geo::Polygon::from_rect({span / 6, 3 * span / 5, 5 * span / 6, 3 * span / 5 + via}));
    mask.clamp01();
    const std::vector<Complex> spectrum = mask_spectrum(mask);

    const geo::Raster a = fast.apply(spectrum, c.pixel_nm);
    const geo::Raster b = dense.apply(spectrum, c.pixel_nm);
    float peak = 0.0F;
    float image_err = 0.0F;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        peak = std::max(peak, b.data()[i]);
        image_err = std::max(image_err, std::abs(a.data()[i] - b.data()[i]));
    }
    EXPECT_GT(peak, 0.1F);  // the mask prints something
    EXPECT_LE(image_err, 1e-5F);
    std::printf("%s: eigenvalue rel err %.2g, aerial abs err %.2g (peak %.3f)\n",
                GetParam().name, eig_err, static_cast<double>(image_err),
                static_cast<double>(peak));
}

INSTANTIATE_TEST_SUITE_P(Grids, TccOracle,
                         ::testing::Values(OracleCase{"tiny_nominal", 64, 16.0, false},
                                           OracleCase{"tiny_defocus", 64, 16.0, true},
                                           OracleCase{"g256_nominal", 256, 4.0, false},
                                           OracleCase{"g256_defocus", 256, 4.0, true}),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace camo::litho
