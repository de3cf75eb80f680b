// Equivalence harness for incremental lithography evaluation: randomized
// clips x random action sequences must produce the same metrics through
// evaluate_incremental() as through the dense SOCS reference
// (litho_dense_reference.hpp), within the tolerances documented in
// litho/incremental.hpp. Golden JSON fixtures under
// tests/golden/ pin the absolute metric values of a few seeded clips so
// future perf work on either path cannot silently drift accuracy
// (regenerate with CAMO_REGEN_GOLDENS=1 after an intentional change).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "litho/aerial.hpp"
#include "litho/incremental.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/simulator.hpp"
#include "litho_dense_reference.hpp"

#ifndef CAMO_GOLDEN_DIR
#define CAMO_GOLDEN_DIR "tests/golden"
#endif

namespace camo::litho {
namespace {

constexpr double kPvbTolNm2 = kIncrementalPvbPixelSlack * 4.0 * 4.0;  // 4 nm pixels

class LithoIncrementalTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        LithoConfig cfg;
        cfg.grid = 256;
        cfg.pixel_nm = 4.0;
        cfg.kernels_nominal = 6;
        cfg.kernels_defocus = 5;
        cfg.cache_dir = "";  // tests never touch the on-disk cache
        sim_ = new LithoSim(cfg);
    }
    static void TearDownTestSuite() {
        delete sim_;
        sim_ = nullptr;
    }

    static LithoSim* sim_;
};

LithoSim* LithoIncrementalTest::sim_ = nullptr;

// Clips sized to fit the 256-grid simulation frame (1024 nm span): the
// generators' 2000/1500 nm defaults would hang off the grid at this scale.
geo::SegmentedLayout via_layout(int vias, std::uint64_t seed) {
    Rng rng(seed);
    layout::ViaGenOptions opt;
    opt.clip_nm = 1000;
    opt.margin_nm = 250;
    opt.min_spacing_nm = 200;
    return geo::SegmentedLayout(layout::generate_via_clip(vias, rng, opt),
                                {geo::FragmentStyle::kVia, 60}, {}, opt.clip_nm);
}

geo::SegmentedLayout metal_layout(int points, std::uint64_t seed) {
    Rng rng(seed);
    layout::MetalGenOptions opt;
    opt.clip_nm = 1000;
    opt.margin_nm = 120;
    return geo::SegmentedLayout(layout::generate_metal_clip(points, rng, opt),
                                {geo::FragmentStyle::kMetal, 60}, {}, opt.clip_nm);
}

void expect_equivalent(const SimMetrics& inc, const SimMetrics& full, const char* where) {
    ASSERT_EQ(inc.epe_segment.size(), full.epe_segment.size()) << where;
    ASSERT_EQ(inc.epe.size(), full.epe.size()) << where;
    for (std::size_t i = 0; i < inc.epe_segment.size(); ++i) {
        EXPECT_NEAR(inc.epe_segment[i], full.epe_segment[i], kIncrementalEpeTolNm)
            << where << " segment " << i;
    }
    EXPECT_NEAR(inc.sum_abs_epe, full.sum_abs_epe,
                kIncrementalEpeTolNm * static_cast<double>(std::max<std::size_t>(1, inc.epe.size())))
        << where;
    EXPECT_NEAR(inc.pvband_nm2, full.pvband_nm2, kPvbTolNm2) << where;
}

// Random-walk property: an arbitrary action sequence evaluated incrementally
// tracks the dense reference at every step.
void run_equivalence_walk(LithoSim& inc_sim, const LithoSim& full_sim,
                          const geo::SegmentedLayout& layout, std::uint64_t seed, int steps,
                          double dirty_fraction) {
    const int segments = layout.num_segments();
    Rng rng(seed);
    std::vector<int> offsets(static_cast<std::size_t>(segments), 3);

    SimMetrics inc = inc_sim.evaluate_incremental(layout, offsets, Refresh::kPrime);
    expect_equivalent(inc, dense_reference::evaluate(full_sim, layout, offsets), "initial");

    for (int t = 0; t < steps; ++t) {
        const int moves =
            std::max(1, static_cast<int>(dirty_fraction * segments));
        for (int j = 0; j < moves; ++j) {
            const int i = rng.uniform_int(0, segments - 1);
            offsets[static_cast<std::size_t>(i)] = std::clamp(
                offsets[static_cast<std::size_t>(i)] + rng.uniform_int(-2, 2), -15, 15);
        }
        inc = inc_sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);
        const SimMetrics full = dense_reference::evaluate(full_sim, layout, offsets);
        expect_equivalent(inc, full, ("step " + std::to_string(t)).c_str());
    }
}

TEST_F(LithoIncrementalTest, ViaClipRandomWalkMatchesFullEvaluate) {
    LithoSim inc_sim(*sim_);
    run_equivalence_walk(inc_sim, *sim_, via_layout(3, 21), /*seed=*/31, /*steps=*/12,
                         /*dirty_fraction=*/0.1);
    EXPECT_GT(inc_sim.incremental_hit_count(), 0);
}

TEST_F(LithoIncrementalTest, MetalClipRandomWalkMatchesFullEvaluate) {
    LithoSim inc_sim(*sim_);
    run_equivalence_walk(inc_sim, *sim_, metal_layout(24, 22), /*seed=*/32, /*steps=*/10,
                         /*dirty_fraction=*/0.08);
    EXPECT_GT(inc_sim.incremental_hit_count(), 0);
}

TEST_F(LithoIncrementalTest, LargeDirtySetsStillMatchAcrossFallback) {
    // Dirty fractions straddling the fallback threshold: results must agree
    // with the full path on both sides of the switch.
    LithoSim inc_sim(*sim_);
    run_equivalence_walk(inc_sim, *sim_, metal_layout(24, 23), /*seed=*/33, /*steps=*/6,
                         /*dirty_fraction=*/0.45);
    EXPECT_GT(inc_sim.incremental_full_count(), 0);
}

TEST_F(LithoIncrementalTest, EmptyDirtySetReturnsCachedMetricsExactly) {
    LithoSim inc_sim(*sim_);
    const auto layout = via_layout(2, 24);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);

    const SimMetrics first = inc_sim.evaluate_incremental(layout, offsets, Refresh::kPrime);
    const SimMetrics again = inc_sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);

    ASSERT_EQ(first.epe_segment.size(), again.epe_segment.size());
    for (std::size_t i = 0; i < first.epe_segment.size(); ++i) {
        EXPECT_EQ(first.epe_segment[i], again.epe_segment[i]);
    }
    EXPECT_EQ(first.sum_abs_epe, again.sum_abs_epe);
    EXPECT_EQ(first.pvband_nm2, again.pvband_nm2);

    expect_equivalent(again, dense_reference::evaluate(*sim_, layout, offsets), "empty dirty");
}

TEST_F(LithoIncrementalTest, FallbackThresholdBoundary) {
    LithoConfig cfg = sim_->config();
    cfg.incremental_fallback_fraction = 0.5;
    LithoSim inc_sim(cfg);

    const auto layout = via_layout(4, 25);  // 16 segments -> boundary at 8
    const int segments = layout.num_segments();
    ASSERT_EQ(segments, 16);
    std::vector<int> offsets(static_cast<std::size_t>(segments), 3);
    (void)inc_sim.evaluate_incremental(layout, offsets, Refresh::kPrime);
    const long long fulls0 = inc_sim.incremental_full_count();

    // Exactly at the boundary: incremental.
    for (int i = 0; i < 8; ++i) offsets[static_cast<std::size_t>(i)] += 1;
    SimMetrics m = inc_sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);
    EXPECT_EQ(inc_sim.incremental_full_count(), fulls0);
    EXPECT_EQ(inc_sim.incremental_hit_count(), 1);
    expect_equivalent(m, dense_reference::evaluate(*sim_, layout, offsets), "at boundary");

    // One past the boundary: full rebuild.
    for (int i = 0; i < 9; ++i) offsets[static_cast<std::size_t>(i)] -= 2;
    m = inc_sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);
    EXPECT_EQ(inc_sim.incremental_full_count(), fulls0 + 1);
    expect_equivalent(m, dense_reference::evaluate(*sim_, layout, offsets), "past boundary");
}

TEST_F(LithoIncrementalTest, UpdateFindsMovesFromCachedOffsets) {
    // The caller names no moved segments: the evaluator finds them by
    // comparing against its cached offsets.
    LithoSim inc_sim(*sim_);
    const auto layout = via_layout(3, 26);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);
    (void)inc_sim.evaluate_incremental(layout, offsets, Refresh::kPrime);

    offsets[2] += 4;
    offsets[5] -= 3;
    const SimMetrics m = inc_sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);
    expect_equivalent(m, dense_reference::evaluate(*sim_, layout, offsets), "moves found from cache");
}

TEST_F(LithoIncrementalTest, SameShapeDifferentLayoutIsNotMistakenForCached) {
    // Two clips with identical segment count and clip size but different via
    // positions: the cache key is the layout's content fingerprint, so the
    // switch must trigger a full rebuild even though every cheap count
    // matches (a reused address must never validate a stale cache).
    LithoSim inc_sim(*sim_);
    const auto a = via_layout(2, 41);
    const auto b = via_layout(2, 42);
    ASSERT_EQ(a.num_segments(), b.num_segments());
    ASSERT_EQ(a.clip_size_nm(), b.clip_size_nm());

    std::vector<int> offsets(static_cast<std::size_t>(a.num_segments()), 3);
    (void)inc_sim.evaluate_incremental(a, offsets, Refresh::kPrime);

    const SimMetrics m = inc_sim.evaluate_incremental(b, offsets, Refresh::kUpdate);
    EXPECT_EQ(inc_sim.incremental_full_count(), 2);
    expect_equivalent(m, dense_reference::evaluate(*sim_, b, offsets), "same-shape switch");
}

TEST_F(LithoIncrementalTest, LayoutSwitchTriggersFullRebuild) {
    LithoSim inc_sim(*sim_);
    const auto a = via_layout(2, 27);
    const auto b = via_layout(3, 28);
    std::vector<int> oa(static_cast<std::size_t>(a.num_segments()), 3);
    std::vector<int> ob(static_cast<std::size_t>(b.num_segments()), 3);

    (void)inc_sim.evaluate_incremental(a, oa, Refresh::kPrime);
    const SimMetrics m = inc_sim.evaluate_incremental(b, ob, Refresh::kUpdate);
    EXPECT_EQ(inc_sim.incremental_full_count(), 2);
    expect_equivalent(m, dense_reference::evaluate(*sim_, b, ob), "layout switch");
}

// ---- Refresh contract ------------------------------------------------------
// Refresh::kPrime discards whatever the cache held: priming at offsets C
// after a prime at A and a sparse update to B must give the same bits as a
// fresh simulator's prime at C. C is a small move from B, so only the
// kPrime argument keeps the evaluator off the sparse path. The rollout's
// determinism (a job's results never depend on what its worker's simulator
// evaluated before) rests on it.

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_bit_identical(const SimMetrics& got, const SimMetrics& want, const std::string& where) {
    EXPECT_TRUE(same_bits(got.epe, want.epe)) << where << ": epe";
    EXPECT_TRUE(same_bits(got.epe_segment, want.epe_segment)) << where << ": epe_segment";
    EXPECT_TRUE(same_bits(got.sum_abs_epe, want.sum_abs_epe)) << where << ": sum_abs_epe";
    EXPECT_TRUE(same_bits(got.pvband_nm2, want.pvband_nm2)) << where << ": pvband_nm2";
}

void expect_bit_identical(const WindowMetrics& got, const WindowMetrics& want,
                          const std::string& where) {
    ASSERT_EQ(got.corners.size(), want.corners.size()) << where;
    for (std::size_t i = 0; i < want.corners.size(); ++i) {
        const std::string corner = where + " corner " + std::to_string(i);
        expect_bit_identical(got.corners[i].metrics, want.corners[i].metrics, corner);
        EXPECT_TRUE(same_bits(got.corners[i].printed_area_nm2, want.corners[i].printed_area_nm2))
            << corner;
    }
    EXPECT_EQ(got.worst_corner, want.worst_corner) << where;
    EXPECT_TRUE(same_bits(got.worst_epe, want.worst_epe)) << where;
    EXPECT_TRUE(same_bits(got.pv_band_exact_nm2, want.pv_band_exact_nm2)) << where;
    EXPECT_TRUE(same_bits(got.pv_band_two_corner_nm2, want.pv_band_two_corner_nm2)) << where;
    EXPECT_TRUE(same_bits(got.cd_min_nm2, want.cd_min_nm2)) << where;
    EXPECT_TRUE(same_bits(got.cd_max_nm2, want.cd_max_nm2)) << where;
}

struct RefreshWalk {
    geo::SegmentedLayout layout;
    std::vector<int> a, b, c;  ///< prime at a, sparse update to b, prime at c
};

RefreshWalk refresh_walk() {
    RefreshWalk w{metal_layout(24, 51), {}, {}, {}};
    w.a.assign(static_cast<std::size_t>(w.layout.num_segments()), 3);
    w.b = w.a;
    w.b[1] += 2;
    w.b[4] -= 1;
    w.c = w.b;
    w.c[7] += 3;
    w.c[10] -= 2;
    return w;
}

TEST_F(LithoIncrementalTest, PrimeAfterUpdateMatchesFreshPrimeBitwise) {
    const RefreshWalk w = refresh_walk();
    LithoSim used(*sim_);
    (void)used.evaluate_incremental(w.layout, w.a, Refresh::kPrime);
    (void)used.evaluate_incremental(w.layout, w.b, Refresh::kUpdate);
    ASSERT_EQ(used.incremental_hit_count(), 1);
    const SimMetrics got = used.evaluate_incremental(w.layout, w.c, Refresh::kPrime);
    EXPECT_EQ(used.incremental_full_count(), 2);

    LithoSim fresh(*sim_);
    expect_bit_identical(got, fresh.evaluate_incremental(w.layout, w.c, Refresh::kPrime),
                         "nominal");
}

TEST_F(LithoIncrementalTest, WindowPrimeAfterUpdateMatchesFreshPrimeBitwise) {
    const RefreshWalk w = refresh_walk();
    const WindowSpec spec = WindowSpec::standard(sim_->config());
    LithoSim used(*sim_);
    (void)used.evaluate_incremental(w.layout, w.a, spec, Refresh::kPrime);
    (void)used.evaluate_incremental(w.layout, w.b, spec, Refresh::kUpdate);
    ASSERT_EQ(used.incremental_hit_count(), 1);
    const WindowMetrics got = used.evaluate_incremental(w.layout, w.c, spec, Refresh::kPrime);
    EXPECT_EQ(used.incremental_full_count(), 2);

    LithoSim fresh(*sim_);
    expect_bit_identical(got, fresh.evaluate_incremental(w.layout, w.c, spec, Refresh::kPrime),
                         "window");

    // The primed cache also carries C's nominal metrics: an unchanged-offsets
    // nominal update returns them, matching the fresh simulator's bits.
    expect_bit_identical(used.evaluate_incremental(w.layout, w.c, Refresh::kUpdate),
                         fresh.evaluate_incremental(w.layout, w.c, Refresh::kUpdate),
                         "nominal after window prime");
}

// The rebuild primes the support spectrum through the pruned forward FFT;
// at every support frequency it must equal the dense mask_spectrum of the
// cached mask bit for bit.
TEST_F(LithoIncrementalTest, RebuildSpectrumMatchesDenseMaskSpectrumBitwise) {
    const LithoConfig& cfg = sim_->config();
    const int n = cfg.grid;
    const SharedKernels kernels = acquire_kernels(cfg);
    IncrementalEvaluator eval(cfg, sim_->threshold(), kernels.nominal, kernels.defocus);
    for (const auto& layout : {via_layout(3, 31), metal_layout(24, 32)}) {
        std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()));
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            offsets[i] = static_cast<int>((i * 5) % 9) - 4;
        }
        (void)eval.evaluate(layout, offsets, Refresh::kPrime);

        geo::Raster mask(n, cfg.pixel_nm);
        const auto cached = eval.cached_mask();
        ASSERT_EQ(cached.size(), mask.data().size());
        std::copy(cached.begin(), cached.end(), mask.data().begin());
        const std::vector<Complex> dense = mask_spectrum(mask);

        const std::vector<FreqIndex> support = tcc_support_freqs(cfg);
        const auto spectrum = eval.cached_spectrum();
        ASSERT_EQ(spectrum.size(), support.size());
        for (std::size_t i = 0; i < support.size(); ++i) {
            const FreqIndex& f = support[i];
            const Complex got(static_cast<float>(spectrum[i].real()),
                              static_cast<float>(spectrum[i].imag()));
            const Complex want = dense[static_cast<std::size_t>(
                ((f.ky % n + n) % n) * n + (f.kx % n + n) % n)];
            ASSERT_EQ(std::memcmp(&got, &want, sizeof(Complex)), 0)
                << "kx=" << f.kx << " ky=" << f.ky << ": " << got << " vs " << want;
        }
    }
}

// The window overload's nominal corner on the standard window {0, defocus}
// pairs its planes exactly as the nominal overload does, so along a walk of
// sparse updates its metrics equal the nominal evaluate_incremental bit for
// bit (the dense counterpart is ProcessWindowTest.NominalCornerBitIdenticalToEvaluate).
TEST_F(LithoIncrementalTest, NominalCornerBitIdenticalToEvaluate) {
    const auto layout = metal_layout(24, 52);
    const WindowSpec spec = WindowSpec::standard(sim_->config());
    LithoSim windowed(*sim_);
    LithoSim nominal(*sim_);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);
    Rng rng(53);
    for (int t = 0; t < 6; ++t) {
        const Refresh refresh = t == 0 ? Refresh::kPrime : Refresh::kUpdate;
        const WindowMetrics wm = windowed.evaluate_incremental(layout, offsets, spec, refresh);
        const SimMetrics want = nominal.evaluate_incremental(layout, offsets, refresh);
        const std::string where = "step " + std::to_string(t);
        const CornerResult* corner = wm.nominal_corner();
        ASSERT_NE(corner, nullptr) << where;
        SimMetrics got = corner->metrics;
        got.pvband_nm2 = wm.pv_band_two_corner_nm2;
        expect_bit_identical(got, want, where);

        const int i = rng.uniform_int(0, layout.num_segments() - 1);
        offsets[static_cast<std::size_t>(i)] += rng.uniform_int(1, 2);
    }
    EXPECT_GT(windowed.incremental_hit_count(), 0);
}

// ---- KernelApplicator: one packed upsample per pair of planes --------------

// Verbatim copy of the band-limited applicator's tables and its per-plane
// apply from before the upsample packed two planes into one transform: a
// lone plane must keep these bits.
geo::Raster reference_support_apply(const KernelSet& kernels, int grid,
                                    std::span<const Complex> support_vals, double pixel_nm) {
    const auto wrap = [](int k, int n) { return ((k % n) + n) % n; };
    const int n_ = grid;
    const int support_n = kernels.support_size();
    const int kernels_ = kernels.count();
    int radius = 0;
    for (const FreqIndex& f : kernels.support) {
        radius = std::max({radius, std::abs(f.kx), std::abs(f.ky)});
    }
    int m = 1;
    while (m < 4 * radius + 2) m <<= 1;
    const int m_ = std::min(m, n_);
    std::vector<int> mpos_;
    std::vector<std::uint8_t> mrow_nonzero_(static_cast<std::size_t>(m_), 0);
    for (const FreqIndex& f : kernels.support) {
        const int row = wrap(f.ky, m_);
        const int col = wrap(f.kx, m_);
        mpos_.push_back(row * m_ + col);
        mrow_nonzero_[static_cast<std::size_t>(row)] = 1;
    }
    std::vector<float> eigenvalues_;
    for (double ev : kernels.eigenvalues) eigenvalues_.push_back(static_cast<float>(ev));
    std::vector<Complex> coeffs_(static_cast<std::size_t>(kernels_) *
                                 static_cast<std::size_t>(support_n));
    for (int k = 0; k < kernels_; ++k) {
        const auto& src = kernels.coeffs[static_cast<std::size_t>(k)];
        std::copy(src.begin(), src.end(),
                  coeffs_.begin() + static_cast<std::ptrdiff_t>(k) * support_n);
    }
    std::vector<int> band_src_, band_dst_;
    std::vector<std::uint8_t> nrow_nonzero_;
    float upsample_scale_ = 1.0F;
    if (m_ < n_) {
        const int band = std::min(2 * radius, n_ / 2 - 1);
        nrow_nonzero_.assign(static_cast<std::size_t>(n_), 0);
        for (int dy = -band; dy <= band; ++dy) {
            for (int dx = -band; dx <= band; ++dx) {
                band_src_.push_back(wrap(dy, m_) * m_ + wrap(dx, m_));
                band_dst_.push_back(wrap(dy, n_) * n_ + wrap(dx, n_));
            }
            nrow_nonzero_[static_cast<std::size_t>(wrap(dy, n_))] = 1;
        }
        upsample_scale_ =
            static_cast<float>(static_cast<double>(m_) * m_ / (static_cast<double>(n_) * n_));
    }

    // apply():
    const std::size_t support = mpos_.size();
    const std::size_t mm = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    std::vector<Complex> prod(support);
    std::vector<Complex> field(mm);
    std::vector<float> intensity(mm, 0.0F);
    const simd::Ops& ops = simd::ops();
    for (int k = 0; k < kernels_; ++k) {
        const Complex* coeff = coeffs_.data() + static_cast<std::size_t>(k) * support;
        ops.cmul(coeff, support_vals.data(), prod.data(), support);
        std::fill(field.begin(), field.end(), Complex{});
        for (std::size_t i = 0; i < support; ++i) field[static_cast<std::size_t>(mpos_[i])] = prod[i];
        fft2d_inverse_rowsparse(field, m_, mrow_nonzero_);
        const float lambda = eigenvalues_[static_cast<std::size_t>(k)];
        ops.norm_acc(field.data(), lambda, intensity.data(), mm);
    }
    geo::Raster out(n_, pixel_nm);
    if (m_ == n_) {
        auto dst = out.data();
        std::copy(intensity.begin(), intensity.end(), dst.begin());
        return out;
    }
    std::vector<Complex> coarse(mm);
    for (std::size_t i = 0; i < mm; ++i) coarse[i] = Complex(intensity[i], 0.0F);
    fft2d_forward(coarse, m_);
    std::vector<Complex> fine(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
    for (std::size_t i = 0; i < band_src_.size(); ++i) {
        fine[static_cast<std::size_t>(band_dst_[i])] =
            coarse[static_cast<std::size_t>(band_src_[i])] * upsample_scale_;
    }
    fft2d_inverse_rowsparse(fine, n_, nrow_nonzero_);
    auto dst = out.data();
    for (std::size_t i = 0; i < fine.size(); ++i) dst[i] = fine[i].real();
    return out;
}

// A real mask's spectrum sampled at one kernel set's support.
std::vector<Complex> support_values(const LithoSim& sim, const KernelSet& ks,
                                    const geo::SegmentedLayout& layout,
                                    const std::vector<int>& offsets) {
    const int n = sim.config().grid;
    const std::vector<Complex> spectrum = mask_spectrum(
        sim.rasterize(layout.reconstruct_mask(offsets), layout.srafs(), layout.clip_size_nm()));
    std::vector<Complex> vals;
    vals.reserve(ks.support.size());
    for (const FreqIndex& f : ks.support) {
        vals.push_back(
            spectrum[static_cast<std::size_t>(((f.ky % n + n) % n) * n + (f.kx % n + n) % n)]);
    }
    return vals;
}

// `ks` restricted to |kx|, |ky| <= radius.
KernelSet truncated(const KernelSet& ks, int radius) {
    KernelSet out;
    out.eigenvalues = ks.eigenvalues;
    out.coeffs.resize(ks.coeffs.size());
    for (std::size_t i = 0; i < ks.support.size(); ++i) {
        const FreqIndex& f = ks.support[i];
        if (std::abs(f.kx) > radius || std::abs(f.ky) > radius) continue;
        out.support.push_back(f);
        for (std::size_t k = 0; k < ks.coeffs.size(); ++k) out.coeffs[k].push_back(ks.coeffs[k][i]);
    }
    return out;
}

int support_radius(const KernelSet& ks) {
    int r = 0;
    for (const FreqIndex& f : ks.support) r = std::max({r, std::abs(f.kx), std::abs(f.ky)});
    return r;
}

float max_abs_diff(const geo::Raster& a, const geo::Raster& b) {
    float d = 0.0F;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        d = std::max(d, std::abs(a.data()[i] - b.data()[i]));
    }
    return d;
}

// A simulator at fine grid 256 or 512. Both grids span the same 1024 nm
// frame (4 nm and 2 nm pixels), so the kernels keep the 256 grid's support
// radius and build as fast; the 512 case still runs the upsample at the
// production fine grid.
const LithoSim& sim(int grid) {
    static std::map<int, std::unique_ptr<LithoSim>> sims;
    auto& s = sims[grid];
    if (!s) {
        LithoConfig cfg;
        cfg.grid = grid;
        cfg.pixel_nm = 1024.0 / grid;
        cfg.kernels_nominal = 6;
        cfg.kernels_defocus = 5;
        cfg.cache_dir = "";
        s = std::make_unique<LithoSim>(cfg);
    }
    return *s;
}

// Param = fine grid.
class KernelApplicatorTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelApplicatorTest, LonePlaneBitIdenticalToPerPlaneReference) {
    const LithoSim& s = sim(GetParam());
    const int n = s.config().grid;
    for (const auto& layout : {via_layout(3, 61), metal_layout(24, 62)}) {
        const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 2);
        for (const KernelSet* ks : {&s.nominal_kernels(), &s.defocus_kernels()}) {
            const std::vector<Complex> vals = support_values(s, *ks, layout, offsets);
            const KernelApplicator app(*ks, n);
            ASSERT_LT(app.coarse_grid(), n);
            const geo::Raster got = app.apply_support(vals, s.config().pixel_nm);
            const geo::Raster want = reference_support_apply(*ks, n, vals, s.config().pixel_nm);
            ASSERT_EQ(got.data().size(), want.data().size());
            EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  got.data().size() * sizeof(float)),
                      0)
                << "grid " << n;
        }
    }
}

TEST_P(KernelApplicatorTest, PackedPairMatchesTwoSingleApplies) {
    const LithoSim& s = sim(GetParam());
    const int n = s.config().grid;
    const double px = s.config().pixel_nm;
    const KernelSet& nom = s.nominal_kernels();
    const KernelSet& def = s.defocus_kernels();
    const KernelApplicator nom_app(nom, n);
    const KernelApplicator def_app(def, n);

    for (const auto& layout : {via_layout(3, 63), metal_layout(24, 64)}) {
        const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), -2);
        const std::vector<Complex> nv = support_values(s, nom, layout, offsets);
        const std::vector<Complex> dv = support_values(s, def, layout, offsets);
        const geo::Raster a = nom_app.apply_support(nv, px);
        const geo::Raster b = def_app.apply_support(dv, px);
        for (const bool swapped : {false, true}) {
            const auto [first, second] = swapped ? def_app.apply_pair(dv, nom_app, nv, px)
                                                 : nom_app.apply_pair(nv, def_app, dv, px);
            const geo::Raster& pa = swapped ? second : first;
            const geo::Raster& pb = swapped ? first : second;
            float peak = 0.0F;
            for (const float v : a.data()) peak = std::max(peak, v);
            const float da = max_abs_diff(pa, a);
            const float db = max_abs_diff(pb, b);
            EXPECT_LE(da, 1e-6F) << "grid " << n << " nominal, peak " << peak;
            EXPECT_LE(db, 1e-6F) << "grid " << n << " defocus, peak " << peak;
            std::printf("grid %d support radius %d swapped %d: peak %.3f, max |diff| %.2e %.2e\n",
                        n, support_radius(nom), swapped ? 1 : 0, peak, da, db);
        }
    }

    // Different coarse grids do not pair.
    const KernelApplicator small(truncated(nom, support_radius(nom) / 2), n);
    ASSERT_NE(small.coarse_grid(), nom_app.coarse_grid());
    const std::vector<Complex> nv(static_cast<std::size_t>(nom_app.kernels().support_size()));
    const std::vector<Complex> sv(static_cast<std::size_t>(small.kernels().support_size()));
    EXPECT_THROW((void)nom_app.apply_pair(nv, small, sv, px), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Grids, KernelApplicatorTest, ::testing::Values(256, 512));

// A full spectrum goes through the same band-limited body: apply() gathers
// the support values and equals apply_support() on them bit for bit.
TEST_P(KernelApplicatorTest, FullSpectrumApplyGathersTheSupport) {
    const LithoSim& s = sim(GetParam());
    const auto layout = metal_layout(24, 65);
    const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 1);
    const KernelApplicator app(s.nominal_kernels(), s.config().grid);
    const geo::Raster got =
        app.apply(dense_reference::spectrum(s, layout, offsets), s.config().pixel_nm);
    const geo::Raster want = app.apply_support(
        support_values(s, s.nominal_kernels(), layout, offsets), s.config().pixel_nm);
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          got.data().size() * sizeof(float)),
              0);
}

// LithoSim::evaluate is a fresh evaluator primed with the layout: both
// overloads give the bits of evaluate_incremental(..., kPrime) on a fresh
// simulator, at both grids, on a via and a metal clip, for the standard
// window and a three-plane one (an odd plane imaged alone).
TEST(LithoSim, EvaluateEqualsPrimedIncrementalBitwise) {
    for (const int grid : {256, 512}) {
        const LithoSim& s = sim(grid);
        WindowSpec three = WindowSpec::standard(s.config());
        three.defocus_nm = {0.0, s.config().defocus_nm / 2.0, s.config().defocus_nm};
        for (const auto& layout : {via_layout(3, 66), metal_layout(24, 67)}) {
            std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()));
            for (std::size_t i = 0; i < offsets.size(); ++i) {
                offsets[i] = static_cast<int>((i * 3) % 7) - 2;
            }
            const std::string where = "grid " + std::to_string(grid) + " " +
                                      std::to_string(layout.num_segments()) + " segments";
            LithoSim fresh(s);
            expect_bit_identical(s.evaluate(layout, offsets),
                                 fresh.evaluate_incremental(layout, offsets, Refresh::kPrime),
                                 where);
            for (const WindowSpec& spec : {WindowSpec::standard(s.config()), three}) {
                LithoSim fresh_window(s);
                expect_bit_identical(
                    s.evaluate(layout, offsets, spec),
                    fresh_window.evaluate_incremental(layout, offsets, spec, Refresh::kPrime),
                    where + " " + std::to_string(spec.focus_count()) + " planes");
            }
        }
    }
}

// The cached spectrum is held in tcc_support_freqs(cfg) order and every
// plane reads it as is, so a kernel set on any other support is refused.
TEST_F(LithoIncrementalTest, EvaluatorRejectsKernelSetOffTheConfigSupport) {
    const LithoConfig& cfg = sim_->config();
    const SharedKernels kernels = acquire_kernels(cfg);
    const KernelSet& nom = kernels.nominal->kernels();
    const KernelSet& def = kernels.defocus->kernels();
    const auto off_support = [&cfg](const KernelSet& ks) {
        return std::make_shared<const KernelApplicator>(truncated(ks, support_radius(ks) - 1),
                                                        cfg.grid);
    };
    EXPECT_NO_THROW(IncrementalEvaluator(cfg, sim_->threshold(), kernels.nominal, kernels.defocus));
    EXPECT_THROW(IncrementalEvaluator(cfg, sim_->threshold(), off_support(nom), kernels.defocus),
                 std::invalid_argument);
    EXPECT_THROW(IncrementalEvaluator(cfg, sim_->threshold(), kernels.nominal, off_support(def)),
                 std::invalid_argument);
}

// ---- Golden-metrics regression fixtures ------------------------------------

struct GoldenCase {
    std::string name;
    geo::SegmentedLayout layout;
    std::vector<int> offsets;
};

std::vector<GoldenCase> golden_cases() {
    std::vector<GoldenCase> cases;
    {
        GoldenCase c{"via3", via_layout(3, 11), {}};
        c.offsets.resize(static_cast<std::size_t>(c.layout.num_segments()));
        for (std::size_t i = 0; i < c.offsets.size(); ++i) {
            c.offsets[i] = static_cast<int>((i * 7) % 11) - 5;
        }
        cases.push_back(std::move(c));
    }
    {
        GoldenCase c{"metal24", metal_layout(24, 12), {}};
        c.offsets.resize(static_cast<std::size_t>(c.layout.num_segments()));
        for (std::size_t i = 0; i < c.offsets.size(); ++i) {
            c.offsets[i] = static_cast<int>((i * 5) % 9) - 4;
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

std::string golden_path(const std::string& name) {
    return std::string(CAMO_GOLDEN_DIR) + "/" + name + ".json";
}

void write_golden(const GoldenCase& c, const SimMetrics& m) {
    std::ofstream out(golden_path(c.name));
    ASSERT_TRUE(out) << "cannot write " << golden_path(c.name);
    out << "{\n  \"name\": \"" << c.name << "\",\n";
    out << "  \"pvband_nm2\": " << std::fixed << std::setprecision(3) << m.pvband_nm2 << ",\n";
    out << "  \"epe_segment\": [";
    for (std::size_t i = 0; i < m.epe_segment.size(); ++i) {
        out << (i ? ", " : "") << std::setprecision(6) << m.epe_segment[i];
    }
    out << "]\n}\n";
}

bool read_golden(const std::string& name, double& pvband, std::vector<double>& epe) {
    std::ifstream in(golden_path(name));
    if (!in) return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    const auto pv_pos = text.find("\"pvband_nm2\":");
    const auto epe_pos = text.find("\"epe_segment\":");
    if (pv_pos == std::string::npos || epe_pos == std::string::npos) return false;
    pvband = std::strtod(text.c_str() + pv_pos + 13, nullptr);

    epe.clear();
    const auto open = text.find('[', epe_pos);
    const auto close = text.find(']', open);
    if (open == std::string::npos || close == std::string::npos) return false;
    const char* p = text.c_str() + open + 1;
    const char* end = text.c_str() + close;
    while (p < end) {
        char* next = nullptr;
        const double v = std::strtod(p, &next);
        if (next == p) break;
        epe.push_back(v);
        p = next;
        while (p < end && (*p == ',' || *p == ' ' || *p == '\n')) ++p;
    }
    return true;
}

// Cross-compiler float differences (FMA contraction, vectorization) make the
// goldens looser than the path-vs-path tolerances.
constexpr double kGoldenEpeTolNm = 2e-3;
constexpr double kGoldenPvbTolNm2 = 64.0;

TEST_F(LithoIncrementalTest, GoldenMetricsBothPaths) {
    for (const GoldenCase& c : golden_cases()) {
        const SimMetrics full = dense_reference::evaluate(*sim_, c.layout, c.offsets);

        if (std::getenv("CAMO_REGEN_GOLDENS") != nullptr) {
            write_golden(c, full);
            continue;
        }

        double golden_pvb = 0.0;
        std::vector<double> golden_epe;
        ASSERT_TRUE(read_golden(c.name, golden_pvb, golden_epe))
            << "missing golden fixture " << golden_path(c.name)
            << " (run with CAMO_REGEN_GOLDENS=1 to create)";

        ASSERT_EQ(golden_epe.size(), full.epe_segment.size()) << c.name;
        for (std::size_t i = 0; i < golden_epe.size(); ++i) {
            EXPECT_NEAR(full.epe_segment[i], golden_epe[i], kGoldenEpeTolNm)
                << c.name << " full path segment " << i;
        }
        EXPECT_NEAR(full.pvband_nm2, golden_pvb, kGoldenPvbTolNm2) << c.name << " full path";

        // The incremental path must reproduce the same goldens after
        // arriving at the golden offsets through a sequence of small moves
        // (the state it would be in mid-OPC).
        LithoSim inc_sim(*sim_);
        std::vector<int> offsets(static_cast<std::size_t>(c.layout.num_segments()), 0);
        (void)inc_sim.evaluate_incremental(c.layout, offsets, Refresh::kPrime);
        const int chunk = std::max(1, c.layout.num_segments() / 12);
        SimMetrics inc;
        int cursor = 0;
        while (cursor < c.layout.num_segments()) {
            for (int j = 0; j < chunk && cursor < c.layout.num_segments(); ++j, ++cursor) {
                offsets[static_cast<std::size_t>(cursor)] = c.offsets[static_cast<std::size_t>(cursor)];
            }
            inc = inc_sim.evaluate_incremental(c.layout, offsets, Refresh::kUpdate);
        }
        ASSERT_GT(inc_sim.incremental_hit_count(), 0) << c.name;

        ASSERT_EQ(inc.epe_segment.size(), golden_epe.size()) << c.name;
        for (std::size_t i = 0; i < golden_epe.size(); ++i) {
            EXPECT_NEAR(inc.epe_segment[i], golden_epe[i], kGoldenEpeTolNm)
                << c.name << " incremental path segment " << i;
        }
        EXPECT_NEAR(inc.pvband_nm2, golden_pvb, kGoldenPvbTolNm2) << c.name << " incremental path";
    }
}

}  // namespace
}  // namespace camo::litho
