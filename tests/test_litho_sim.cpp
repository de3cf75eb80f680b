#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string>

#include "common/file_io.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/simulator.hpp"

// Largest single operator-new request since the last reset. The kernel-cache
// corpus below uses it to check that a corrupt count is rejected before it
// sizes a vector (the load fails either way; the allocation shows whether
// the count was trusted first).
namespace {
std::atomic<std::size_t> g_largest_new{0};
}  // namespace

void* operator new(std::size_t n) {
    std::size_t seen = g_largest_new.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_new.compare_exchange_weak(seen, n)) {
    }
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// pointer it saw come from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace camo::litho {
namespace {

// One shared simulator per suite: kernel construction dominates test time.
class LithoSimTest : public ::testing::Test {
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

LithoSim* LithoSimTest::sim_ = nullptr;

geo::SegmentedLayout via_layout(int clip = 1000) {
    const int lo = clip / 2 - 35;
    return geo::SegmentedLayout({geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})},
                                {geo::FragmentStyle::kVia, 60}, {}, clip);
}

TEST_F(LithoSimTest, ThresholdCalibratedInPhysicalRange) {
    EXPECT_GT(sim_->threshold(), 0.02);
    EXPECT_LT(sim_->threshold(), 0.9);
}

TEST_F(LithoSimTest, EmptyMaskPrintsNothing) {
    geo::Raster mask(sim_->config().grid, sim_->config().pixel_nm);
    const geo::Raster aerial = sim_->aerial_nominal(mask);
    for (float v : aerial.data()) EXPECT_LT(v, 1e-4F);
}

TEST_F(LithoSimTest, OpenFrameIsBrightAndFlat) {
    geo::Raster mask(sim_->config().grid, sim_->config().pixel_nm);
    mask.fill(1.0F);
    const geo::Raster aerial = sim_->aerial_nominal(mask);
    const int n = aerial.n();
    const float center = aerial.at(n / 2, n / 2);
    EXPECT_GT(center, 0.5F);
    // Flat away from wraparound edges.
    EXPECT_NEAR(aerial.at(n / 2 + 5, n / 2 - 3), center, 0.02F);
}

TEST_F(LithoSimTest, LargeFeatureOverprintsBoundedly) {
    // With the dose-to-size fraction below 1, a large feature's contour sits
    // a bounded distance *outside* the target: positive EPE the OPC engines
    // must pull in, never a clamp (the feature always prints).
    const int clip = 1000;
    const int lo = clip / 2 - 200;
    geo::SegmentedLayout layout({geo::Polygon::from_rect({lo, lo, lo + 400, lo + 400})},
                                {geo::FragmentStyle::kVia, 60}, {}, clip);
    const std::vector<int> zeros(4, 0);
    const SimMetrics m = sim_->evaluate(layout, zeros);
    ASSERT_EQ(m.epe.size(), 4U);
    for (double e : m.epe) {
        EXPECT_GT(e, 0.0);
        EXPECT_LT(e, sim_->config().epe_range_nm) << "must not clamp";
    }
}

TEST_F(LithoSimTest, IsolatedViaUnderprints) {
    // 70 nm via is sub-resolution: it must print small (negative EPE).
    const auto layout = via_layout();
    const std::vector<int> zeros(4, 0);
    const SimMetrics m = sim_->evaluate(layout, zeros);
    for (double e : m.epe) EXPECT_LT(e, 0.0);
}

TEST_F(LithoSimTest, OutwardBiasReducesViaUnderprint) {
    const auto layout = via_layout();
    const std::vector<int> zeros(4, 0);
    const std::vector<int> biased(4, 6);
    const SimMetrics m0 = sim_->evaluate(layout, zeros);
    const SimMetrics m6 = sim_->evaluate(layout, biased);
    EXPECT_LT(m6.sum_abs_epe, m0.sum_abs_epe);
}

TEST_F(LithoSimTest, SymmetricViaGivesSymmetricEpe) {
    const auto layout = via_layout();
    const std::vector<int> zeros(4, 0);
    const SimMetrics m = sim_->evaluate(layout, zeros);
    ASSERT_EQ(m.epe.size(), 4U);
    for (std::size_t i = 1; i < 4; ++i) EXPECT_NEAR(m.epe[i], m.epe[0], 0.35);
}

TEST_F(LithoSimTest, DoseMonotonicity) {
    const auto layout = via_layout();
    const std::vector<int> biased(4, 8);
    const auto polys = layout.reconstruct_mask(biased);
    const geo::Raster mask = sim_->rasterize(polys, {}, layout.clip_size_nm());
    const geo::Raster aerial = sim_->aerial_nominal(mask);

    // Bind the printed rasters: data() is a span into the Raster, and a
    // range-for over a temporary's span is a use-after-free in C++20.
    const geo::Raster low = sim_->printed(aerial, 0.95);
    const geo::Raster high = sim_->printed(aerial, 1.05);
    double printed_low = 0.0;
    double printed_high = 0.0;
    for (float v : low.data()) printed_low += v;
    for (float v : high.data()) printed_high += v;
    EXPECT_GE(printed_high, printed_low);
    EXPECT_GT(printed_high, 0.0);
}

TEST_F(LithoSimTest, DefocusLowersPeakIntensity) {
    const auto layout = via_layout();
    const std::vector<int> biased(4, 8);
    const auto polys = layout.reconstruct_mask(biased);
    const geo::Raster mask = sim_->rasterize(polys, {}, layout.clip_size_nm());

    const geo::Raster nom = sim_->aerial_nominal(mask);
    const geo::Raster def = sim_->aerial_defocus(mask);
    float peak_nom = 0.0F;
    float peak_def = 0.0F;
    for (float v : nom.data()) peak_nom = std::max(peak_nom, v);
    for (float v : def.data()) peak_def = std::max(peak_def, v);
    EXPECT_LT(peak_def, peak_nom);
}

TEST_F(LithoSimTest, PvBandPositiveForPrintedVia) {
    const auto layout = via_layout();
    const std::vector<int> biased(4, 8);
    const SimMetrics m = sim_->evaluate(layout, biased);
    EXPECT_GT(m.pvband_nm2, 0.0);
    // Sanity upper bound: the band is a thin annulus, far below clip area.
    EXPECT_LT(m.pvband_nm2, 200.0 * 200.0);
}

TEST_F(LithoSimTest, EpeSegmentCoversAllSegments) {
    const auto layout = via_layout();
    const std::vector<int> zeros(4, 0);
    const SimMetrics m = sim_->evaluate(layout, zeros);
    EXPECT_EQ(m.epe_segment.size(), static_cast<std::size_t>(layout.num_segments()));
    EXPECT_EQ(m.epe.size(), 4U);
}

TEST_F(LithoSimTest, EvaluateCountsCalls) {
    const auto layout = via_layout();
    const std::vector<int> zeros(4, 0);
    const long long before = sim_->evaluate_count();
    (void)sim_->evaluate(layout, zeros);
    EXPECT_EQ(sim_->evaluate_count(), before + 1);
}

TEST(LithoSimConfig, RejectsNonPow2Grid) {
    LithoConfig cfg;
    cfg.grid = 300;
    cfg.cache_dir = "";
    EXPECT_THROW(LithoSim sim(cfg), std::invalid_argument);
}

TEST(LithoSimConfig, PhysicsHashSensitivity) {
    LithoConfig a;
    LithoConfig b;
    EXPECT_EQ(a.physics_hash(), b.physics_hash());
    b.na = 1.2;
    EXPECT_NE(a.physics_hash(), b.physics_hash());
    LithoConfig c;
    c.grid = 256;
    EXPECT_NE(a.physics_hash(), c.physics_hash());
}

TEST(LithoMetrics, EpeSignConvention) {
    // Synthetic aerial: bright left half, dark right half, smooth ramp.
    geo::Raster aerial(64, 1.0);
    for (int r = 0; r < 64; ++r) {
        for (int c = 0; c < 64; ++c) {
            aerial.at(r, c) = 1.0F / (1.0F + std::exp(0.5F * (c - 32)));
        }
    }
    // Target edge exactly at the 0.5 crossing (x = 32.5 in nm, pixel centres
    // at +0.5): EPE should be ~0.
    const double epe0 = measure_epe(aerial, 0.5, {32.5, 32.0}, {1.0, 0.0}, 15.0);
    EXPECT_NEAR(epe0, 0.0, 0.6);
    // Target edge inside the bright region: contour is outside -> positive.
    const double epe_pos = measure_epe(aerial, 0.5, {28.0, 32.0}, {1.0, 0.0}, 15.0);
    EXPECT_GT(epe_pos, 2.0);
    // Target edge in the dark region: contour receded -> negative.
    const double epe_neg = measure_epe(aerial, 0.5, {38.0, 32.0}, {1.0, 0.0}, 15.0);
    EXPECT_LT(epe_neg, -2.0);
}

TEST(LithoMetrics, EpeClampsWhenNoContour) {
    geo::Raster dark(32, 1.0);  // nothing prints
    const double epe = measure_epe(dark, 0.5, {16.0, 16.0}, {1.0, 0.0}, 10.0);
    EXPECT_DOUBLE_EQ(epe, -10.0);

    geo::Raster bright(32, 1.0);
    bright.fill(1.0F);
    const double epe2 = measure_epe(bright, 0.5, {16.0, 16.0}, {1.0, 0.0}, 10.0);
    EXPECT_DOUBLE_EQ(epe2, 10.0);
}

TEST(LithoMetrics, PvBandCountsBandPixels) {
    geo::Raster nom(16, 2.0);
    geo::Raster def(16, 2.0);
    // Outer prints a 4-pixel block, inner prints nothing.
    nom.at(5, 5) = nom.at(5, 6) = nom.at(6, 5) = nom.at(6, 6) = 1.0F;
    const double band = pv_band_nm2(nom, def, 0.5, 0.98, 1.02);
    EXPECT_DOUBLE_EQ(band, 4.0 * 2.0 * 2.0);

    // Identical images with identical dose corners -> zero band.
    const double zero_band = pv_band_nm2(nom, nom, 0.5, 1.0, 1.0);
    EXPECT_DOUBLE_EQ(zero_band, 0.0);
}

// ---- Kernel cache: a corrupt file is a miss, never a kernel set ------------
// Each case writes a doctored entry (through store_kernel_cache, or by
// patching the bytes of a good one) and expects load_kernel_cache to refuse
// it, so the registry rebuilds the kernels instead of imaging with them.

class KernelCacheCorpus : public ::testing::Test {
protected:
    void SetUp() override {
        cfg_.grid = 64;
        cfg_.cache_dir = ::testing::TempDir() + "camo_kernel_cache_corpus";
        std::filesystem::remove_all(cfg_.cache_dir);
        // A LithoSim of an earlier case would otherwise hand its in-process
        // kernels to this case's LithoSim, which then never reads the disk.
        clear_kernel_registry();
    }
    void TearDown() override { std::filesystem::remove_all(cfg_.cache_dir); }

    // Two small kernels over the 64 grid's support; the first coefficient
    // of the first kernel is 1.0F.
    [[nodiscard]] KernelSet kernel_set() const {
        KernelSet ks;
        ks.support = tcc_support_freqs(cfg_);
        ks.eigenvalues = {1.0, 0.5};
        ks.coeffs.resize(2);
        for (std::size_t i = 0; i < ks.support.size(); ++i) {
            const auto v = static_cast<float>(i);
            ks.coeffs[0].emplace_back(1.0F / (1.0F + v), 0.25F * v);
            ks.coeffs[1].emplace_back(-0.5F * v, 1.0F);
        }
        return ks;
    }
    [[nodiscard]] CachedKernels good() const { return {kernel_set(), kernel_set(), 0.2}; }

    [[nodiscard]] bool loads(const CachedKernels& ck) const {
        store_kernel_cache(cfg_, ck);
        return load_kernel_cache(cfg_).has_value();
    }
    [[nodiscard]] std::string bytes() const {
        std::ifstream in(kernel_cache_path(cfg_), std::ios::binary);
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }
    void write(const std::string& b) const {
        std::ofstream(kernel_cache_path(cfg_), std::ios::binary | std::ios::trunc) << b;
    }

    // Byte offset of the nominal set's eigenvalue count: magic, version and
    // threshold come first.
    static constexpr std::size_t kEigenCountAt = 4 + 4 + 8;

    LithoConfig cfg_;
};

TEST_F(KernelCacheCorpus, GoodEntryLoads) {
    store_kernel_cache(cfg_, good());
    const auto loaded = load_kernel_cache(cfg_);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->threshold, 0.2);
    const std::vector<FreqIndex> support = tcc_support_freqs(cfg_);
    for (const KernelSet* ks : {&loaded->nominal, &loaded->defocus}) {
        ASSERT_EQ(ks->support_size(), static_cast<int>(support.size()));
        for (std::size_t i = 0; i < support.size(); ++i) {
            EXPECT_EQ(ks->support[i].kx, support[i].kx);
            EXPECT_EQ(ks->support[i].ky, support[i].ky);
        }
        EXPECT_EQ(ks->eigenvalues, kernel_set().eigenvalues);
        EXPECT_EQ(ks->coeffs, kernel_set().coeffs);
    }
}

// The file stores no support: each coefficient count is checked against the
// size of tcc_support_freqs(cfg).
TEST_F(KernelCacheCorpus, CoefficientCountDiffersFromSupport) {
    CachedKernels ck = good();
    ck.nominal.coeffs[0].resize(1);
    EXPECT_FALSE(loads(ck));
    ck = good();
    ck.defocus.coeffs[1].push_back({1.0F, 1.0F});
    EXPECT_FALSE(loads(ck));
}

TEST_F(KernelCacheCorpus, NoKernels) {
    CachedKernels ck = good();
    ck.defocus.eigenvalues.clear();
    ck.defocus.coeffs.clear();
    EXPECT_FALSE(loads(ck));
}

TEST_F(KernelCacheCorpus, CountLargerThanFileIsRejectedBeforeAllocating) {
    store_kernel_cache(cfg_, good());
    std::string b = bytes();
    const std::uint64_t huge = std::uint64_t{1} << 22;  // 32 MB of eigenvalues
    std::memcpy(b.data() + kEigenCountAt, &huge, sizeof huge);
    write(b);
    g_largest_new = 0;
    EXPECT_FALSE(load_kernel_cache(cfg_).has_value());
    // Reading allocates a stream buffer (a few KB) and the derived support,
    // never the count's 32 MB of eigenvalues.
    EXPECT_LT(g_largest_new.load(), std::size_t{1} << 20) << "a count sized a vector unchecked";
}

TEST_F(KernelCacheCorpus, ThresholdNotFinitePositive) {
    for (const double t : {0.0, -0.2, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
        CachedKernels ck = good();
        ck.threshold = t;
        EXPECT_FALSE(loads(ck)) << t;
    }
}

TEST_F(KernelCacheCorpus, TrailingBytes) {
    store_kernel_cache(cfg_, good());
    write(bytes() + std::string(1, '\0'));
    EXPECT_FALSE(load_kernel_cache(cfg_).has_value());
}

TEST_F(KernelCacheCorpus, CoefficientBitFlipIsRejectedAndRebuilt) {
    store_kernel_cache(cfg_, good());
    std::string b = bytes();
    // The nominal set's first coefficient: after the eigenvalue count come
    // two eigenvalues and the first kernel's coefficient count. Flipping the
    // lowest mantissa bit of its real part (1.0F) leaves a structurally
    // valid file that only the payload seal can tell from the good one.
    constexpr std::size_t kFirstCoeffAt = kEigenCountAt + 8 + 2 * 8 + 8;
    float re = 0.0F;
    std::memcpy(&re, b.data() + kFirstCoeffAt, sizeof re);
    ASSERT_EQ(re, 1.0F);
    b[kFirstCoeffAt] = static_cast<char>(b[kFirstCoeffAt] ^ 1);
    write(b);
    EXPECT_FALSE(load_kernel_cache(cfg_).has_value());

    // A miss makes the simulator build the kernels and rewrite the entry.
    const LithoSim sim(cfg_);
    EXPECT_NE(bytes(), b);
    EXPECT_TRUE(load_kernel_cache(cfg_).has_value());
}

TEST_F(KernelCacheCorpus, OlderVersionIsAMissAndRebuilt) {
    // A current entry relabelled as version 5 (the last format whose
    // threshold was calibrated through the dense applicator) and as version
    // 4 (the last that stored each set's support): header patched, seal
    // recomputed, so only the version tells it from a current entry.
    constexpr std::size_t kVersionAt = 4;
    for (const std::uint32_t old_version : {5U, 4U}) {
        store_kernel_cache(cfg_, good());
        std::string b = bytes();
        std::uint32_t version = 0;
        std::memcpy(&version, b.data() + kVersionAt, sizeof version);
        ASSERT_EQ(version, 6U);
        version = old_version;
        std::memcpy(b.data() + kVersionAt, &version, sizeof version);
        const std::size_t payload = b.size() - sizeof(std::uint64_t);
        const std::uint64_t seal = fnv1a(kFnv1aBasis, b.data(), payload);
        std::memcpy(b.data() + payload, &seal, sizeof seal);
        write(b);
        EXPECT_FALSE(load_kernel_cache(cfg_).has_value()) << "version " << old_version;

        // The registry rebuilds the kernels and rewrites the entry as version 6.
        clear_kernel_registry();
        const LithoSim sim(cfg_);
        const std::string rebuilt = bytes();
        ASSERT_GE(rebuilt.size(), kVersionAt + sizeof version);
        std::memcpy(&version, rebuilt.data() + kVersionAt, sizeof version);
        EXPECT_EQ(version, 6U) << "rewritten from version " << old_version;
        EXPECT_TRUE(load_kernel_cache(cfg_).has_value());
    }
}

}  // namespace
}  // namespace camo::litho
