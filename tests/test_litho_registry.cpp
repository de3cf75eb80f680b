// Kernel registry: build-once sharing under concurrent acquires, focus-plane
// keys, simulators on many threads imaging through the same applicators, and
// the invariant the incremental evaluator rests on — every kernel set of a
// configuration, at any focus and however it was obtained, is supported on
// tcc_support_freqs(cfg).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "litho/kernel_cache.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/simulator.hpp"
#include "obs/metrics.hpp"

namespace camo::litho {
namespace {

LithoConfig small_config(int grid) {
    LithoConfig cfg;
    cfg.grid = grid;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.threshold = 0.25;  // no calibration: only the kernel builds run
    cfg.cache_dir = "";
    return cfg;
}

long long kernel_builds() {
    const auto snap = obs::snapshot_metrics();
    const obs::MetricSnapshot* m = obs::find_metric(snap, "kernels.builds");
    return m == nullptr ? 0 : m->counter;
}

void expect_config_support(const KernelSet& ks, const LithoConfig& cfg, const char* what) {
    const std::vector<FreqIndex> support = tcc_support_freqs(cfg);
    ASSERT_EQ(ks.support.size(), support.size()) << what << " at grid " << cfg.grid;
    for (std::size_t i = 0; i < support.size(); ++i) {
        ASSERT_EQ(ks.support[i].kx, support[i].kx) << what << " entry " << i;
        ASSERT_EQ(ks.support[i].ky, support[i].ky) << what << " entry " << i;
    }
    for (const auto& coeff : ks.coeffs) ASSERT_EQ(coeff.size(), support.size()) << what;
}

void expect_same_kernels(const KernelSet& a, const KernelSet& b) {
    EXPECT_EQ(a.eigenvalues, b.eigenvalues);
    EXPECT_TRUE(a.coeffs == b.coeffs) << "kernel coefficients differ";
}

// Four threads race for one configuration's standard pair and one extra
// plane, half of them asking for the plane first: every thread gets the same
// objects, and each distinct set is built exactly once.
TEST(KernelRegistry, ConcurrentAcquiresBuildEachSetOnce) {
    const LithoConfig cfg = small_config(256);
    clear_kernel_registry();
    obs::set_metrics_enabled(true);
    const long long before = kernel_builds();

    constexpr int kThreads = 4;
    std::vector<SharedKernels> shared(kThreads);
    std::vector<std::shared_ptr<const KernelApplicator>> planes(kThreads);
    {
        std::latch start(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                const auto i = static_cast<std::size_t>(t);
                start.arrive_and_wait();
                if (t % 2 == 0) {
                    shared[i] = acquire_kernels(cfg);
                    planes[i] = acquire_focus_applicator(cfg, 12.5);
                } else {
                    planes[i] = acquire_focus_applicator(cfg, 12.5);
                    shared[i] = acquire_kernels(cfg);
                }
            });
        }
        for (std::thread& th : threads) th.join();
    }
    const long long builds = kernel_builds() - before;
    obs::set_metrics_enabled(false);

    // One build for the standard pair, one for the 12.5 nm plane.
    EXPECT_EQ(builds, 2);
    for (std::size_t i = 0; i < kThreads; ++i) {
        ASSERT_NE(shared[i].nominal, nullptr);
        EXPECT_EQ(shared[i].nominal, shared[0].nominal) << "thread " << i;
        EXPECT_EQ(shared[i].defocus, shared[0].defocus) << "thread " << i;
        EXPECT_EQ(planes[i], planes[0]) << "thread " << i;
    }
    EXPECT_NE(planes[0], shared[0].nominal);
    EXPECT_NE(planes[0], shared[0].defocus);
    // The standard planes resolve to the pair without a build.
    EXPECT_EQ(acquire_focus_applicator(cfg, 0.0), shared[0].nominal);
    EXPECT_EQ(acquire_focus_applicator(cfg, cfg.defocus_nm), shared[0].defocus);
}

// Extra planes are keyed on the defocus rounded to 1e-3 nm and built at that
// rounded value, so which caller of a key comes first does not matter.
TEST(KernelRegistry, FocusPlaneKernelsDependOnlyOnTheirKey) {
    const LithoConfig cfg = small_config(256);
    clear_kernel_registry();
    const auto fresh = acquire_focus_applicator(cfg, 10.0);
    clear_kernel_registry();
    const auto first = acquire_focus_applicator(cfg, 10.0004);
    const auto second = acquire_focus_applicator(cfg, 10.0);
    EXPECT_EQ(first, second);  // one key, one build
    EXPECT_NE(second, fresh);
    expect_same_kernels(second->kernels(), fresh->kernels());
    clear_kernel_registry();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const SimMetrics& a, const SimMetrics& b) {
    return same_bits(a.epe, b.epe) && same_bits(a.epe_segment, b.epe_segment) &&
           same_bits(a.sum_abs_epe, b.sum_abs_epe) && same_bits(a.pvband_nm2, b.pvband_nm2);
}

// A prime, a sparse update and a three-plane window sweep through one
// simulator copy: every image comes from the registry's applicators.
struct SimRun {
    SimMetrics primed;
    SimMetrics moved;
    WindowMetrics window;
};

SimRun run_copy(const LithoSim& shared) {
    LithoSim sim(shared);
    const geo::SegmentedLayout layout(
        {geo::Polygon::from_rect({465, 465, 535, 535}), geo::Polygon::from_rect({615, 465, 685, 535})},
        {geo::FragmentStyle::kVia, 60}, {}, 1000);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 2);
    WindowSpec spec = WindowSpec::standard(sim.config());
    spec.defocus_nm = {0.0, 12.5, sim.config().defocus_nm};

    SimRun r;
    r.primed = sim.evaluate_incremental(layout, offsets, Refresh::kPrime);
    offsets[1] += 2;
    r.moved = sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);
    r.window = sim.evaluate_incremental(layout, offsets, spec, Refresh::kUpdate);
    return r;
}

// Four threads each copy one simulator and evaluate at once: they share its
// applicators (the extra plane's too, acquired by the one-thread run), so no
// thread builds a kernel set, and every result has the one-thread run's bits.
TEST(KernelRegistry, ConcurrentSimulatorsShareOneApplicator) {
    clear_kernel_registry();
    const LithoSim shared(small_config(256));
    const SimRun want = run_copy(shared);
    obs::set_metrics_enabled(true);
    const long long before = kernel_builds();

    constexpr int kThreads = 4;
    std::vector<SimRun> got(kThreads);
    {
        std::latch start(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                got[static_cast<std::size_t>(t)] = run_copy(shared);
            });
        }
        for (std::thread& th : threads) th.join();
    }
    const long long builds = kernel_builds() - before;
    obs::set_metrics_enabled(false);

    EXPECT_EQ(builds, 0);
    for (std::size_t i = 0; i < kThreads; ++i) {
        EXPECT_TRUE(same_bits(got[i].primed, want.primed)) << "thread " << i;
        EXPECT_TRUE(same_bits(got[i].moved, want.moved)) << "thread " << i;
        ASSERT_EQ(got[i].window.corners.size(), want.window.corners.size()) << "thread " << i;
        for (std::size_t c = 0; c < want.window.corners.size(); ++c) {
            EXPECT_TRUE(same_bits(got[i].window.corners[c].metrics, want.window.corners[c].metrics))
                << "thread " << i << " corner " << c;
        }
        EXPECT_TRUE(same_bits(got[i].window.pv_band_exact_nm2, want.window.pv_band_exact_nm2))
            << "thread " << i;
        EXPECT_TRUE(same_bits(got[i].window.worst_epe, want.window.worst_epe)) << "thread " << i;
    }
    clear_kernel_registry();
}

class SupportInvariant : public ::testing::TestWithParam<int> {};

// A fresh build, the pair loaded back from the disk cache and an extra focus
// plane all carry tcc_support_freqs(cfg) (593 entries at grid 256, 2337 at
// grid 512, 4 nm pixels).
TEST_P(SupportInvariant, EveryKernelSetOfAConfigIsOnTheConfigSupport) {
    LithoConfig cfg = small_config(GetParam());
    cfg.cache_dir = ::testing::TempDir() + "camo_support_invariant_" + std::to_string(cfg.grid);
    std::filesystem::remove_all(cfg.cache_dir);
    clear_kernel_registry();

    const SharedKernels built = acquire_kernels(cfg);
    expect_config_support(built.nominal->kernels(), cfg, "fresh nominal");
    expect_config_support(built.defocus->kernels(), cfg, "fresh defocus");

    const auto loaded = load_kernel_cache(cfg);
    ASSERT_TRUE(loaded.has_value());
    expect_config_support(loaded->nominal, cfg, "cached nominal");
    expect_config_support(loaded->defocus, cfg, "cached defocus");
    expect_same_kernels(loaded->nominal, built.nominal->kernels());
    expect_same_kernels(loaded->defocus, built.defocus->kernels());

    expect_config_support(acquire_focus_applicator(cfg, 12.5)->kernels(), cfg, "12.5 nm plane");

    clear_kernel_registry();
    std::filesystem::remove_all(cfg.cache_dir);
}

INSTANTIATE_TEST_SUITE_P(Grids, SupportInvariant, ::testing::Values(256, 512));

}  // namespace
}  // namespace camo::litho
