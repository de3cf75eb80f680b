// Drift oracle for the incremental evaluator: a long random walk on
// Refresh::kUpdate (500 steps per clip, one via and one metal clip at grid
// 256) is compared with the dense SOCS reference (litho_dense_reference.hpp)
// at every step. The
// sparse delta-DFT keeps adding into the cached support spectrum and the
// packed pair upsample re-images it every step, so an error that grows with
// the walk length would show here long before the 10-12 step equivalence
// walks of test_litho_incremental.cpp could see it. Every step must stay
// within kIncrementalEpeTolNm and kIncrementalPvbPixelSlack; the max-error
// curve is printed every 100 steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "litho/incremental.hpp"
#include "litho/simulator.hpp"
#include "litho_dense_reference.hpp"

namespace camo::litho {
namespace {

constexpr int kSteps = 500;
constexpr int kReportEvery = 100;

class LithoDriftTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        LithoConfig cfg;
        cfg.grid = 256;
        cfg.pixel_nm = 4.0;
        // Fewer kernels than the other litho suites keep the 1000 dense
        // evaluations affordable; what could drift (the delta-DFT
        // accumulator and the packed upsample) does not depend on the count.
        cfg.kernels_nominal = 3;
        cfg.kernels_defocus = 2;
        cfg.cache_dir = "";
        sim_ = new LithoSim(cfg);
    }
    static void TearDownTestSuite() {
        delete sim_;
        sim_ = nullptr;
    }

    static LithoSim* sim_;
};

LithoSim* LithoDriftTest::sim_ = nullptr;

// Clips sized to the 256-grid frame (1024 nm span), as in
// test_litho_incremental.cpp.
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

struct DriftResult {
    std::string curve;     ///< max errors over each kReportEvery steps, one line each
    int first_bad = 0;     ///< first step outside the tolerances, 0 if none
    double epe_err = 0.0;  ///< max |dEPE| (nm) at first_bad, else over the walk
    double pvb_err = 0.0;  ///< |dPVB| (nm^2) at first_bad, else max over the walk
    long long hits = 0;
    long long fulls = 0;
};

// One walk: each step moves 1-3 segments by -2..2 nm (kept in [-15, 15]),
// small enough that the evaluator stays on the sparse path. Runs on its own
// thread, so it records instead of asserting.
DriftResult drift_walk(const LithoSim& dense, const char* name,
                       const geo::SegmentedLayout& layout, std::uint64_t seed) {
    const double pixel_nm = dense.config().pixel_nm;
    const double pvb_tol_nm2 = kIncrementalPvbPixelSlack * pixel_nm * pixel_nm;
    const int segments = layout.num_segments();
    LithoSim inc(dense);
    Rng rng(seed);
    std::vector<int> offsets(static_cast<std::size_t>(segments), 3);
    (void)inc.evaluate_incremental(layout, offsets, Refresh::kPrime);

    DriftResult r;
    double window_epe = 0.0;
    double window_pvb = 0.0;
    for (int t = 1; t <= kSteps; ++t) {
        const int moves = rng.uniform_int(1, 3);
        for (int j = 0; j < moves; ++j) {
            int& o = offsets[static_cast<std::size_t>(rng.uniform_int(0, segments - 1))];
            o = std::clamp(o + rng.uniform_int(-2, 2), -15, 15);
        }
        const SimMetrics got = inc.evaluate_incremental(layout, offsets, Refresh::kUpdate);
        const SimMetrics want = dense_reference::evaluate(dense, layout, offsets);

        double epe_err = got.epe_segment.size() == want.epe_segment.size() ? 0.0 : INFINITY;
        for (std::size_t i = 0; i < want.epe_segment.size() && i < got.epe_segment.size(); ++i) {
            epe_err = std::max(epe_err, std::abs(got.epe_segment[i] - want.epe_segment[i]));
        }
        const double pvb_err = std::abs(got.pvband_nm2 - want.pvband_nm2);
        if (!(epe_err <= kIncrementalEpeTolNm && pvb_err <= pvb_tol_nm2)) {
            r.first_bad = t;
            r.epe_err = epe_err;
            r.pvb_err = pvb_err;
            break;
        }
        r.epe_err = std::max(r.epe_err, epe_err);
        r.pvb_err = std::max(r.pvb_err, pvb_err);

        window_epe = std::max(window_epe, epe_err);
        window_pvb = std::max(window_pvb, pvb_err);
        if (t % kReportEvery == 0) {
            char line[160];
            std::snprintf(line, sizeof line,
                          "[drift] %s steps %3d-%3d: max |dEPE| %.3e nm, max |dPVB| %.1f nm2\n",
                          name, t - kReportEvery + 1, t, window_epe, window_pvb);
            r.curve += line;
            window_epe = 0.0;
            window_pvb = 0.0;
        }
    }
    r.hits = inc.incremental_hit_count();
    r.fulls = inc.incremental_full_count();
    return r;
}

// The two walks run side by side, each on its own simulator copy (the dense
// reference only reads the shared simulator).
TEST_F(LithoDriftTest, LongUpdateWalksStayWithinTolerance) {
    const geo::SegmentedLayout via = via_layout(3, 21);
    const geo::SegmentedLayout metal = metal_layout(24, 73);
    DriftResult via_result;
    std::thread via_walk([&] { via_result = drift_walk(*sim_, "via", via, 72); });
    DriftResult metal_result = drift_walk(*sim_, "metal", metal, 74);
    via_walk.join();

    for (const auto& [name, r] : {std::pair{"via", &via_result}, std::pair{"metal", &metal_result}}) {
        std::fputs(r->curve.c_str(), stdout);
        EXPECT_EQ(r->first_bad, 0) << name << ": |dEPE| " << r->epe_err << " nm (tolerance "
                                   << kIncrementalEpeTolNm << "), |dPVB| " << r->pvb_err
                                   << " nm2 at step " << r->first_bad;
        // The walk must exercise the sparse path it is meant to test.
        EXPECT_EQ(r->fulls, 1) << name;
        EXPECT_EQ(r->hits, kSteps) << name;
    }
}

}  // namespace
}  // namespace camo::litho
