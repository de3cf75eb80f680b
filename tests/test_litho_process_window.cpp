// Sweep equivalence suite for the multi-corner process-window evaluation.
//
// Contracts locked down here (see litho/process_window.hpp):
//   * the (dose 1.0, best focus) corner of the window LithoSim::evaluate
//     reproduces the nominal evaluate bit for bit (same rasterization, same
//     applicator, same EPE arithmetic);
//   * the exact PV band over all corners is a superset of the legacy
//     two-corner approximation, and the approximation equals evaluate()'s
//     pvband_nm2 exactly;
//   * the incremental window path serves every corner from ONE cached
//     rasterization + spectrum (no rebuild when the cache matches, one
//     sparse delta when a few segments moved) and agrees with the dense
//     SOCS reference (litho_dense_reference.hpp) within the incremental
//     tolerances;
//   * golden JSON fixtures pin a 2x2 window on the via3/metal24 clips
//     (regenerate with CAMO_REGEN_GOLDENS=1 after an intentional change).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "litho/incremental.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"
#include "litho_dense_reference.hpp"

#ifndef CAMO_GOLDEN_DIR
#define CAMO_GOLDEN_DIR "tests/golden"
#endif

namespace camo::litho {
namespace {

constexpr double kPvbTolNm2 = kIncrementalPvbPixelSlack * 4.0 * 4.0;  // 4 nm pixels

class ProcessWindowTest : public ::testing::Test {
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

LithoSim* ProcessWindowTest::sim_ = nullptr;

// Clips sized to fit the 256-grid simulation frame (1024 nm span).
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

std::vector<int> patterned_offsets(const geo::SegmentedLayout& layout, int mod, int sub) {
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()));
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        offsets[i] = static_cast<int>((i * 7) % static_cast<std::size_t>(mod)) - sub;
    }
    return offsets;
}

TEST_F(ProcessWindowTest, SpecValidation) {
    WindowSpec spec;
    EXPECT_THROW(spec.validate(), std::invalid_argument);  // no doses
    spec.doses = {1.0};
    EXPECT_THROW(spec.validate(), std::invalid_argument);  // no focuses
    spec.defocus_nm = {0.0};
    EXPECT_NO_THROW(spec.validate());
    spec.doses = {1.0, 0.0};
    EXPECT_THROW(spec.validate(), std::invalid_argument);  // non-positive dose
    spec.doses = {1.0, -0.5};
    EXPECT_THROW(spec.validate(), std::invalid_argument);

    const WindowSpec std_spec = WindowSpec::standard(sim_->config());
    EXPECT_EQ(std_spec.corner_count(), 6);
    EXPECT_EQ(std_spec.dose_count(), 3);
    // Focus-major enumeration: first dose_count() corners are best focus.
    EXPECT_DOUBLE_EQ(std_spec.corner(0).defocus_nm, 0.0);
    EXPECT_DOUBLE_EQ(std_spec.corner(3).defocus_nm, sim_->config().defocus_nm);
    EXPECT_DOUBLE_EQ(std_spec.corner(4).dose, 1.0);
}

TEST_F(ProcessWindowTest, NominalCornerBitIdenticalToEvaluate) {
    const auto layout = via_layout(3, 21);
    const std::vector<int> offsets = patterned_offsets(layout, 11, 5);

    const SimMetrics full = sim_->evaluate(layout, offsets);
    const WindowMetrics window =
        sim_->evaluate(layout, offsets, WindowSpec::standard(sim_->config()));

    const CornerResult* nominal = window.nominal_corner();
    ASSERT_NE(nominal, nullptr);
    ASSERT_EQ(nominal->metrics.epe_segment.size(), full.epe_segment.size());
    for (std::size_t i = 0; i < full.epe_segment.size(); ++i) {
        EXPECT_EQ(nominal->metrics.epe_segment[i], full.epe_segment[i]) << "segment " << i;
    }
    ASSERT_EQ(nominal->metrics.epe.size(), full.epe.size());
    EXPECT_EQ(nominal->metrics.sum_abs_epe, full.sum_abs_epe);

    // The legacy two-corner band inside the window is the same arithmetic as
    // evaluate()'s PV band: exactly equal, not just close.
    EXPECT_EQ(window.pv_band_two_corner_nm2, full.pvband_nm2);
}

TEST_F(ProcessWindowTest, ExactBandContainsTwoCornerBand) {
    const auto layout = metal_layout(24, 12);
    const std::vector<int> offsets = patterned_offsets(layout, 9, 4);

    const WindowMetrics standard =
        sim_->evaluate(layout, offsets, WindowSpec::standard(sim_->config()));
    EXPECT_GE(standard.pv_band_two_corner_nm2, 0.0);
    EXPECT_GE(standard.pv_band_exact_nm2, standard.pv_band_two_corner_nm2);

    // A wider window can only grow the exact band (more corners in the
    // union/intersection). The two-corner approximation tracks the window's
    // own dose extremes, so it grows too — and stays a subset of exact.
    WindowSpec wide = WindowSpec::standard(sim_->config());
    wide.doses.insert(wide.doses.begin(), 0.94);
    wide.doses.push_back(1.06);
    wide.defocus_nm.push_back(sim_->config().defocus_nm / 2.0);
    const WindowMetrics wider = sim_->evaluate(layout, offsets, wide);
    EXPECT_GE(wider.pv_band_two_corner_nm2, standard.pv_band_two_corner_nm2);
    EXPECT_GE(wider.pv_band_exact_nm2, standard.pv_band_exact_nm2);
    EXPECT_GE(wider.pv_band_exact_nm2, wider.pv_band_two_corner_nm2);

    // The superset relation holds for a window NARROWER than the config's
    // dose range too (regression: the two-corner band used to be computed
    // over cfg.dose_min/dose_max regardless of the spec, which made it
    // exceed the exact band on single-dose windows).
    WindowSpec narrow = WindowSpec::standard(sim_->config());
    narrow.doses = {1.0};
    const WindowMetrics narrowed = sim_->evaluate(layout, offsets, narrow);
    EXPECT_GE(narrowed.pv_band_two_corner_nm2, 0.0);
    EXPECT_GE(narrowed.pv_band_exact_nm2, narrowed.pv_band_two_corner_nm2);

    // Non-finite specs are rejected before any kernel work.
    WindowSpec bad = WindowSpec::standard(sim_->config());
    bad.defocus_nm.push_back(std::nan(""));
    EXPECT_THROW(sim_->evaluate(layout, offsets, bad), std::invalid_argument);
    bad = WindowSpec::standard(sim_->config());
    bad.doses.push_back(std::numeric_limits<double>::infinity());
    EXPECT_THROW(sim_->evaluate(layout, offsets, bad), std::invalid_argument);

    // So are offsets that do not cover every segment, on every entry point.
    const std::vector<int> short_offsets(offsets.begin(), offsets.end() - 1);
    const WindowSpec spec = WindowSpec::standard(sim_->config());
    LithoSim inc_sim(*sim_);
    EXPECT_THROW((void)sim_->evaluate(layout, short_offsets), std::invalid_argument);
    EXPECT_THROW((void)sim_->evaluate(layout, short_offsets, spec), std::invalid_argument);
    for (const Refresh refresh : {Refresh::kPrime, Refresh::kUpdate}) {
        EXPECT_THROW((void)inc_sim.evaluate_incremental(layout, short_offsets, refresh),
                     std::invalid_argument);
        EXPECT_THROW((void)inc_sim.evaluate_incremental(layout, short_offsets, spec, refresh),
                     std::invalid_argument);
    }

    // CD through window: the printed-area range covers every corner, and
    // areas grow monotonically with dose at fixed focus.
    EXPECT_GE(wider.cd_max_nm2, wider.cd_min_nm2);
    for (int f = 0; f < wide.focus_count(); ++f) {
        for (int d = 0; d + 1 < wide.dose_count(); ++d) {
            const auto& lo = wider.corners[static_cast<std::size_t>(f * wide.dose_count() + d)];
            const auto& hi =
                wider.corners[static_cast<std::size_t>(f * wide.dose_count() + d + 1)];
            EXPECT_LE(lo.printed_area_nm2, hi.printed_area_nm2)
                << "focus " << f << " dose step " << d;
        }
    }
}

TEST_F(ProcessWindowTest, OneRasterizationServesAllCorners) {
    LithoSim inc_sim(*sim_);
    const auto layout = via_layout(3, 26);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);
    const WindowSpec spec = WindowSpec::standard(sim_->config());

    // Prime the cache (one full rebuild), then sweep at unchanged offsets:
    // no rebuild, no sparse delta — the cached raster + spectrum serve all
    // six corners outright.
    (void)inc_sim.evaluate_incremental(layout, offsets, Refresh::kPrime);
    EXPECT_EQ(inc_sim.incremental_full_count(), 1);
    const WindowMetrics warm =
        inc_sim.evaluate_incremental(layout, offsets, spec, Refresh::kUpdate);
    EXPECT_EQ(inc_sim.incremental_full_count(), 1);
    EXPECT_EQ(inc_sim.incremental_hit_count(), 1);

    // Move two segments: the sweep refreshes the cache through one sparse
    // delta-DFT and still never re-rasterizes the clip.
    offsets[0] += 2;
    offsets[2] -= 1;
    const WindowMetrics moved =
        inc_sim.evaluate_incremental(layout, offsets, spec, Refresh::kUpdate);
    EXPECT_EQ(inc_sim.incremental_full_count(), 1);
    EXPECT_EQ(inc_sim.incremental_hit_count(), 2);

    // Both sweeps agree with the dense path within the documented
    // incremental tolerances.
    for (const WindowMetrics* wm : {&warm, &moved}) {
        const std::vector<int> offs =
            (wm == &warm) ? std::vector<int>(offsets.size(), 3) : offsets;
        const WindowMetrics dense = dense_reference::evaluate(*sim_, layout, offs, spec);
        ASSERT_EQ(wm->corners.size(), dense.corners.size());
        for (std::size_t c = 0; c < dense.corners.size(); ++c) {
            const auto& a = wm->corners[c].metrics.epe_segment;
            const auto& b = dense.corners[c].metrics.epe_segment;
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_NEAR(a[i], b[i], kIncrementalEpeTolNm) << "corner " << c << " seg " << i;
            }
        }
        EXPECT_NEAR(wm->pv_band_exact_nm2, dense.pv_band_exact_nm2, kPvbTolNm2);
        EXPECT_NEAR(wm->worst_epe, dense.worst_epe,
                    kIncrementalEpeTolNm * static_cast<double>(layout.num_segments()));
    }

    // Interleaving: a plain evaluate() after the sweep still sees a
    // consistent cache (unchanged offsets return cached metrics that match a
    // fresh dense evaluation).
    const SimMetrics after = inc_sim.evaluate_incremental(layout, offsets, Refresh::kUpdate);
    const SimMetrics fresh = dense_reference::evaluate(*sim_, layout, offsets);
    ASSERT_EQ(after.epe_segment.size(), fresh.epe_segment.size());
    for (std::size_t i = 0; i < after.epe_segment.size(); ++i) {
        EXPECT_NEAR(after.epe_segment[i], fresh.epe_segment[i], kIncrementalEpeTolNm);
    }
}

TEST_F(ProcessWindowTest, IncrementalWindowTracksDenseAcrossWalk) {
    LithoSim inc_sim(*sim_);
    const auto layout = metal_layout(24, 22);
    const int segments = layout.num_segments();
    const WindowSpec spec = WindowSpec::standard(sim_->config());
    Rng rng(91);
    std::vector<int> offsets(static_cast<std::size_t>(segments), 3);

    (void)inc_sim.evaluate_incremental(layout, offsets, Refresh::kPrime);
    for (int t = 0; t < 6; ++t) {
        const int moves = std::max(1, segments / 12);
        for (int j = 0; j < moves; ++j) {
            const int i = rng.uniform_int(0, segments - 1);
            offsets[static_cast<std::size_t>(i)] = std::clamp(
                offsets[static_cast<std::size_t>(i)] + rng.uniform_int(-2, 2), -15, 15);
        }
        const WindowMetrics inc =
            inc_sim.evaluate_incremental(layout, offsets, spec, Refresh::kUpdate);
        const WindowMetrics dense = dense_reference::evaluate(*sim_, layout, offsets, spec);
        ASSERT_EQ(inc.corners.size(), dense.corners.size()) << "step " << t;
        for (std::size_t c = 0; c < dense.corners.size(); ++c) {
            EXPECT_NEAR(inc.corners[c].metrics.sum_abs_epe, dense.corners[c].metrics.sum_abs_epe,
                        kIncrementalEpeTolNm * static_cast<double>(segments))
                << "step " << t << " corner " << c;
        }
        EXPECT_NEAR(inc.pv_band_exact_nm2, dense.pv_band_exact_nm2, kPvbTolNm2) << "step " << t;
    }
    EXPECT_GT(inc_sim.incremental_hit_count(), 0);
}

TEST_F(ProcessWindowTest, ExtraFocusPlaneInterpolatesKernels) {
    const auto layout = via_layout(2, 24);
    const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);

    WindowSpec spec;
    spec.doses = {0.98, 1.02};
    spec.defocus_nm = {0.0, sim_->config().defocus_nm / 2.0, sim_->config().defocus_nm};
    const WindowMetrics wm = sim_->evaluate(layout, offsets, spec);

    ASSERT_EQ(wm.corners.size(), 6U);
    for (const CornerResult& c : wm.corners) {
        EXPECT_TRUE(std::isfinite(c.metrics.sum_abs_epe));
        EXPECT_GT(c.printed_area_nm2, 0.0);
    }
    // Defocus blurs the image: at fixed dose, the mid plane prints between
    // (or equal to) its neighbours' areas within a pixel of slack.
    const double px2 = 16.0;
    for (int d = 0; d < 2; ++d) {
        const double best = wm.corners[static_cast<std::size_t>(d)].printed_area_nm2;
        const double mid = wm.corners[static_cast<std::size_t>(2 + d)].printed_area_nm2;
        const double far = wm.corners[static_cast<std::size_t>(4 + d)].printed_area_nm2;
        EXPECT_LE(far, mid + px2) << "dose " << d;
        EXPECT_LE(mid, best + px2) << "dose " << d;
    }
}

// ---- Golden window fixtures ------------------------------------------------

struct WindowGoldenCase {
    std::string name;
    geo::SegmentedLayout layout;
    std::vector<int> offsets;
};

std::vector<WindowGoldenCase> window_golden_cases() {
    std::vector<WindowGoldenCase> cases;
    {
        WindowGoldenCase c{"window_via3", via_layout(3, 11), {}};
        c.offsets = patterned_offsets(c.layout, 11, 5);
        cases.push_back(std::move(c));
    }
    {
        WindowGoldenCase c{"window_metal24", metal_layout(24, 12), {}};
        c.offsets = patterned_offsets(c.layout, 9, 4);
        cases.push_back(std::move(c));
    }
    return cases;
}

WindowSpec golden_window_spec(const LithoConfig& cfg) {
    WindowSpec spec;  // 2x2: the band's extreme corners
    spec.doses = {cfg.dose_min, cfg.dose_max};
    spec.defocus_nm = {0.0, cfg.defocus_nm};
    return spec;
}

std::string golden_path(const std::string& name) {
    return std::string(CAMO_GOLDEN_DIR) + "/" + name + ".json";
}

void write_window_golden(const WindowGoldenCase& c, const WindowMetrics& wm) {
    std::ofstream out(golden_path(c.name));
    ASSERT_TRUE(out) << "cannot write " << golden_path(c.name);
    out << "{\n  \"name\": \"" << c.name << "\",\n";
    out << std::fixed << std::setprecision(3);
    out << "  \"pv_band_exact_nm2\": " << wm.pv_band_exact_nm2 << ",\n";
    out << "  \"pv_band_two_corner_nm2\": " << wm.pv_band_two_corner_nm2 << ",\n";
    out << "  \"cd_min_nm2\": " << wm.cd_min_nm2 << ",\n";
    out << "  \"cd_max_nm2\": " << wm.cd_max_nm2 << ",\n";
    out << "  \"corner_sum_abs_epe\": [";
    for (std::size_t i = 0; i < wm.corners.size(); ++i) {
        out << (i ? ", " : "") << std::setprecision(6) << wm.corners[i].metrics.sum_abs_epe;
    }
    out << "],\n  \"corner_printed_area_nm2\": [";
    for (std::size_t i = 0; i < wm.corners.size(); ++i) {
        out << (i ? ", " : "") << std::setprecision(3) << wm.corners[i].printed_area_nm2;
    }
    out << "]\n}\n";
}

bool read_scalar(const std::string& text, const std::string& key, double& out) {
    const auto pos = text.find("\"" + key + "\":");
    if (pos == std::string::npos) return false;
    out = std::strtod(text.c_str() + pos + key.size() + 3, nullptr);
    return true;
}

bool read_array(const std::string& text, const std::string& key, std::vector<double>& out) {
    const auto pos = text.find("\"" + key + "\":");
    if (pos == std::string::npos) return false;
    const auto open = text.find('[', pos);
    const auto close = text.find(']', open);
    if (open == std::string::npos || close == std::string::npos) return false;
    out.clear();
    const char* p = text.c_str() + open + 1;
    const char* end = text.c_str() + close;
    while (p < end) {
        char* next = nullptr;
        const double v = std::strtod(p, &next);
        if (next == p) break;
        out.push_back(v);
        p = next;
        while (p < end && (*p == ',' || *p == ' ' || *p == '\n')) ++p;
    }
    return true;
}

// Same rationale as the incremental goldens: cross-compiler float drift
// (FMA contraction, vectorization) needs looser bounds than path-vs-path.
constexpr double kGoldenEpeTolNm = 2e-3;
constexpr double kGoldenAreaTolNm2 = 64.0;

TEST_F(ProcessWindowTest, GoldenWindowMetrics) {
    const WindowSpec spec = golden_window_spec(sim_->config());
    for (const WindowGoldenCase& c : window_golden_cases()) {
        const WindowMetrics wm = sim_->evaluate(c.layout, c.offsets, spec);

        if (std::getenv("CAMO_REGEN_GOLDENS") != nullptr) {
            write_window_golden(c, wm);
            continue;
        }

        std::ifstream in(golden_path(c.name));
        ASSERT_TRUE(in) << "missing golden fixture " << golden_path(c.name)
                        << " (run with CAMO_REGEN_GOLDENS=1 to create)";
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();

        double pv_exact = 0.0;
        double pv_two = 0.0;
        double cd_min = 0.0;
        double cd_max = 0.0;
        std::vector<double> epe;
        std::vector<double> areas;
        ASSERT_TRUE(read_scalar(text, "pv_band_exact_nm2", pv_exact)) << c.name;
        ASSERT_TRUE(read_scalar(text, "pv_band_two_corner_nm2", pv_two)) << c.name;
        ASSERT_TRUE(read_scalar(text, "cd_min_nm2", cd_min)) << c.name;
        ASSERT_TRUE(read_scalar(text, "cd_max_nm2", cd_max)) << c.name;
        ASSERT_TRUE(read_array(text, "corner_sum_abs_epe", epe)) << c.name;
        ASSERT_TRUE(read_array(text, "corner_printed_area_nm2", areas)) << c.name;

        EXPECT_NEAR(wm.pv_band_exact_nm2, pv_exact, kGoldenAreaTolNm2) << c.name;
        EXPECT_NEAR(wm.pv_band_two_corner_nm2, pv_two, kGoldenAreaTolNm2) << c.name;
        EXPECT_NEAR(wm.cd_min_nm2, cd_min, kGoldenAreaTolNm2) << c.name;
        EXPECT_NEAR(wm.cd_max_nm2, cd_max, kGoldenAreaTolNm2) << c.name;
        ASSERT_EQ(wm.corners.size(), epe.size()) << c.name;
        ASSERT_EQ(wm.corners.size(), areas.size()) << c.name;
        for (std::size_t i = 0; i < wm.corners.size(); ++i) {
            const double tol =
                kGoldenEpeTolNm * static_cast<double>(std::max<std::size_t>(1, wm.corners[i].metrics.epe.size()));
            EXPECT_NEAR(wm.corners[i].metrics.sum_abs_epe, epe[i], tol)
                << c.name << " corner " << i;
            EXPECT_NEAR(wm.corners[i].printed_area_nm2, areas[i], kGoldenAreaTolNm2)
                << c.name << " corner " << i;
        }
    }
}

}  // namespace
}  // namespace camo::litho
