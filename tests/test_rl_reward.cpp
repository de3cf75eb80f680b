// Property-test suite for the Eq. (3) step reward and its window-aware
// extension (ISSUE 4): boundedness, no-op neutrality, sign consistency with
// the EPE / PV-band deltas, the explicit zero-PVB guard, non-finite input
// rejection, bitwise nominal-mode equivalence with the legacy reward, the
// incremental-vs-dense window-reward equivalence, and the end-to-end
// acceptance property that worst-corner-mode optimization beats nominal
// mode on worst-corner |EPE| at an equal step budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "litho/incremental.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"
#include "opc/objective.hpp"
#include "opc/rule_engine.hpp"
#include "rl/reward.hpp"

namespace camo::rl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Pure step_reward properties -------------------------------------------

TEST(StepReward, ZeroForNoOpSteps) {
    EXPECT_EQ(step_reward(0.0, 0.0, 0.0, 0.0), 0.0);
    EXPECT_EQ(step_reward(12.5, 12.5, 800.0, 800.0), 0.0);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const double epe = rng.uniform(0.0, 50.0);
        const double pvb = rng.uniform(0.0, 5000.0);
        EXPECT_EQ(step_reward(epe, epe, pvb, pvb), 0.0) << epe << " " << pvb;
    }
}

TEST(StepReward, SignConsistentWithDeltas) {
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        const double epe_b = rng.uniform(0.1, 40.0);
        const double pvb_b = rng.uniform(1.0, 4000.0);
        const double improve = rng.uniform(0.01, 0.9);
        // Both terms improve -> strictly positive reward.
        EXPECT_GT(step_reward(epe_b, epe_b * (1.0 - improve), pvb_b, pvb_b * (1.0 - improve)),
                  0.0);
        // Both terms worsen -> strictly negative reward.
        EXPECT_LT(step_reward(epe_b, epe_b * (1.0 + improve), pvb_b, pvb_b * (1.0 + improve)),
                  0.0);
    }
}

TEST(StepReward, BoundedAboveByPerfectStep) {
    // epe term < 1 (the improvement is at most |EPE_t| of |EPE_t| + eps) and
    // the PV term is at most beta, so r < 1 + beta for non-negative inputs.
    Rng rng(23);
    const RewardConfig cfg;
    for (int i = 0; i < 500; ++i) {
        const double r = step_reward(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                                     rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4), cfg);
        EXPECT_LT(r, 1.0 + cfg.beta);
    }
}

TEST(StepReward, BoundedBelowUnderBoundedDegradation) {
    // If one step can at most k-fold both metrics (true for bounded segment
    // moves), the reward is bounded below by (1 - k) * (1 + beta).
    Rng rng(29);
    const RewardConfig cfg;
    const double k = 3.0;
    for (int i = 0; i < 500; ++i) {
        const double epe_b = rng.uniform(0.01, 50.0);
        const double pvb_b = rng.uniform(0.5, 4000.0);
        const double r = step_reward(epe_b, epe_b * rng.uniform(0.0, k), pvb_b,
                                     pvb_b * rng.uniform(0.0, k), cfg);
        EXPECT_GE(r, (1.0 - k) * (1.0 + cfg.beta));
    }
}

TEST(StepReward, ZeroPvbGuardIsTaken) {
    // pvb_before == 0: the PV term vanishes instead of dividing by zero —
    // the reward equals the EPE term exactly, even when pvb_after > 0.
    const RewardConfig cfg;
    const double epe_term = (10.0 - 8.0) / (10.0 + cfg.epsilon);
    EXPECT_EQ(step_reward(10.0, 8.0, 0.0, 100.0), epe_term);
    EXPECT_EQ(step_reward(10.0, 8.0, 0.0, 0.0), epe_term);
    // Negative "band" (a sentinel upstream) must not produce a PV term
    // either: the guard is pvb_before > 0, not != 0.
    EXPECT_EQ(step_reward(10.0, 8.0, -1.0, 50.0), epe_term);
    EXPECT_TRUE(std::isfinite(step_reward(5.0, 5.0, 0.0, 1e9)));
}

TEST(StepReward, RejectsNonFiniteInputs) {
    const double nan = std::nan("");
    EXPECT_THROW((void)step_reward(nan, 1.0, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, nan, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, 1.0, nan, 1.0), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, 1.0, 1.0, nan), std::invalid_argument);
    EXPECT_THROW((void)step_reward(kInf, 1.0, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, -kInf, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, 1.0, kInf, 1.0), std::invalid_argument);
    // Degenerate configs are rejected like WindowSpec::validate rejects
    // degenerate windows.
    EXPECT_THROW((void)step_reward(1.0, 1.0, 1.0, 1.0, {.epsilon = 0.0}), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, 1.0, 1.0, 1.0, {.epsilon = nan}), std::invalid_argument);
    EXPECT_THROW((void)step_reward(1.0, 1.0, 1.0, 1.0, {.epsilon = 0.1, .beta = kInf}),
                 std::invalid_argument);
}

// ---- Window reward on synthetic sweeps -------------------------------------

litho::WindowMetrics synthetic_window(const std::vector<double>& corner_epe,
                                      double pv_exact, double pv_two_corner) {
    litho::WindowMetrics wm;
    wm.pv_band_exact_nm2 = pv_exact;
    wm.pv_band_two_corner_nm2 = pv_two_corner;
    for (std::size_t i = 0; i < corner_epe.size(); ++i) {
        litho::CornerResult c;
        // Corner 0 is the nominal (dose 1, best focus) corner.
        c.corner = {i == 0 ? 1.0 : 0.95 + 0.05 * static_cast<double>(i),
                    i == 0 ? 0.0 : 25.0};
        c.metrics.sum_abs_epe = corner_epe[i];
        c.metrics.epe = {corner_epe[i]};
        c.metrics.epe_segment = {corner_epe[i]};
        if (wm.worst_corner < 0 || corner_epe[i] > wm.worst_epe) {
            wm.worst_corner = static_cast<int>(i);
            wm.worst_epe = corner_epe[i];
        }
        wm.corners.push_back(std::move(c));
    }
    return wm;
}

TEST(WindowReward, NominalModeBitwiseEqualsLegacyReward) {
    Rng rng(31);
    WindowRewardConfig cfg;  // kNominal
    for (int i = 0; i < 200; ++i) {
        const double e_b = rng.uniform(0.0, 40.0);
        const double e_a = rng.uniform(0.0, 40.0);
        const double p_b = rng.uniform(0.0, 4000.0);
        const double p_a = rng.uniform(0.0, 4000.0);
        const auto before = synthetic_window({e_b, e_b * 1.7, e_b * 2.3}, p_b * 1.4, p_b);
        const auto after = synthetic_window({e_a, e_a * 1.5, e_a * 2.9}, p_a * 1.3, p_a);
        // Bitwise: the same function applied to the same doubles.
        EXPECT_EQ(window_step_reward(before, after, cfg),
                  step_reward(e_b, e_a, p_b, p_a, cfg.base))
            << e_b << " " << e_a;
    }
}

TEST(WindowReward, NominalModeFallsBackToExactBandWithoutStandardPlanes) {
    WindowRewardConfig cfg;
    const auto before = synthetic_window({10.0, 12.0}, 900.0, -1.0);
    const auto after = synthetic_window({8.0, 11.0}, 700.0, -1.0);
    EXPECT_EQ(window_step_reward(before, after, cfg),
              step_reward(10.0, 8.0, 900.0, 700.0, cfg.base));
}

TEST(WindowReward, WorstModeScoresWorstCornerAndExactBand) {
    WindowRewardConfig cfg;
    cfg.mode = RewardMode::kWorstCorner;
    const auto before = synthetic_window({5.0, 20.0, 8.0}, 1000.0, 600.0);
    const auto after = synthetic_window({5.0, 14.0, 8.0}, 900.0, 600.0);
    EXPECT_EQ(window_objective_epe(before, cfg), 20.0);
    EXPECT_EQ(window_objective_pvb(before, cfg), 1000.0);
    EXPECT_EQ(window_step_reward(before, after, cfg),
              step_reward(20.0, 14.0, 1000.0, 900.0, cfg.base));
    // Improving only the worst corner is rewarded even with the nominal
    // corner (and the two-corner band) unchanged.
    EXPECT_GT(window_step_reward(before, after, cfg), 0.0);
    // ... and is invisible to the nominal-mode reward.
    WindowRewardConfig nominal;
    EXPECT_EQ(window_step_reward(before, after, nominal),
              step_reward(5.0, 5.0, 600.0, 600.0, nominal.base));
}

TEST(WindowReward, WeightedModeAveragesCorners) {
    WindowRewardConfig cfg;
    cfg.mode = RewardMode::kWeightedCorner;
    const auto wm = synthetic_window({6.0, 12.0, 18.0}, 1200.0, 800.0);
    // The uniform mean over corners.
    EXPECT_DOUBLE_EQ(window_objective_epe(wm, cfg), 12.0);
    EXPECT_EQ(window_objective_pvb(wm, cfg), 1200.0);
}

TEST(WindowReward, ValidatesModeInputs) {
    const auto wm = synthetic_window({6.0, 12.0}, 100.0, 80.0);

    // Nominal mode demands the nominal corner.
    WindowRewardConfig nominal;
    litho::WindowMetrics off_nominal = synthetic_window({6.0, 12.0}, 100.0, 80.0);
    off_nominal.corners[0].corner.dose = 0.95;  // no (dose 1, best focus) corner left
    EXPECT_THROW((void)window_objective_epe(off_nominal, nominal), std::invalid_argument);

    // The objective view follows the same rules.
    EXPECT_THROW((void)opc::objective_view(off_nominal, nominal), std::invalid_argument);
    const litho::SimMetrics worst_view =
        opc::objective_view(wm, {.mode = RewardMode::kWorstCorner});
    EXPECT_EQ(worst_view.sum_abs_epe, 12.0);
    EXPECT_EQ(worst_view.pvband_nm2, 100.0);
}

// ---- Simulator-backed suites -----------------------------------------------

class WindowRewardSimTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        litho::LithoConfig cfg;
        cfg.grid = 256;
        cfg.pixel_nm = 4.0;
        cfg.kernels_nominal = 6;
        cfg.kernels_defocus = 5;
        cfg.cache_dir = "";  // tests never touch the on-disk cache
        sim_ = new litho::LithoSim(cfg);
    }
    static void TearDownTestSuite() {
        delete sim_;
        sim_ = nullptr;
    }
    static litho::LithoSim* sim_;
};

litho::LithoSim* WindowRewardSimTest::sim_ = nullptr;

// The via3 / metal24 fixtures of the process-window golden suite.
geo::SegmentedLayout via3_layout() {
    Rng rng(11);
    layout::ViaGenOptions opt;
    opt.clip_nm = 1000;
    opt.margin_nm = 250;
    opt.min_spacing_nm = 200;
    return geo::SegmentedLayout(layout::generate_via_clip(3, rng, opt),
                                {geo::FragmentStyle::kVia, 60}, {}, opt.clip_nm);
}

geo::SegmentedLayout metal24_layout() {
    Rng rng(12);
    layout::MetalGenOptions opt;
    opt.clip_nm = 1000;
    opt.margin_nm = 120;
    return geo::SegmentedLayout(layout::generate_metal_clip(24, rng, opt),
                                {geo::FragmentStyle::kMetal, 60}, {}, opt.clip_nm);
}

TEST_F(WindowRewardSimTest, IncrementalRewardMatchesDenseWithinContractEpsilon) {
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim_->config());
    WindowRewardConfig cfg;
    cfg.mode = RewardMode::kWorstCorner;

    int step_count = 0;
    for (const geo::SegmentedLayout& layout : {via3_layout(), metal24_layout()}) {
        litho::LithoSim inc_sim(*sim_);
        const int segments = layout.num_segments();
        std::vector<int> offsets(static_cast<std::size_t>(segments), 3);

        litho::WindowMetrics inc_prev =
            inc_sim.evaluate_incremental(layout, offsets, spec, litho::Refresh::kPrime);
        litho::WindowMetrics dense_prev = sim_->evaluate(layout, offsets, spec);
        Rng rng(97 + segments);

        for (int t = 0; t < 5; ++t) {
            // Random small move on ~8% of the segments.
            const int moves = std::max(1, segments / 12);
            for (int j = 0; j < moves; ++j) {
                const int i = rng.uniform_int(0, segments - 1);
                offsets[static_cast<std::size_t>(i)] = std::clamp(
                    offsets[static_cast<std::size_t>(i)] + rng.uniform_int(-2, 2), -15, 15);
            }
            const litho::WindowMetrics inc =
                inc_sim.evaluate_incremental(layout, offsets, spec, litho::Refresh::kUpdate);
            const litho::WindowMetrics dense = sim_->evaluate(layout, offsets, spec);

            const double r_inc = window_step_reward(inc_prev, inc, cfg);
            const double r_dense = window_step_reward(dense_prev, dense, cfg);

            // Propagate the documented incremental-contract tolerances
            // (litho/incremental.hpp) through Eq. (3): the EPE term divides
            // by (|EPE_t| + eps), the PV term by PVB_t.
            const double tol_epe = litho::kIncrementalEpeTolNm *
                                   static_cast<double>(inc_prev.corners[0].metrics.epe.size());
            const double tol_pvb =
                litho::kIncrementalPvbPixelSlack * 16.0;  // 4 nm pixels
            const double epe_b = std::min(window_objective_epe(inc_prev, cfg),
                                          window_objective_epe(dense_prev, cfg));
            const double pvb_b = std::min(window_objective_pvb(inc_prev, cfg),
                                          window_objective_pvb(dense_prev, cfg));
            double bound = 2.0 * tol_epe / (epe_b + cfg.base.epsilon);
            if (pvb_b > 0.0) bound += 2.0 * cfg.base.beta * tol_pvb / pvb_b;
            EXPECT_NEAR(r_inc, r_dense, 4.0 * bound + 1e-9)
                << "segments " << segments << " step " << t;

            inc_prev = inc;
            dense_prev = dense;
            ++step_count;
        }
        EXPECT_GT(inc_sim.incremental_hit_count(), 0);
    }
    EXPECT_EQ(step_count, 10);
}

TEST_F(WindowRewardSimTest, WorstCornerModeBeatsNominalAtEqualBudget) {
    // The acceptance property: on via3 and metal24, worst-corner-mode
    // optimization reaches a lower worst-corner |EPE| than nominal-mode at
    // an equal step budget. Fixed iteration count, no early exit, the same
    // rule engine — only the objective differs.
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim_->config());
    struct Fixture {
        const char* name;
        geo::SegmentedLayout layout;
        int bias;
    };
    const Fixture fixtures[] = {{"via3", via3_layout(), 3}, {"metal24", metal24_layout(), 0}};

    for (const Fixture& f : fixtures) {
        opc::OpcOptions opt;
        opt.max_iterations = 10;
        opt.initial_bias_nm = f.bias;

        opc::RuleEngine engine({.gain = 0.6, .max_step_nm = 2, .early_exit = false});

        litho::LithoSim nominal_sim(*sim_);
        opt.objective = RewardMode::kNominal;
        const opc::EngineResult nominal_res = engine.optimize(f.layout, nominal_sim, opt);
        EXPECT_FALSE(nominal_res.final_window.has_value()) << f.name;

        litho::LithoSim worst_sim(*sim_);
        opt.objective = RewardMode::kWorstCorner;
        const opc::EngineResult worst_res = engine.optimize(f.layout, worst_sim, opt);
        ASSERT_TRUE(worst_res.final_window.has_value()) << f.name;
        EXPECT_EQ(worst_res.iterations, nominal_res.iterations) << f.name;

        // Judge both final masks through the same dense sweep.
        const litho::WindowMetrics judged_nominal =
            sim_->evaluate(f.layout, nominal_res.final_offsets, spec);
        const litho::WindowMetrics judged_worst =
            sim_->evaluate(f.layout, worst_res.final_offsets, spec);
        EXPECT_LT(judged_worst.worst_epe, judged_nominal.worst_epe) << f.name;

        // The engine's own view agrees with the dense judgment within the
        // incremental contract.
        EXPECT_NEAR(worst_res.final_metrics.sum_abs_epe, judged_worst.worst_epe,
                    litho::kIncrementalEpeTolNm *
                        static_cast<double>(judged_worst.corners[0].metrics.epe.size()))
            << f.name;
    }
}

TEST_F(WindowRewardSimTest, NominalObjectiveIsBitIdenticalToLegacyLoop) {
    // The WindowObjective pass-through: a nominal-mode run must reproduce
    // the pre-window engine loop exactly (same evaluate_incremental calls,
    // same metrics), so downstream nominal results cannot drift.
    const geo::SegmentedLayout layout = via3_layout();
    opc::OpcOptions opt;
    opt.max_iterations = 6;
    opt.initial_bias_nm = 3;
    opc::RuleEngine engine({.gain = 0.6, .max_step_nm = 2, .early_exit = false});

    litho::LithoSim sim_a(*sim_);
    const opc::EngineResult res = engine.optimize(layout, sim_a, opt);

    // Hand-rolled legacy loop: prime + incremental updates, same protocol.
    litho::LithoSim sim_b(*sim_);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);
    litho::SimMetrics m = sim_b.evaluate_incremental(layout, offsets, litho::Refresh::kPrime);
    EXPECT_EQ(res.epe_history.front(), m.sum_abs_epe);
    for (int it = 0; it < opt.max_iterations; ++it) {
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            const double desired = -0.6 * m.epe_segment[i];
            const int step = std::clamp(static_cast<int>(std::lround(desired)), -2, 2);
            offsets[i] = std::clamp(offsets[i] + step, -opt.max_total_offset_nm,
                                    opt.max_total_offset_nm);
        }
        m = sim_b.evaluate_incremental(layout, offsets, litho::Refresh::kUpdate);
        EXPECT_EQ(res.epe_history[static_cast<std::size_t>(it) + 1], m.sum_abs_epe) << it;
        EXPECT_EQ(res.pvb_history[static_cast<std::size_t>(it) + 1], m.pvband_nm2) << it;
    }
    EXPECT_EQ(res.final_offsets, offsets);
    EXPECT_EQ(sim_a.evaluate_count(), sim_b.evaluate_count());
}

}  // namespace
}  // namespace camo::rl
