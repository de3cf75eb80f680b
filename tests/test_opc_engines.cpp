#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "core/camo.hpp"
#include "opc/ilt.hpp"
#include "opc/objective.hpp"
#include "opc/one_shot.hpp"
#include "opc/rule_engine.hpp"
#include "opc/sraf.hpp"
#include "rl/reward.hpp"

namespace camo::opc {
namespace {

class OpcEngineTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        litho::LithoConfig cfg;
        cfg.grid = 256;
        cfg.pixel_nm = 4.0;
        cfg.kernels_nominal = 6;
        cfg.kernels_defocus = 5;
        cfg.cache_dir = "";
        sim_ = new litho::LithoSim(cfg);
    }
    static void TearDownTestSuite() {
        delete sim_;
        sim_ = nullptr;
    }

    static geo::SegmentedLayout via_layout() {
        const int clip = 1000;
        const int lo = clip / 2 - 35;
        auto targets = std::vector<geo::Polygon>{geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})};
        auto srafs = insert_srafs(targets);
        return geo::SegmentedLayout(std::move(targets), {geo::FragmentStyle::kVia, 60},
                                    std::move(srafs), clip);
    }

    static litho::LithoSim* sim_;
};

litho::LithoSim* OpcEngineTest::sim_ = nullptr;

TEST_F(OpcEngineTest, RuleEngineReducesEpe) {
    RuleEngine engine;
    OpcOptions opt;
    opt.max_iterations = 8;
    opt.initial_bias_nm = 0;  // start from the raw target: large EPE
    const EngineResult res = engine.optimize(via_layout(), *sim_, opt);
    ASSERT_GE(res.epe_history.size(), 2U);
    EXPECT_LT(res.final_metrics.sum_abs_epe, res.epe_history.front() * 0.5);
    // Converged quality: around 1 nm per measure point.
    EXPECT_LT(res.final_metrics.sum_abs_epe, 6.0);
    EXPECT_EQ(res.iterations, 8);  // fixed recipe, no early exit by default
}

TEST_F(OpcEngineTest, RuleEngineEarlyExitStops) {
    RuleEngine engine({.gain = 0.6, .max_step_nm = 4, .early_exit = true});
    OpcOptions opt;
    opt.max_iterations = 10;
    opt.exit_epe_per_feature = 4.0;
    const EngineResult res = engine.optimize(via_layout(), *sim_, opt);
    EXPECT_LT(res.iterations, 10);
    EXPECT_LT(res.final_metrics.sum_abs_epe, 4.0 * 1.0 + 4.0);  // near the exit bound
}

TEST_F(OpcEngineTest, OneShotSingleIteration) {
    OneShotEngine engine;
    OpcOptions opt;
    const EngineResult res = engine.optimize(via_layout(), *sim_, opt);
    EXPECT_EQ(res.iterations, 1);
    EXPECT_EQ(res.epe_history.size(), 2U);
    // Improves over the initial mask but stays worse than the rule engine.
    EXPECT_LT(res.final_metrics.sum_abs_epe, res.epe_history.front());

    RuleEngine rule;
    OpcOptions ropt;
    ropt.max_iterations = 8;
    const EngineResult rres = rule.optimize(via_layout(), *sim_, ropt);
    EXPECT_LE(rres.final_metrics.sum_abs_epe, res.final_metrics.sum_abs_epe + 1e-9);
}

TEST_F(OpcEngineTest, TrajectoryRecordsActionsInActionSpace) {
    RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    OpcOptions opt;
    const rl::Trajectory traj = teacher.record_trajectory(via_layout(), *sim_, opt, 5);
    ASSERT_EQ(traj.steps.size(), 5U);
    const auto layout = via_layout();
    for (const rl::StepRecord& s : traj.steps) {
        EXPECT_EQ(static_cast<int>(s.actions.size()), layout.num_segments());
        EXPECT_EQ(static_cast<int>(s.offsets_before.size()), layout.num_segments());
        for (int a : s.actions) {
            EXPECT_GE(a, 0);
            EXPECT_LT(a, rl::kNumActions);
        }
    }
}

TEST_F(OpcEngineTest, TeacherMakesProgressUnderEveryObjective) {
    // The teacher record_trajectory labels with: the rule engine at the
    // action space's 2 nm clamp, run to a fixed count.
    RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    for (const rl::RewardMode mode : {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner}) {
        OpcOptions opt;
        opt.max_iterations = 5;
        opt.objective = mode;
        litho::LithoSim sim(*sim_);
        const EngineResult res = teacher.optimize(via_layout(), sim, opt);
        ASSERT_EQ(res.epe_history.size(), 6U);
        EXPECT_LT(res.epe_history.back(), res.epe_history.front())
            << "objective " << static_cast<int>(mode);
    }
}

TEST_F(OpcEngineTest, TrajectoryCostsOneEvaluationPerRecordedStep) {
    // The rollout's priming evaluation is step 0's state; each further
    // recorded state costs one evaluation, and the last move is not applied.
    RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    for (const rl::RewardMode mode : {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner}) {
        for (const int steps : {1, 2, 5}) {
            OpcOptions opt;
            opt.objective = mode;
            litho::LithoSim sim(*sim_);  // fresh counters
            const rl::Trajectory traj = teacher.record_trajectory(via_layout(), sim, opt, steps);
            EXPECT_EQ(traj.steps.size(), static_cast<std::size_t>(steps));
            EXPECT_EQ(sim.evaluate_count(), steps)
                << "objective " << static_cast<int>(mode) << ", " << steps << " steps";
        }
    }
}

TEST_F(OpcEngineTest, IltReducesContourLoss) {
    IltEngine ilt({.iterations = 10, .step = 4.0, .mask_steepness = 4.0, .resist_steepness = 40.0});
    const IltResult res = ilt.optimize(via_layout(), *sim_);
    EXPECT_LT(res.final_loss, res.initial_loss);
    EXPECT_EQ(res.loss_history.size(), 11U);
    EXPECT_GE(res.sum_abs_epe, 0.0);
}

TEST_F(OpcEngineTest, OneShotWindowObjectiveCarriesFinalSweep) {
    OneShotEngine engine;
    OpcOptions opt;
    opt.objective = rl::RewardMode::kWorstCorner;
    litho::LithoSim sim(*sim_);
    const EngineResult res = engine.optimize(via_layout(), sim, opt);
    EXPECT_EQ(res.iterations, 1);
    ASSERT_TRUE(res.final_window.has_value());
    EXPECT_EQ(res.final_window->corners.size(), 6U);  // standard window
    // The objective view reports the worst corner.
    EXPECT_EQ(res.final_metrics.sum_abs_epe, res.final_window->worst_epe);
    EXPECT_EQ(res.final_metrics.pvband_nm2, res.final_window->pv_band_exact_nm2);
    // Worst corner never beats nominal.
    ASSERT_NE(res.final_window->nominal_corner(), nullptr);
    EXPECT_GE(res.final_window->worst_epe,
              res.final_window->nominal_corner()->metrics.sum_abs_epe);
}

TEST_F(OpcEngineTest, TrajectoryUnderWindowObjectiveMatchesRuleEngine) {
    // Under a window objective the teacher acts on the worst-corner view:
    // its recorded states are the rule engine's offsets at the same clamp.
    RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    OpcOptions opt;
    opt.objective = rl::RewardMode::kWorstCorner;
    opt.max_iterations = 2;
    litho::LithoSim sim(*sim_);
    const rl::Trajectory traj = teacher.record_trajectory(via_layout(), sim, opt, 3);
    ASSERT_EQ(traj.steps.size(), 3U);
    for (const rl::StepRecord& s : traj.steps) {
        EXPECT_EQ(static_cast<int>(s.actions.size()), via_layout().num_segments());
        for (int a : s.actions) {
            EXPECT_GE(a, 0);
            EXPECT_LT(a, rl::kNumActions);
        }
    }
    const EngineResult res = teacher.optimize(via_layout(), sim, opt);
    EXPECT_EQ(traj.steps.back().offsets_before, res.final_offsets);
}

TEST_F(OpcEngineTest, IltWindowObjectiveReducesWorstCornerLoss) {
    const IltOptions base{.iterations = 8, .step = 4.0, .mask_steepness = 4.0,
                          .resist_steepness = 40.0};
    // Nominal path is byte-compatible with the legacy single-corner loss.
    IltEngine nominal(base);
    const IltResult nom = nominal.optimize(via_layout(), *sim_);
    EXPECT_LT(nom.final_loss, nom.initial_loss);
    EXPECT_EQ(nom.worst_corner_epe, 0.0);
    ASSERT_EQ(nom.corner_loss.size(), 1U);
    EXPECT_EQ(nom.corner_loss.front(), nom.final_loss);

    IltOptions wopt = base;
    wopt.objective = rl::RewardMode::kWorstCorner;
    IltEngine worst(wopt);
    const IltResult wres = worst.optimize(via_layout(), *sim_);
    EXPECT_LT(wres.final_loss, wres.initial_loss);
    EXPECT_EQ(wres.corner_loss.size(), 6U);  // standard window
    // final_loss is the max corner loss in worst mode.
    EXPECT_EQ(*std::max_element(wres.corner_loss.begin(), wres.corner_loss.end()),
              wres.final_loss);
    EXPECT_GT(wres.worst_corner_epe, 0.0);
    EXPECT_GE(wres.worst_corner_epe, wres.sum_abs_epe - 1e-9);

    IltOptions mean_opt = base;
    mean_opt.objective = rl::RewardMode::kWeightedCorner;
    IltEngine weighted(mean_opt);
    const IltResult mres = weighted.optimize(via_layout(), *sim_);
    EXPECT_LT(mres.final_loss, mres.initial_loss);
    ASSERT_EQ(mres.corner_loss.size(), 6U);
    // final_loss is the uniform mean of the corner losses.
    double corner_sum = 0.0;
    for (const double l : mres.corner_loss) corner_sum += l;
    EXPECT_EQ(mres.final_loss, corner_sum / 6.0);
}

// ---- Rollout core: every segment-moving engine steps through opc::Rollout.

core::CamoConfig tiny_camo_config() {
    core::CamoConfig cfg;
    cfg.policy.squish_size = 16;
    cfg.policy.embed_dim = 32;
    cfg.policy.rnn_hidden = 16;
    cfg.policy.rnn_layers = 2;
    cfg.policy.conv_base = 4;
    cfg.squish.size = 16;
    cfg.squish.window_nm = 500;
    return cfg;
}

void expect_same_metrics(const litho::SimMetrics& a, const litho::SimMetrics& b,
                         const std::string& ctx) {
    EXPECT_EQ(a.epe, b.epe) << ctx;
    EXPECT_EQ(a.epe_segment, b.epe_segment) << ctx;
    EXPECT_EQ(a.sum_abs_epe, b.sum_abs_epe) << ctx;
    EXPECT_EQ(a.pvband_nm2, b.pvband_nm2) << ctx;
}

// Every EngineResult field except runtime_s.
void expect_same_result(const EngineResult& a, const EngineResult& b, const std::string& ctx) {
    EXPECT_EQ(a.final_offsets, b.final_offsets) << ctx;
    expect_same_metrics(a.final_metrics, b.final_metrics, ctx);
    EXPECT_EQ(a.epe_history, b.epe_history) << ctx;
    EXPECT_EQ(a.pvb_history, b.pvb_history) << ctx;
    EXPECT_EQ(a.iterations, b.iterations) << ctx;
    ASSERT_EQ(a.final_window.has_value(), b.final_window.has_value()) << ctx;
    if (!a.final_window) return;
    const litho::WindowMetrics& wa = *a.final_window;
    const litho::WindowMetrics& wb = *b.final_window;
    ASSERT_EQ(wa.corners.size(), wb.corners.size()) << ctx;
    for (std::size_t c = 0; c < wa.corners.size(); ++c) {
        expect_same_metrics(wa.corners[c].metrics, wb.corners[c].metrics, ctx);
        EXPECT_EQ(wa.corners[c].printed_area_nm2, wb.corners[c].printed_area_nm2) << ctx;
    }
    EXPECT_EQ(wa.worst_corner, wb.worst_corner) << ctx;
    EXPECT_EQ(wa.worst_epe, wb.worst_epe) << ctx;
    EXPECT_EQ(wa.cd_min_nm2, wb.cd_min_nm2) << ctx;
    EXPECT_EQ(wa.cd_max_nm2, wb.cd_max_nm2) << ctx;
    EXPECT_EQ(wa.pv_band_exact_nm2, wb.pv_band_exact_nm2) << ctx;
    EXPECT_EQ(wa.pv_band_two_corner_nm2, wb.pv_band_two_corner_nm2) << ctx;
}

using EngineRun = std::function<EngineResult(const geo::SegmentedLayout&, litho::LithoSim&,
                                             const OpcOptions&)>;

TEST_F(OpcEngineTest, RolloutInvariantsHoldAtOptionExtremes) {
    struct Case {
        std::string name;
        OpcOptions opt;
        bool segment_free = false;
    };
    std::vector<Case> cases;
    const auto add = [&cases](std::string name, const std::function<void(OpcOptions&)>& edit,
                              bool segment_free = false) {
        OpcOptions opt;
        opt.max_iterations = 3;
        edit(opt);
        cases.push_back({std::move(name), opt, segment_free});
    };
    add("baseline", [](OpcOptions&) {});
    add("zero-iterations", [](OpcOptions& o) { o.max_iterations = 0; });
    add("zero-bound", [](OpcOptions& o) {
        o.max_total_offset_nm = 0;
        o.initial_bias_nm = 0;
    });
    add("bias-at-bound", [](OpcOptions& o) {
        o.max_total_offset_nm = 4;
        o.initial_bias_nm = -4;
    });
    add("immediate-exit", [](OpcOptions& o) {
        o.exit_epe_per_feature = 1e9;
        o.exit_epe_per_point = 1e9;
    });
    add("segment-free", [](OpcOptions&) {}, true);
    add("worst-corner", [](OpcOptions& o) {
        o.max_iterations = 2;
        o.objective = rl::RewardMode::kWorstCorner;
    });

    const core::CamoEngine camo(tiny_camo_config());
    const std::vector<std::pair<std::string, EngineRun>> engines = {
        {"rule",
         [](const geo::SegmentedLayout& l, litho::LithoSim& s, const OpcOptions& o) {
             return RuleEngine({.gain = 0.6, .max_step_nm = 4, .early_exit = true})
                 .optimize(l, s, o);
         }},
        {"one-shot",
         [](const geo::SegmentedLayout& l, litho::LithoSim& s, const OpcOptions& o) {
             return OneShotEngine().optimize(l, s, o);
         }},
        {"camo-infer",
         [&camo](const geo::SegmentedLayout& l, litho::LithoSim& s, const OpcOptions& o) {
             return camo.infer(l, s, o);
         }},
        {"camo-infer-batch",
         [&camo](const geo::SegmentedLayout& l, litho::LithoSim& s, const OpcOptions& o) {
             return std::move(camo.infer_batch({&l, 1}, {&s, 1}, o).front());
         }},
    };

    const geo::SegmentedLayout empty(std::vector<geo::Polygon>{},
                                     geo::FragmentOptions{geo::FragmentStyle::kVia, 60},
                                     std::vector<geo::Polygon>{}, 1000);
    for (const Case& c : cases) {
        const geo::SegmentedLayout layout = c.segment_free ? empty : via_layout();
        std::vector<EngineResult> camo_results;
        for (const auto& [engine, run] : engines) {
            const std::string ctx = c.name + " / " + engine;
            litho::LithoSim sim(*sim_);  // fresh counters
            const EngineResult res = run(layout, sim, c.opt);
            EXPECT_EQ(res.epe_history.size(), static_cast<std::size_t>(res.iterations) + 1) << ctx;
            EXPECT_EQ(res.pvb_history.size(), res.epe_history.size()) << ctx;
            EXPECT_EQ(sim.evaluate_count(), 1 + res.iterations) << ctx;
            EXPECT_EQ(static_cast<int>(res.final_offsets.size()), layout.num_segments()) << ctx;
            for (const int off : res.final_offsets) {
                EXPECT_LE(std::abs(off), c.opt.max_total_offset_nm) << ctx;
            }
            EXPECT_EQ(res.final_metrics.sum_abs_epe, res.epe_history.back()) << ctx;
            EXPECT_EQ(res.final_window.has_value(),
                      c.opt.objective != rl::RewardMode::kNominal && !c.segment_free)
                << ctx;
            if (engine != "one-shot") {
                EXPECT_LE(res.iterations, c.opt.max_iterations) << ctx;
            }
            if (c.name == "immediate-exit" && engine != "one-shot") {
                EXPECT_EQ(res.iterations, 0) << ctx;
            }
            if (c.segment_free && engine.starts_with("camo")) {
                EXPECT_EQ(res.iterations, 0) << ctx;
            }
            if (engine.starts_with("camo")) camo_results.push_back(res);
        }
        ASSERT_EQ(camo_results.size(), 2U);
        expect_same_result(camo_results[0], camo_results[1], c.name + " infer vs infer_batch");
    }
}

TEST_F(OpcEngineTest, EveryEngineRejectsOutOfBoundOffsetOptions) {
    const core::CamoEngine camo(tiny_camo_config());
    const geo::SegmentedLayout layout = via_layout();
    const std::vector<std::pair<std::string, std::function<void(const OpcOptions&)>>> engines = {
        {"rule", [&](const OpcOptions& o) {
             litho::LithoSim sim(*sim_);
             (void)RuleEngine().optimize(layout, sim, o);
         }},
        {"rule-trajectory", [&](const OpcOptions& o) {
             litho::LithoSim sim(*sim_);
             (void)RuleEngine().record_trajectory(layout, sim, o, 2);
         }},
        {"one-shot", [&](const OpcOptions& o) {
             litho::LithoSim sim(*sim_);
             (void)OneShotEngine().optimize(layout, sim, o);
         }},
        {"camo-infer", [&](const OpcOptions& o) {
             litho::LithoSim sim(*sim_);
             (void)camo.infer(layout, sim, o);
         }},
        {"camo-infer-batch", [&](const OpcOptions& o) {
             std::vector<litho::LithoSim> sims(1, *sim_);
             (void)camo.infer_batch({&layout, 1}, sims, o);
         }},
    };

    OpcOptions negative_bound;
    negative_bound.initial_bias_nm = 0;
    negative_bound.max_total_offset_nm = -1;
    OpcOptions bias_above;
    bias_above.initial_bias_nm = 26;  // default bound 25
    OpcOptions bias_below;
    bias_below.initial_bias_nm = -26;
    const std::vector<std::pair<OpcOptions, std::string>> bad = {
        {negative_bound, "max_total_offset_nm"},
        {bias_above, "initial_bias_nm"},
        {bias_below, "initial_bias_nm"},
    };
    for (const auto& [engine, run] : engines) {
        for (const auto& [opt, field] : bad) {
            try {
                run(opt);
                ADD_FAILURE() << engine << ": no throw for bad " << field;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                    << engine << ": " << e.what();
            }
        }
    }
}

TEST_F(OpcEngineTest, RolloutStepRejectsWrongMoveCount) {
    litho::LithoSim sim(*sim_);
    const geo::SegmentedLayout layout = via_layout();
    Rollout rollout(layout, sim, OpcOptions{});
    const std::vector<int> moves(static_cast<std::size_t>(layout.num_segments()) + 1, 0);
    EXPECT_THROW(rollout.step(moves), std::invalid_argument);
    EXPECT_EQ(rollout.iterations(), 0);
}

TEST_F(OpcEngineTest, RolloutNoMoveStepLeavesTheMaskClean) {
    // A step whose moves all clamp away (or are zero) dirties nothing: the
    // incremental evaluator serves it from the cache without a rebuild.
    litho::LithoSim sim(*sim_);
    const geo::SegmentedLayout layout = via_layout();
    OpcOptions opt;
    opt.max_total_offset_nm = 3;  // bias 3 sits on the bound
    Rollout rollout(layout, sim, opt);
    const double primed = rollout.metrics().sum_abs_epe;
    const long long fulls = sim.incremental_full_count();
    std::vector<int> moves(static_cast<std::size_t>(layout.num_segments()), 2);
    const Rollout::Before before = rollout.step(moves);
    EXPECT_EQ(sim.incremental_full_count(), fulls);
    EXPECT_EQ(std::vector<int>(rollout.offsets().begin(), rollout.offsets().end()),
              std::vector<int>(moves.size(), 3));
    EXPECT_EQ(before.metrics.sum_abs_epe, primed);
    EXPECT_EQ(rollout.iterations(), 1);
}

TEST(OpcExit, EarlyExitRules) {
    OpcOptions opt;
    opt.exit_epe_per_feature = 4.0;
    EXPECT_TRUE(should_exit_early(7.9, 2, 8, opt));   // 3.95 per via
    EXPECT_FALSE(should_exit_early(8.1, 2, 8, opt));  // 4.05 per via

    OpcOptions metal;
    metal.exit_epe_per_point = 1.0;
    EXPECT_TRUE(should_exit_early(63.0, 5, 64, metal));
    EXPECT_FALSE(should_exit_early(65.0, 5, 64, metal));

    OpcOptions off;
    EXPECT_FALSE(should_exit_early(0.0, 2, 8, off));  // both rules disabled
}

TEST(Sraf, IsolatedViaGetsFourBars) {
    const std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({500, 500, 570, 570})};
    const auto srafs = insert_srafs(targets);
    EXPECT_EQ(srafs.size(), 4U);
    for (const auto& bar : srafs) {
        EXPECT_GE(geo::rect_gap(bar.bbox(), targets[0].bbox()), 50);
    }
}

TEST(Sraf, CrowdedViasDropConflictingBars) {
    // Two vias 150 nm apart (edge to edge): bars between them must be
    // dropped by the clearance rule.
    const std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({500, 500, 570, 570}),
                                               geo::Polygon::from_rect({720, 500, 790, 570})};
    const auto srafs = insert_srafs(targets);
    EXPECT_LT(srafs.size(), 8U);
    for (const auto& bar : srafs) {
        for (const auto& t : targets) EXPECT_GE(geo::rect_gap(bar.bbox(), t.bbox()), 50);
        for (const auto& other : srafs) {
            if (&other == &bar) continue;
            EXPECT_GE(geo::rect_gap(bar.bbox(), other.bbox()), 50);
        }
    }
}

TEST(Reward, EquationThreeProperties) {
    // Improvement in both terms -> positive reward.
    EXPECT_GT(rl::step_reward(10.0, 5.0, 1000.0, 900.0), 0.0);
    // Pure EPE improvement of 50%: epe term ~ 0.5.
    EXPECT_NEAR(rl::step_reward(10.0, 5.0, 1000.0, 1000.0), 5.0 / 10.1, 1e-9);
    // Degradation -> negative.
    EXPECT_LT(rl::step_reward(5.0, 10.0, 1000.0, 1100.0), 0.0);
    // Zero PVB before: the PV term is skipped, no division by zero.
    const double r = rl::step_reward(10.0, 8.0, 0.0, 100.0);
    EXPECT_NEAR(r, 2.0 / 10.1, 1e-9);
    // Beta scales the PV term.
    const double r_b2 = rl::step_reward(10.0, 10.0, 1000.0, 500.0, {.epsilon = 0.1, .beta = 2.0});
    EXPECT_NEAR(r_b2, 1.0, 1e-9);
}

}  // namespace
}  // namespace camo::opc
