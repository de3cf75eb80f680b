// End-to-end tests of the CAMO engine: training reduces imitation loss,
// inference with the modulator drives EPE down, and the full pipeline is
// deterministic and serializable.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/timer.hpp"
#include "core/camo.hpp"
#include "opc/sraf.hpp"

namespace camo::core {
namespace {

class CamoTest : public ::testing::Test {
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

    static CamoConfig tiny_config() {
        CamoConfig cfg;
        cfg.policy.squish_size = 16;
        cfg.policy.embed_dim = 32;
        cfg.policy.rnn_hidden = 16;
        cfg.policy.rnn_layers = 2;
        cfg.policy.conv_base = 4;
        cfg.squish.size = 16;
        cfg.squish.window_nm = 500;
        cfg.phase1_epochs = 15;
        cfg.phase2_episodes = 1;
        cfg.seed = 5;
        return cfg;
    }

    static geo::SegmentedLayout via_layout(int x_shift = 0) {
        const int clip = 1000;
        const int lo = clip / 2 - 35 + x_shift;
        std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})};
        auto srafs = opc::insert_srafs(targets);
        return geo::SegmentedLayout(std::move(targets), {geo::FragmentStyle::kVia, 60},
                                    std::move(srafs), clip);
    }

    static opc::OpcOptions via_options() {
        opc::OpcOptions opt;
        opt.max_iterations = 10;
        opt.exit_epe_per_feature = 4.0;
        opt.initial_bias_nm = 3;
        return opt;
    }

    static litho::LithoSim* sim_;
};

litho::LithoSim* CamoTest::sim_ = nullptr;

TEST_F(CamoTest, ConfigMismatchThrows) {
    CamoConfig bad = tiny_config();
    bad.squish.size = 8;  // != policy.squish_size
    EXPECT_THROW(CamoEngine engine(bad), std::invalid_argument);
}

TEST_F(CamoTest, UntrainedWithModulatorStillImproves) {
    // The modulator alone turns a random policy into damped EPE feedback:
    // starting from the raw target (no bias), optimization must improve the
    // mask substantially.
    CamoEngine engine(tiny_config());
    opc::OpcOptions opt = via_options();
    opt.initial_bias_nm = 0;
    const auto res = engine.optimize(via_layout(), *sim_, opt);
    EXPECT_LT(res.final_metrics.sum_abs_epe, res.epe_history.front() * 0.7);
    EXPECT_EQ(res.epe_history.size(), static_cast<std::size_t>(res.iterations) + 1);
}

TEST_F(CamoTest, Phase1LossDecreases) {
    CamoEngine engine(tiny_config());
    const std::vector<geo::SegmentedLayout> clips = {via_layout()};
    const TrainStats stats = engine.train(clips, *sim_, via_options());
    ASSERT_EQ(stats.phase1_loss.size(), 15U);
    EXPECT_LT(stats.phase1_loss.back(), stats.phase1_loss.front());
    ASSERT_EQ(stats.phase2_reward.size(), 1U);
}

TEST_F(CamoTest, TrainedEngineMeetsEarlyExitOnTrainingClip) {
    CamoConfig cfg = tiny_config();
    cfg.phase1_epochs = 25;
    CamoEngine engine(cfg);
    const std::vector<geo::SegmentedLayout> clips = {via_layout()};
    (void)engine.train(clips, *sim_, via_options());

    const auto res = engine.optimize(clips[0], *sim_, via_options());
    // Early-exit rule: sum |EPE| / #vias < 4 nm.
    EXPECT_LT(res.final_metrics.sum_abs_epe, 3.0 * 4.0 + 6.0);
    EXPECT_LE(res.iterations, via_options().max_iterations);
}

TEST_F(CamoTest, ModulatorToggleChangesBehaviour) {
    CamoEngine engine(tiny_config());
    EXPECT_TRUE(engine.modulator_enabled());
    const auto with = engine.optimize(via_layout(), *sim_, via_options());
    engine.set_modulator_enabled(false);
    EXPECT_FALSE(engine.modulator_enabled());
    const auto without = engine.optimize(via_layout(), *sim_, via_options());
    // An untrained policy without modulation must do worse (paper Fig. 5).
    EXPECT_LE(with.final_metrics.sum_abs_epe, without.final_metrics.sum_abs_epe + 1e-9);
}

TEST_F(CamoTest, WeightsRoundtripPreservesInference) {
    const std::string path = testing::TempDir() + "camo_weights_it.bin";
    CamoEngine a(tiny_config());
    const std::vector<geo::SegmentedLayout> clips = {via_layout()};
    (void)a.train(clips, *sim_, via_options());
    a.save_weights(path);

    CamoConfig cfg_b = tiny_config();
    cfg_b.seed = 777;  // different init, must not matter after load
    CamoEngine b(cfg_b);
    ASSERT_TRUE(b.load_weights(path));

    const auto ra = a.optimize(clips[0], *sim_, via_options());
    const auto rb = b.optimize(clips[0], *sim_, via_options());
    EXPECT_EQ(ra.final_offsets, rb.final_offsets);
    std::remove(path.c_str());
}

TEST_F(CamoTest, RlOpcConfigDisablesCorrelationMachinery) {
    const CamoConfig base = tiny_config();
    const CamoConfig rlopc = make_rlopc_config(base);
    EXPECT_FALSE(rlopc.policy.use_gnn);
    EXPECT_FALSE(rlopc.policy.use_rnn);
    EXPECT_FALSE(rlopc.modulator.enabled);
    EXPECT_EQ(rlopc.name, "rl-opc");
    EXPECT_TRUE(base.policy.use_gnn);  // base untouched

    CamoEngine engine(rlopc);
    EXPECT_EQ(engine.name(), "rl-opc");
    const auto res = engine.optimize(via_layout(), *sim_, via_options());
    EXPECT_GE(res.iterations, 1);
}

TEST_F(CamoTest, EncodeStateShapes) {
    CamoEngine engine(tiny_config());
    const auto layout = via_layout();
    const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);
    const auto feats = engine.encode_state(layout, offsets);
    ASSERT_EQ(static_cast<int>(feats.size()), layout.num_segments());
    for (const auto& f : feats) EXPECT_EQ(f.shape(), (std::vector<int>{6, 16, 16}));
}

TEST_F(CamoTest, DeterministicInferenceAcrossRuns) {
    CamoEngine a(tiny_config());
    CamoEngine b(tiny_config());
    const auto layout = via_layout();
    const auto ra = a.optimize(layout, *sim_, via_options());
    const auto rb = b.optimize(layout, *sim_, via_options());
    EXPECT_EQ(ra.final_offsets, rb.final_offsets);
    EXPECT_EQ(ra.iterations, rb.iterations);
}

TEST_F(CamoTest, BatchedRuntimeIsAttributedPerClip) {
    // The via meets the per-point exit at once; the large square keeps
    // iterating. Each clip's runtime_s is its own work plus its node share
    // of every batched forward it joined, so the early exit costs less and
    // the per-clip values add up to the call's wall time.
    const CamoEngine engine(tiny_config());
    std::vector<geo::SegmentedLayout> layouts;
    layouts.push_back(via_layout());
    layouts.emplace_back(std::vector<geo::Polygon>{geo::Polygon::from_rect({300, 300, 700, 700})},
                         geo::FragmentOptions{geo::FragmentStyle::kVia, 60},
                         std::vector<geo::Polygon>{}, 1000);
    std::vector<litho::LithoSim> sims(layouts.size(), *sim_);
    opc::OpcOptions opt = via_options();
    opt.exit_epe_per_feature = 0.0;
    opt.exit_epe_per_point = 3.0;

    const Timer wall;
    const auto results = engine.infer_batch(layouts, sims, opt);
    const double wall_s = wall.seconds();

    ASSERT_EQ(results.size(), 2U);
    ASSERT_LT(results[0].iterations, results[1].iterations);
    EXPECT_GT(results[0].runtime_s, 0.0);
    EXPECT_LT(results[0].runtime_s, results[1].runtime_s);
    const double sum = results[0].runtime_s + results[1].runtime_s;
    EXPECT_LE(sum, wall_s);
    EXPECT_NEAR(sum, wall_s, 0.05 * wall_s);
}

}  // namespace
}  // namespace camo::core
