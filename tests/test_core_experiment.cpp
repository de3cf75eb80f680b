#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/experiment.hpp"

namespace camo::core {
namespace {

TEST(Experiment, ViaOptionsMatchPaperProtocol) {
    const auto opt = Experiment::via_options();
    EXPECT_EQ(opt.max_iterations, 10);
    EXPECT_DOUBLE_EQ(opt.exit_epe_per_feature, 4.0);
    EXPECT_DOUBLE_EQ(opt.exit_epe_per_point, 0.0);
    EXPECT_EQ(opt.initial_bias_nm, 3);
}

TEST(Experiment, MetalOptionsMatchPaperProtocol) {
    const auto opt = Experiment::metal_options();
    EXPECT_EQ(opt.max_iterations, 15);
    EXPECT_DOUBLE_EQ(opt.exit_epe_per_point, 1.0);
    EXPECT_DOUBLE_EQ(opt.exit_epe_per_feature, 0.0);
    EXPECT_EQ(opt.initial_bias_nm, 0);
}

TEST(Experiment, LithoConfigIsProductionScale) {
    const auto cfg = Experiment::litho_config();
    EXPECT_EQ(cfg.grid, 512);
    EXPECT_DOUBLE_EQ(cfg.pixel_nm, 4.0);
    EXPECT_DOUBLE_EQ(cfg.wavelength_nm, 193.0);
    EXPECT_DOUBLE_EQ(cfg.na, 1.35);
    // Full clip fits with wraparound margin.
    EXPECT_GE(cfg.clip_span_nm(), 2000.0);
}

TEST(Experiment, CamoConfigsConsistent) {
    for (const CamoConfig& cfg :
         {Experiment::via_camo_config(), Experiment::metal_camo_config()}) {
        EXPECT_EQ(cfg.squish.size, cfg.policy.squish_size);
        EXPECT_TRUE(cfg.policy.use_gnn);
        EXPECT_TRUE(cfg.policy.use_rnn);
        EXPECT_TRUE(cfg.modulator.enabled);
        EXPECT_FALSE(cfg.teacher_biases.empty());
        EXPECT_GT(cfg.phase1_epochs, 0);
    }
}

TEST(Experiment, RlOpcConfigsDisableCorrelation) {
    for (const CamoConfig& cfg :
         {Experiment::via_rlopc_config(), Experiment::metal_rlopc_config()}) {
        EXPECT_FALSE(cfg.policy.use_gnn);
        EXPECT_FALSE(cfg.policy.use_rnn);
        EXPECT_FALSE(cfg.modulator.enabled);
        EXPECT_EQ(cfg.name, "rl-opc");
    }
}

TEST(Experiment, WeightsPathDistinguishesConfigs) {
    const auto camo = Experiment::via_camo_config();
    const auto rlopc = Experiment::via_rlopc_config();
    EXPECT_NE(Experiment::weights_path(camo, "via"), Experiment::weights_path(rlopc, "via"));
    EXPECT_NE(Experiment::weights_path(camo, "via"), Experiment::weights_path(camo, "metal"));

    // Every setting that changes the trained weights moves the path.
    const std::vector<std::pair<const char*, void (*)(CamoConfig&)>> flips = {
        {"phase1_epochs", [](CamoConfig& c) { c.phase1_epochs += 1; }},
        {"phase2_episodes", [](CamoConfig& c) { c.phase2_episodes += 1; }},
        {"lr", [](CamoConfig& c) { c.lr *= 2.0F; }},
        {"clip_norm", [](CamoConfig& c) { c.clip_norm += 1.0F; }},
        {"weight_decay", [](CamoConfig& c) { c.weight_decay *= 2.0F; }},
        {"teacher_steps", [](CamoConfig& c) { c.teacher_steps += 1; }},
        {"phase2_lr_scale", [](CamoConfig& c) { c.phase2_lr_scale *= 2.0F; }},
        {"graph_threshold_nm", [](CamoConfig& c) { c.graph_threshold_nm += 10.0; }},
        {"reward.epsilon", [](CamoConfig& c) { c.reward.epsilon *= 2.0; }},
        {"reward.beta", [](CamoConfig& c) { c.reward.beta *= 2.0; }},
        {"modulator.k", [](CamoConfig& c) { c.modulator.k *= 2.0; }},
        {"modulator.n", [](CamoConfig& c) { c.modulator.n += 2; }},
        {"modulator.b", [](CamoConfig& c) { c.modulator.b += 1.0; }},
        {"modulator.enabled", [](CamoConfig& c) { c.modulator.enabled = !c.modulator.enabled; }},
        {"squish.window_nm", [](CamoConfig& c) { c.squish.window_nm += 100; }},
    };
    for (const auto& [field, flip] : flips) {
        CamoConfig changed = camo;
        flip(changed);
        EXPECT_NE(Experiment::weights_path(camo, "via"), Experiment::weights_path(changed, "via"))
            << field;
    }

    // The training reward mode is part of the key: a policy trained under
    // one objective must never be served to runs requesting another.
    // Nominal mode is the default.
    EXPECT_EQ(Experiment::weights_path(camo, "via"),
              Experiment::weights_path(camo, "via", rl::RewardMode::kNominal));
    EXPECT_NE(Experiment::weights_path(camo, "via"),
              Experiment::weights_path(camo, "via", rl::RewardMode::kWorstCorner));
    EXPECT_NE(Experiment::weights_path(camo, "via", rl::RewardMode::kWorstCorner),
              Experiment::weights_path(camo, "via", rl::RewardMode::kWeightedCorner));
    // The mode is visible in the filename, not just hashed.
    EXPECT_NE(Experiment::weights_path(camo, "via", rl::RewardMode::kWorstCorner)
                  .find("worst-corner"),
              std::string::npos);
}

TEST(Experiment, WeightsPathIndependentOfTrainWorkers) {
    // The data-parallel trainer's reduction contract makes trained weights
    // bit-identical at any worker count, so the cache key must NOT encode
    // train_workers: weights trained at one width serve every other.
    const auto base = Experiment::via_camo_config();
    for (int workers : {0, 1, 2, 8, 64}) {
        CamoConfig cfg = base;
        cfg.train_workers = workers;
        EXPECT_EQ(Experiment::weights_path(base, "via"), Experiment::weights_path(cfg, "via"))
            << workers << " workers";
    }

    // The minibatch size DOES change the optimizer-step schedule (and hence
    // the weights), so it is part of the key.
    CamoConfig batched = base;
    batched.phase1_batch = 8;
    EXPECT_NE(Experiment::weights_path(base, "via"), Experiment::weights_path(batched, "via"));
    CamoConfig epoch_batched = base;
    epoch_batched.phase1_batch = 0;
    EXPECT_NE(Experiment::weights_path(base, "via"),
              Experiment::weights_path(epoch_batched, "via"));
    EXPECT_NE(Experiment::weights_path(batched, "via"),
              Experiment::weights_path(epoch_batched, "via"));
}

TEST(Experiment, FragmentViaClipsIncludesSrafs) {
    const auto clips = layout::via_test_set(Experiment::kDatasetSeed);
    const auto layouts = fragment_via_clips({clips[0]});
    ASSERT_EQ(layouts.size(), 1U);
    EXPECT_EQ(layouts[0].num_segments(), static_cast<int>(clips[0].targets.size()) * 4);
    EXPECT_FALSE(layouts[0].srafs().empty());
}

TEST(Experiment, FragmentMetalClipsMatchesPointCounts) {
    const auto clips = layout::metal_test_set(Experiment::kDatasetSeed);
    const auto layouts = fragment_metal_clips(clips);
    const int expected[] = {64, 84, 88, 100, 106, 112, 116, 24, 72, 120};
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(static_cast<int>(layouts[static_cast<std::size_t>(i)].measure_points().size()),
                  expected[i])
            << clips[static_cast<std::size_t>(i)].name;
        EXPECT_TRUE(layouts[static_cast<std::size_t>(i)].srafs().empty());
    }
}

}  // namespace
}  // namespace camo::core
