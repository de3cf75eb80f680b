// Bitwise equivalence / determinism suite for the data-parallel training
// runtime: teacher collection, phase-1 minibatch gradient reduction and
// phase-2 lockstep REINFORCE must produce byte-identical traces and weights
// at any train_workers value, degrade gracefully on degenerate inputs, and
// keep the weight cache compatible across worker counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/camo.hpp"
#include "core/experiment.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "litho/simulator.hpp"

namespace camo::core {
namespace {

litho::LithoConfig test_litho_config() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "";  // tests never touch the on-disk cache
    return cfg;
}

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

std::vector<geo::SegmentedLayout> small_via_clips(int count) {
    layout::ViaGenOptions gen;
    gen.clip_nm = 1000;
    gen.margin_nm = 200;
    gen.min_spacing_nm = 120;
    return fragment_via_clips(layout::via_batch_set(7, count, gen));
}

CamoConfig tiny_config() {
    CamoConfig cfg;
    cfg.policy.squish_size = 16;
    cfg.policy.embed_dim = 32;
    cfg.policy.rnn_hidden = 16;
    cfg.policy.rnn_layers = 2;
    cfg.policy.conv_base = 4;
    cfg.squish.size = 16;
    cfg.squish.window_nm = 500;
    cfg.phase1_epochs = 2;
    cfg.phase1_batch = 3;
    cfg.teacher_steps = 2;
    cfg.teacher_biases = {3, 0};
    cfg.phase2_episodes = 2;
    cfg.seed = 5;
    return cfg;
}

opc::OpcOptions short_opc_options(int bias = 3) {
    opc::OpcOptions opt;
    opt.max_iterations = 2;
    opt.initial_bias_nm = bias;
    return opt;
}

bool same_tensor_bytes(const nn::Tensor& a, const nn::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(float)) == 0;
}

bool same_double_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<char> file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

// Snapshot of all parameter value bytes, for before/after comparisons.
std::vector<nn::Tensor> weight_snapshot(CamoEngine& engine) {
    std::vector<nn::Tensor> out;
    for (nn::Parameter* p : engine.policy().params()) out.push_back(p->value);
    return out;
}

bool same_weights(CamoEngine& engine, const std::vector<nn::Tensor>& snapshot) {
    const auto params = engine.policy().params();
    if (params.size() != snapshot.size()) return false;
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (!same_tensor_bytes(params[i]->value, snapshot[i])) return false;
    }
    return true;
}

TEST(TrainingParallel, TeacherCollectionBitIdenticalAcrossWorkerCounts) {
    const auto clips = small_via_clips(3);
    litho::LithoSim sim(test_litho_config());
    const opc::OpcOptions opt = short_opc_options();

    CamoConfig cfg = tiny_config();
    cfg.train_workers = 1;
    CamoEngine serial(cfg);
    const Phase1Dataset ref = serial.collect_teacher_data(clips, sim, opt);

    // Canonical (clip, bias, step) gathering: clip-major, bias-minor
    // trajectories with provenance set, teacher_steps samples per job.
    ASSERT_EQ(ref.trajectories.size(), clips.size() * cfg.teacher_biases.size());
    for (std::size_t j = 0; j < ref.trajectories.size(); ++j) {
        const rl::Trajectory& traj = ref.trajectories[j];
        EXPECT_EQ(traj.clip_index, static_cast<int>(j / cfg.teacher_biases.size()));
        EXPECT_EQ(traj.initial_bias_nm,
                  cfg.teacher_biases[j % cfg.teacher_biases.size()]);
        EXPECT_EQ(traj.steps.size(), static_cast<std::size_t>(cfg.teacher_steps));
    }
    ASSERT_EQ(ref.samples.size(),
              ref.trajectories.size() * static_cast<std::size_t>(cfg.teacher_steps));

    for (int workers : {2, 8}) {
        cfg.train_workers = workers;
        CamoEngine parallel(cfg);
        litho::LithoSim par_sim(test_litho_config());
        const Phase1Dataset got = parallel.collect_teacher_data(clips, par_sim, opt);

        ASSERT_EQ(got.samples.size(), ref.samples.size()) << workers << " workers";
        for (std::size_t s = 0; s < ref.samples.size(); ++s) {
            EXPECT_EQ(got.samples[s].clip, ref.samples[s].clip) << "sample " << s;
            EXPECT_EQ(got.samples[s].actions, ref.samples[s].actions) << "sample " << s;
            ASSERT_EQ(got.samples[s].features.size(), ref.samples[s].features.size());
            for (std::size_t f = 0; f < ref.samples[s].features.size(); ++f) {
                EXPECT_TRUE(same_tensor_bytes(got.samples[s].features[f],
                                              ref.samples[s].features[f]))
                    << "sample " << s << " feature " << f << " at " << workers << " workers";
            }
        }
        EXPECT_EQ(got.action_weight, ref.action_weight);
        ASSERT_EQ(got.trajectories.size(), ref.trajectories.size());
        for (std::size_t j = 0; j < ref.trajectories.size(); ++j) {
            EXPECT_EQ(got.trajectories[j].clip_index, ref.trajectories[j].clip_index);
            EXPECT_EQ(got.trajectories[j].initial_bias_nm,
                      ref.trajectories[j].initial_bias_nm);
            ASSERT_EQ(got.trajectories[j].steps.size(), ref.trajectories[j].steps.size());
            for (std::size_t t = 0; t < ref.trajectories[j].steps.size(); ++t) {
                EXPECT_EQ(got.trajectories[j].steps[t].offsets_before,
                          ref.trajectories[j].steps[t].offsets_before);
                EXPECT_EQ(got.trajectories[j].steps[t].actions,
                          ref.trajectories[j].steps[t].actions);
            }
        }
    }
}

// The acceptance property: phase1_loss / phase2_reward traces and the
// serialized weight bytes are identical for train_workers in {1, 2, 8} on
// the via3 and metal24 fixtures.
TEST(TrainingParallel, TracesAndWeightBytesIdenticalAcrossWorkerCounts) {
    struct Fixture {
        const char* name;
        std::vector<geo::SegmentedLayout> clips;
        int bias;
    };
    const Fixture fixtures[] = {{"via3", {via3_layout()}, 3},
                                {"metal24", {metal24_layout()}, 0}};

    for (const Fixture& f : fixtures) {
        CamoConfig base = tiny_config();
        base.phase1_epochs = 1;
        base.phase2_episodes = 1;
        const opc::OpcOptions opt = short_opc_options(f.bias);

        TrainStats ref_stats;
        std::vector<char> ref_bytes;
        for (int workers : {1, 2, 8}) {
            CamoConfig cfg = base;
            cfg.train_workers = workers;
            CamoEngine engine(cfg);
            litho::LithoSim sim(test_litho_config());
            const TrainStats stats = engine.train(f.clips, sim, opt);

            const std::string path = testing::TempDir() + "train_parallel_" + f.name + "_" +
                                     std::to_string(workers) + ".bin";
            engine.save_weights(path);
            const std::vector<char> bytes = file_bytes(path);
            std::remove(path.c_str());
            ASSERT_FALSE(bytes.empty()) << f.name;

            for (double v : stats.phase1_loss) EXPECT_TRUE(std::isfinite(v)) << f.name;
            for (double v : stats.phase2_reward) EXPECT_TRUE(std::isfinite(v)) << f.name;

            if (workers == 1) {
                ref_stats = stats;
                ref_bytes = bytes;
                continue;
            }
            EXPECT_TRUE(same_double_bits(stats.phase1_loss, ref_stats.phase1_loss))
                << f.name << " phase1 trace diverged at " << workers << " workers";
            EXPECT_TRUE(same_double_bits(stats.phase2_reward, ref_stats.phase2_reward))
                << f.name << " phase2 trace diverged at " << workers << " workers";
            EXPECT_EQ(bytes, ref_bytes)
                << f.name << " weight bytes diverged at " << workers << " workers";
        }
    }
}

// Serial single-worker accumulation and the parallel per-sample-buffer
// reduction must agree bit for bit on one fixed minibatch (whole-epoch
// batch, one optimizer step).
TEST(TrainingParallel, SerialAndReducedGradientsGiveIdenticalStep) {
    const auto clips = small_via_clips(2);
    litho::LithoSim sim(test_litho_config());
    const opc::OpcOptions opt = short_opc_options();

    CamoConfig cfg = tiny_config();
    cfg.phase1_batch = 0;  // one whole-epoch minibatch -> exactly one step

    cfg.train_workers = 1;
    CamoEngine serial(cfg);
    cfg.train_workers = 4;
    CamoEngine parallel(cfg);

    const Phase1Dataset data = serial.collect_teacher_data(clips, sim, opt);
    ASSERT_GT(data.samples.size(), 1U);

    const double nll_serial = serial.run_phase1_epoch(data);
    const double nll_parallel = parallel.run_phase1_epoch(data);
    EXPECT_EQ(0, std::memcmp(&nll_serial, &nll_parallel, sizeof(double)));

    const auto ps = serial.policy().params();
    const auto pp = parallel.policy().params();
    ASSERT_EQ(ps.size(), pp.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_TRUE(same_tensor_bytes(ps[i]->value, pp[i]->value)) << "param " << i;
    }
}

// Fuzz the shape space: worker counts (including more workers than jobs),
// clip counts (including 0 and 1) and batch sizes (per-sample, odd,
// whole-epoch) all reproduce the single-worker trace and weights.
TEST(TrainingParallel, FuzzedWorkerClipAndBatchCounts) {
    litho::LithoSim sim(test_litho_config());

    for (int clip_count : {0, 1, 2}) {
        const auto clips = small_via_clips(clip_count);
        for (int batch : {1, 0}) {
            CamoConfig base = tiny_config();
            base.phase1_epochs = 1;
            base.phase1_batch = batch;
            base.teacher_steps = 1;
            base.phase2_episodes = 1;
            opc::OpcOptions opt = short_opc_options();
            opt.max_iterations = 1;

            TrainStats ref_stats;
            std::vector<nn::Tensor> ref_weights;
            for (int workers : {1, 3, 8}) {
                CamoConfig cfg = base;
                cfg.train_workers = workers;
                CamoEngine engine(cfg);
                litho::LithoSim run_sim(test_litho_config());
                const TrainStats stats = engine.train(clips, run_sim, opt);

                ASSERT_EQ(stats.phase1_loss.size(), 1U);
                ASSERT_EQ(stats.phase2_reward.size(), 1U);
                EXPECT_TRUE(std::isfinite(stats.phase1_loss[0]));
                EXPECT_TRUE(std::isfinite(stats.phase2_reward[0]));

                if (workers == 1) {
                    ref_stats = stats;
                    ref_weights = weight_snapshot(engine);
                    continue;
                }
                EXPECT_TRUE(same_double_bits(stats.phase1_loss, ref_stats.phase1_loss))
                    << "clips " << clip_count << " batch " << batch << " workers " << workers;
                EXPECT_TRUE(same_double_bits(stats.phase2_reward, ref_stats.phase2_reward))
                    << "clips " << clip_count << " batch " << batch << " workers " << workers;
                EXPECT_TRUE(same_weights(engine, ref_weights))
                    << "clips " << clip_count << " batch " << batch << " workers " << workers;
            }
        }
    }
}

// Degenerate training inputs return finite stats and leave the weights
// untouched (no optimizer step from empty data).
TEST(TrainingParallel, DegenerateInputsAreFiniteAndStepFree) {
    litho::LithoSim sim(test_litho_config());
    const opc::OpcOptions opt = short_opc_options();

    // Zero clips.
    {
        CamoConfig cfg = tiny_config();
        cfg.train_workers = 2;
        CamoEngine engine(cfg);
        const auto before = weight_snapshot(engine);
        const TrainStats stats = engine.train({}, sim, opt);
        ASSERT_EQ(stats.phase1_loss.size(), static_cast<std::size_t>(cfg.phase1_epochs));
        ASSERT_EQ(stats.phase2_reward.size(), static_cast<std::size_t>(cfg.phase2_episodes));
        for (double v : stats.phase1_loss) EXPECT_EQ(v, 0.0);
        for (double v : stats.phase2_reward) EXPECT_EQ(v, 0.0);
        EXPECT_TRUE(same_weights(engine, before)) << "zero clips must not step";
    }

    // Zero teacher trajectories (teacher_steps = 0): phase 1 is empty but
    // phase 2 still rolls out.
    {
        CamoConfig cfg = tiny_config();
        cfg.teacher_steps = 0;
        cfg.phase2_episodes = 0;
        CamoEngine engine(cfg);
        const auto before = weight_snapshot(engine);
        const TrainStats stats = engine.train(small_via_clips(1), sim, opt);
        for (double v : stats.phase1_loss) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_EQ(v, 0.0);
        }
        EXPECT_TRUE(same_weights(engine, before)) << "no teacher data must not step";
    }

    // A clip whose segment list is empty contributes nothing; training on
    // only such clips is finite and step-free, and a mixed set trains on
    // the real clip only (identical to training without the empty one).
    {
        const geo::SegmentedLayout empty({}, {geo::FragmentStyle::kVia, 60}, {}, 1000);
        ASSERT_EQ(empty.num_segments(), 0);

        CamoConfig cfg = tiny_config();
        CamoEngine engine(cfg);
        const auto before = weight_snapshot(engine);
        const TrainStats stats = engine.train({empty, empty}, sim, opt);
        for (double v : stats.phase1_loss) EXPECT_EQ(v, 0.0);
        for (double v : stats.phase2_reward) EXPECT_EQ(v, 0.0);
        EXPECT_TRUE(same_weights(engine, before));

        // Mixed: {empty, real} trains exactly like {real}.
        const auto real = small_via_clips(1);
        CamoEngine mixed(cfg);
        litho::LithoSim mixed_sim(test_litho_config());
        const TrainStats mixed_stats = mixed.train({empty, real[0]}, mixed_sim, opt);

        CamoEngine plain(cfg);
        litho::LithoSim plain_sim(test_litho_config());
        const TrainStats plain_stats = plain.train({real[0]}, plain_sim, opt);

        EXPECT_TRUE(same_double_bits(mixed_stats.phase1_loss, plain_stats.phase1_loss));
        for (double v : mixed_stats.phase2_reward) EXPECT_TRUE(std::isfinite(v));
    }
}

// Experiment::ensure_trained round-trip: weights trained at train_workers=8
// load under train_workers=1 (the cache key must not encode the worker
// count) and produce identical inference outputs.
TEST(TrainingParallel, EnsureTrainedRoundTripAcrossWorkerCounts) {
    const auto clips = small_via_clips(2);
    const opc::OpcOptions opt = short_opc_options();

    CamoConfig cfg8 = tiny_config();
    cfg8.phase1_epochs = 1;
    cfg8.phase2_episodes = 0;
    cfg8.name = "camo-rt";
    cfg8.train_workers = 8;
    CamoConfig cfg1 = cfg8;
    cfg1.train_workers = 1;

    // Cache-key compatibility assertion: the worker count must not change
    // the weights path (results are bit-identical, so the cache is shared).
    ASSERT_EQ(Experiment::weights_path(cfg8, "test"), Experiment::weights_path(cfg1, "test"));

    const std::string cache = testing::TempDir() + "rt_weights_roundtrip.bin";
    std::remove(cache.c_str());

    litho::LithoSim sim8(test_litho_config());
    CamoEngine trainer(cfg8);
    EXPECT_FALSE(ensure_trained(trainer, clips, sim8, opt, cache));  // trains + stores

    litho::LithoSim sim1(test_litho_config());
    CamoEngine loader(cfg1);
    EXPECT_TRUE(ensure_trained(loader, clips, sim1, opt, cache));  // loads the cache

    const auto r8 = trainer.infer(clips[0], sim8, opt);
    const auto r1 = loader.infer(clips[0], sim1, opt);
    EXPECT_EQ(r8.final_offsets, r1.final_offsets);
    EXPECT_EQ(r8.iterations, r1.iterations);
    EXPECT_EQ(0, std::memcmp(&r8.final_metrics.sum_abs_epe, &r1.final_metrics.sum_abs_epe,
                             sizeof(double)));
    std::remove(cache.c_str());
}

// The lockstep phase-2 trainer under a window objective: traces stay
// deterministic across worker counts with the window reward active.
TEST(TrainingParallel, WorstCornerPhase2IdenticalAcrossWorkerCounts) {
    const auto clips = small_via_clips(2);

    CamoConfig base = tiny_config();
    base.phase1_epochs = 1;
    base.phase2_episodes = 2;
    opc::OpcOptions opt = short_opc_options();
    opt.objective = rl::RewardMode::kWorstCorner;

    TrainStats ref;
    for (int workers : {1, 4}) {
        CamoConfig cfg = base;
        cfg.train_workers = workers;
        CamoEngine engine(cfg);
        litho::LithoSim sim(test_litho_config());
        const TrainStats stats = engine.train(clips, sim, opt);
        ASSERT_EQ(stats.phase2_reward.size(), 2U);
        for (double v : stats.phase2_reward) EXPECT_TRUE(std::isfinite(v));
        if (workers == 1) {
            ref = stats;
            continue;
        }
        EXPECT_TRUE(same_double_bits(stats.phase1_loss, ref.phase1_loss));
        EXPECT_TRUE(same_double_bits(stats.phase2_reward, ref.phase2_reward));
    }
}

}  // namespace
}  // namespace camo::core
