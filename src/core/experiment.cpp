#include "core/experiment.hpp"

#include <cstdlib>
#include <filesystem>

#include "common/file_io.hpp"
#include "common/logging.hpp"
#include "opc/sraf.hpp"

namespace camo::core {
namespace {

std::uint64_t fnv_mix(std::uint64_t h, long long v) { return fnv1a(h, &v, sizeof v); }

// Real-valued settings hash their bit pattern.
std::uint64_t fnv_mix_real(std::uint64_t h, double v) { return fnv1a(h, &v, sizeof v); }

}  // namespace

bool Experiment::full_scale() {
    const char* env = std::getenv("CAMO_BENCH_FULL");
    return env != nullptr && env[0] == '1';
}

litho::LithoConfig Experiment::litho_config() {
    litho::LithoConfig cfg;
    cfg.grid = 512;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 8;
    cfg.kernels_defocus = 6;
    cfg.cache_dir = "data";
    return cfg;
}

opc::OpcOptions Experiment::via_options() {
    opc::OpcOptions opt;
    opt.max_iterations = 10;
    opt.exit_epe_per_feature = 4.0;
    opt.initial_bias_nm = 3;
    return opt;
}

opc::OpcOptions Experiment::metal_options() {
    opc::OpcOptions opt;
    opt.max_iterations = 15;
    opt.exit_epe_per_point = 1.0;
    opt.initial_bias_nm = 0;
    return opt;
}

CamoConfig Experiment::via_camo_config() {
    CamoConfig cfg;
    cfg.name = "camo-via";
    cfg.seed = 7;
    cfg.teacher_biases = {3, 0, 8};
    if (full_scale()) {
        cfg.policy.squish_size = 128;  // paper: 128x128x6 via tensors
        cfg.squish.size = 128;
        cfg.phase1_epochs = 500;  // paper
        cfg.phase2_episodes = 8;
    } else {
        cfg.policy.squish_size = 32;
        cfg.squish.size = 32;
        cfg.phase1_epochs = 60;
        cfg.phase2_episodes = 0;
    }
    return cfg;
}

CamoConfig Experiment::metal_camo_config() {
    CamoConfig cfg;
    cfg.name = "camo-metal";
    cfg.seed = 11;
    cfg.teacher_biases = {0, 4};
    if (full_scale()) {
        cfg.policy.squish_size = 64;  // paper: 64x64x6 metal tensors
        cfg.squish.size = 64;
        cfg.phase1_epochs = 500;
        cfg.phase2_episodes = 8;
    } else {
        cfg.policy.squish_size = 32;
        cfg.squish.size = 32;
        cfg.phase1_epochs = 35;
        cfg.phase2_episodes = 0;
    }
    return cfg;
}

CamoConfig Experiment::via_rlopc_config() {
    CamoConfig cfg = make_rlopc_config(via_camo_config());
    cfg.phase1_epochs = cfg.phase1_epochs / 3;
    cfg.phase2_episodes = 0;
    return cfg;
}

CamoConfig Experiment::metal_rlopc_config() {
    CamoConfig cfg = make_rlopc_config(metal_camo_config());
    cfg.phase1_epochs = cfg.phase1_epochs / 3;
    cfg.phase2_episodes = 0;
    return cfg;
}

std::string Experiment::weights_path(const CamoConfig& cfg, const std::string& layer_tag,
                                     rl::RewardMode objective) {
    // Bumped whenever the trainer's update schedule or RNG derivation
    // changes (v2: data-parallel trainer — phase-2 lockstep waves +
    // per-(episode, clip) splitmix streams replaced the sequential shared
    // sampling RNG; v3: every weight-changing setting is hashed), so
    // weights cached by an older trainer are never silently served as if
    // the current trainer produced them.
    constexpr long long kTrainerSchemaVersion = 3;

    std::uint64_t h = kFnv1aBasis;
    h = fnv_mix(h, kTrainerSchemaVersion);
    // Nominal mode contributes nothing; window modes both hash AND tag the
    // name, keeping the distinction visible in data/ listings.
    std::string tag = layer_tag;
    if (objective != rl::RewardMode::kNominal) {
        h = fnv_mix(h, static_cast<long long>(objective));
        tag += std::string("-") + rl::reward_mode_name(objective);
    }
    h = fnv_mix(h, cfg.policy.squish_size);
    h = fnv_mix(h, cfg.policy.embed_dim);
    h = fnv_mix(h, cfg.policy.rnn_hidden);
    h = fnv_mix(h, cfg.policy.rnn_layers);
    h = fnv_mix(h, cfg.policy.conv_base);
    h = fnv_mix(h, cfg.policy.use_gnn ? 1 : 0);
    h = fnv_mix(h, cfg.policy.use_rnn ? 1 : 0);
    h = fnv_mix(h, static_cast<long long>(cfg.policy.seed));
    h = fnv_mix(h, cfg.phase1_epochs);
    h = fnv_mix(h, cfg.phase2_episodes);
    // Every other setting that reaches the trained weights: the optimizer,
    // the teacher rollouts, the graph, the reward, the modulator and the
    // squish window.
    h = fnv_mix_real(h, static_cast<double>(cfg.lr));
    h = fnv_mix_real(h, static_cast<double>(cfg.clip_norm));
    h = fnv_mix_real(h, static_cast<double>(cfg.weight_decay));
    h = fnv_mix(h, cfg.teacher_steps);
    h = fnv_mix_real(h, static_cast<double>(cfg.phase2_lr_scale));
    h = fnv_mix_real(h, cfg.graph_threshold_nm);
    h = fnv_mix_real(h, cfg.reward.epsilon);
    h = fnv_mix_real(h, cfg.reward.beta);
    h = fnv_mix_real(h, cfg.modulator.k);
    h = fnv_mix(h, cfg.modulator.n);
    h = fnv_mix_real(h, cfg.modulator.b);
    h = fnv_mix(h, cfg.modulator.enabled ? 1 : 0);
    h = fnv_mix(h, cfg.squish.window_nm);
    // phase1_batch changes the optimizer-step schedule, so it is part of the
    // key. train_workers is deliberately NOT hashed: the trainer's
    // fixed-order gradient reduction makes the trained weights bit-identical
    // at any worker count, so weights cached at one worker count serve
    // every other.
    h = fnv_mix(h, cfg.phase1_batch);
    h = fnv_mix(h, static_cast<long long>(cfg.teacher_biases.size()));
    for (int b : cfg.teacher_biases) h = fnv_mix(h, b);
    h = fnv_mix(h, static_cast<long long>(Experiment::kDatasetSeed));
    h = fnv_mix(h, static_cast<long long>(cfg.seed));
    return "data/weights_" + cfg.name + "_" + tag + "_" + std::to_string(h) + ".bin";
}

std::vector<geo::SegmentedLayout> fragment_via_clips(const std::vector<layout::Clip>& clips) {
    std::vector<geo::SegmentedLayout> out;
    out.reserve(clips.size());
    for (const layout::Clip& c : clips) {
        auto srafs = opc::insert_srafs(c.targets);
        out.emplace_back(c.targets, geo::FragmentOptions{geo::FragmentStyle::kVia, 60},
                         std::move(srafs), c.clip_nm);
    }
    return out;
}

std::vector<geo::SegmentedLayout> fragment_metal_clips(const std::vector<layout::Clip>& clips) {
    std::vector<geo::SegmentedLayout> out;
    out.reserve(clips.size());
    for (const layout::Clip& c : clips) {
        out.emplace_back(c.targets, geo::FragmentOptions{geo::FragmentStyle::kMetal, 60},
                         std::vector<geo::Polygon>{}, c.clip_nm);
    }
    return out;
}

bool ensure_trained(CamoEngine& engine, const std::vector<geo::SegmentedLayout>& train_clips,
                    litho::LithoSim& sim, const opc::OpcOptions& opt,
                    const std::string& cache_path) {
    if (!cache_path.empty() && file_exists(cache_path) && engine.load_weights(cache_path)) {
        log_info(engine.name() + ": loaded cached weights from " + cache_path);
        return true;
    }
    log_info(engine.name() + ": training (one-time, cached afterwards)");
    (void)engine.train(train_clips, sim, opt);
    if (!cache_path.empty()) {
        const std::filesystem::path parent = std::filesystem::path(cache_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        engine.save_weights(cache_path);
    }
    return false;
}

}  // namespace camo::core
