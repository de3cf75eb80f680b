// CamoEngine: the paper's OPC system, tying together squish encoding, the
// segment graph, the correlation-aware policy network, the OPC-inspired
// modulator and REINFORCE training.
//
// Training is two-phase (paper Algorithm 1):
//   Phase 1 imitates 5-step trajectories recorded from the rule-based
//   engine (the Calibre stand-in): a cross-entropy / policy-gradient update
//   toward the teacher's actions.
//   Phase 2 runs modulated RL: actions are sampled from the elementwise
//   product of the policy output and the modulation vector, the reward is
//   Eq. (3), and the update is Eq. (7) on the *unmodulated* policy output.
//
// Inference picks argmax of the modulated probability per segment and stops
// on the paper's early-exit rules. Inference and phase 2 share one lockstep
// wave driver over opc::Rollout (one rollout per clip); they differ only in
// argmax vs sampling and in whether a reward and a gradient follow a step.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/modulator.hpp"
#include "core/policy.hpp"
#include "core/squish.hpp"
#include "nn/adam.hpp"
#include "opc/engine.hpp"
#include "opc/rule_engine.hpp"
#include "rl/reward.hpp"

namespace camo::rl {
class TrajStoreReader;
class TrajStoreWriter;
}  // namespace camo::rl

namespace camo::core {

struct CamoConfig {
    PolicyConfig policy;
    ModulatorConfig modulator;

    /// Base Eq. (3) parameters (epsilon, beta). The reward *mode* — nominal,
    /// worst-corner or weighted-corner — is per-run, carried by
    /// opc::OpcOptions::objective: under a window objective, phase-2 updates
    /// and inference both ride the window evaluate_incremental and score steps
    /// with rl::window_step_reward built from this base config.
    rl::RewardConfig reward;
    SquishOptions squish;  ///< squish.size must equal policy.squish_size
    double graph_threshold_nm = 250.0;

    /// Adam step size. The paper trains with SGD at lr 3e-4 over 500 GPU
    /// epochs; Adam (nn/adam.hpp) reaches the same imitation accuracy in far
    /// fewer CPU epochs because it rescales the small discriminative
    /// gradient component.
    float lr = 1e-3F;
    float clip_norm = 5.0F;  ///< global gradient-norm bound
    float weight_decay = 1e-4F;

    int phase1_epochs = 60;   ///< paper: 500 (quick default for CPU runs)
    int teacher_steps = 5;    ///< paper: five-step Calibre trajectories
    int phase2_episodes = 4;  ///< RL fine-tuning episodes over the train set

    /// Data-parallel training runtime: worker count for teacher-trajectory
    /// collection and minibatch gradient computation. 1 = serial in the
    /// calling thread; <= 0 = all hardware threads. Results (loss/reward
    /// traces and trained weights) are BIT-IDENTICAL at any value — each
    /// (clip, bias) collection job and each minibatch sample is computed
    /// independently on a per-worker simulator / policy replica and merged
    /// in canonical order (nn::reduce_in_order) — so this is a throughput
    /// knob only and deliberately not part of the weight-cache key.
    int train_workers = 1;

    /// Phase-1 minibatch size: samples whose gradients are accumulated
    /// (per-sample shadow buffers, fixed-order reduction) before each
    /// optimizer step. 1 = per-sample steps, the schedule the paper's SGD
    /// uses (and the serial-trainer behaviour of earlier revisions);
    /// <= 0 = one whole-epoch batch. Parallel speedup of a phase-1 epoch is
    /// bounded by this: samples within a minibatch run concurrently,
    /// minibatches are sequential because each one sees the weights the
    /// previous step produced.
    int phase1_batch = 1;

    /// Step-size multiplier for the REINFORCE phase. The per-step global
    /// reward gives poor per-segment credit assignment, so full-size
    /// updates can erase a good imitation policy in a few noisy episodes.
    float phase2_lr_scale = 0.2F;

    /// Initial biases for teacher trajectory collection. Multiple starts
    /// cover both over- and under-printed states (a single +3 nm start
    /// never visits negative-EPE states, leaving the policy blind there).
    /// Empty = use OpcOptions::initial_bias_nm only.
    std::vector<int> teacher_biases;

    std::string name = "camo";
    std::uint64_t seed = 1;
};

struct TrainStats {
    std::vector<double> phase1_loss;     ///< mean NLL per epoch
    std::vector<double> phase2_reward;   ///< mean step reward per episode
};

/// One phase-1 imitation sample: the squish features of the mask state a
/// teacher step observed and the action the teacher took per segment.
struct TeacherSample {
    int clip = 0;
    std::vector<nn::Tensor> features;
    std::vector<int> actions;
};

/// The phase-1 imitation dataset, the one input of run_phase1_epoch:
/// samples in canonical (clip, bias, step) order, per-clip segment graphs,
/// inverse-frequency action weights, and the raw teacher trajectories in
/// (clip, bias) job order (with provenance set). The samples are the
/// trajectories' steps, flattened in order. Built by
/// CamoEngine::collect_teacher_data or, from a packed trajectory store,
/// CamoEngine::load_teacher_data; the store is only its file format
/// (append_teacher_data writes it).
struct Phase1Dataset {
    std::vector<TeacherSample> samples;
    std::vector<Graph> graphs;  ///< indexed by clip
    std::array<float, rl::kNumActions> action_weight{};
    std::vector<rl::Trajectory> trajectories;
};

/// Serialize a dataset into a trajectory store: each trajectory is appended
/// in order with its steps' squish features (the samples, consumed in step
/// order). Does not flush. Throws std::invalid_argument when the sample
/// count is not the trajectories' step count, and whatever
/// TrajStoreWriter::append throws on a malformed record.
void append_teacher_data(const Phase1Dataset& data, rl::TrajStoreWriter& store);

class CamoEngine : public opc::Engine {
public:
    explicit CamoEngine(CamoConfig cfg);
    ~CamoEngine() override;

    [[nodiscard]] std::string name() const override { return cfg_.name; }

    opc::EngineResult optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                               const opc::OpcOptions& opt) override;

    /// Read-only inference: the same rollout as optimize() (modulated
    /// argmax, paper early-exit rules) but const w.r.t. the engine, so one
    /// trained snapshot can serve many batch workers concurrently — each
    /// worker must pass its own simulator (the incremental-evaluation cache
    /// inside LithoSim is per-instance, not shared). A wave of one through
    /// the same driver as infer_batch. Throws std::invalid_argument on
    /// out-of-bounds offset options (see opc::Rollout).
    [[nodiscard]] opc::EngineResult infer(const geo::SegmentedLayout& layout,
                                          litho::LithoSim& sim,
                                          const opc::OpcOptions& opt) const;

    /// Batched inference: roll all clips forward in lockstep waves — at each
    /// step, every clip still running contributes its node set to ONE
    /// batched policy evaluation (PolicyNetwork::infer_batch) instead of N
    /// single-clip forwards. Each clip needs its own simulator (`sims`, one
    /// per layout; the incremental cache is per-instance). Per-clip
    /// results — offsets, metrics, histories, iteration counts — are
    /// identical to running infer() per clip on the same backend; only
    /// runtime_s differs. It is the clip's own setup, encode, action-pick
    /// and litho time plus, for each batched forward it joined, the share
    /// of that forward proportional to its node count, so the per-clip
    /// values sum to the call's wall time.
    [[nodiscard]] std::vector<opc::EngineResult> infer_batch(
        std::span<const geo::SegmentedLayout> layouts, std::span<litho::LithoSim> sims,
        const opc::OpcOptions& opt) const;

    /// Two-phase training on a set of fragmented clips. Runs on the
    /// data-parallel training runtime (cfg.train_workers): teacher
    /// trajectories are collected in parallel over (clip, bias) jobs, and
    /// both phases accumulate per-sample gradients into detached buffers
    /// merged in canonical order before each optimizer step, so the returned
    /// traces and the trained weights are bit-identical at any worker count.
    /// Degenerate inputs (no clips, no teacher steps, clips without
    /// segments) yield finite zero stats and leave the weights untouched.
    TrainStats train(const std::vector<geo::SegmentedLayout>& clips, litho::LithoSim& sim,
                     const opc::OpcOptions& opt);

    /// Phase-1 teacher collection: record a rule-engine trajectory for every
    /// (clip, bias) job — clip-major, bias-minor — and encode each step's
    /// squish features. Jobs run in parallel on the training runtime, each
    /// on its own simulator copy (record_trajectory primes the incremental
    /// cache with a full rebuild, so results never depend on scheduling);
    /// per-worker results are merged in job order, so the dataset — and a
    /// store written from it by append_teacher_data — is bit-identical at
    /// any cfg.train_workers. Clips without segments contribute no jobs.
    Phase1Dataset collect_teacher_data(const std::vector<geo::SegmentedLayout>& clips,
                                       litho::LithoSim& sim, const opc::OpcOptions& opt);

    /// Shape of one segment's squish state tensor, {kSquishChannels, S, S}
    /// for this engine's squish size S: the feature dims a trajectory store
    /// of this engine's teacher data is written with.
    [[nodiscard]] std::array<std::uint32_t, 3> state_dims() const;

    /// Decode a packed trajectory store into a dataset, once: samples in
    /// store step order (the order collect_teacher_data gathered them),
    /// trajectories via TrajStoreReader::decode, and graphs and action
    /// weights derived as collection derives them, so training on the
    /// result is byte-identical to training on the collected dataset. The
    /// store is checked against `clips` first: its features must have this
    /// engine's state_dims(), and every state must reference a clip in
    /// range with that clip's segment count. Throws std::invalid_argument on any mismatch — a store is
    /// never silently trained against the wrong clip set. Every sample is
    /// held in RAM, as in the process that collected it.
    [[nodiscard]] Phase1Dataset load_teacher_data(
        const rl::TrajStoreReader& store,
        const std::vector<geo::SegmentedLayout>& clips) const;

    /// One phase-1 imitation epoch over the dataset (class-weighted NLL,
    /// minibatched per cfg.phase1_batch, per-sample gradients reduced in
    /// fixed order). Returns the epoch's mean NLL per node — finite (0.0)
    /// and step-free when the dataset is empty.
    double run_phase1_epoch(const Phase1Dataset& data);

    /// Toggle the modulator (paper Section 4.4 / Figure 5 ablation).
    void set_modulator_enabled(bool enabled) { cfg_.modulator.enabled = enabled; }
    [[nodiscard]] bool modulator_enabled() const { return cfg_.modulator.enabled; }

    void save_weights(const std::string& path) { policy_.save(path); }
    [[nodiscard]] bool load_weights(const std::string& path) { return policy_.load(path); }

    [[nodiscard]] PolicyNetwork& policy() { return policy_; }
    [[nodiscard]] const CamoConfig& config() const { return cfg_; }

    /// Per-node squish features of the mask state given by `offsets`.
    [[nodiscard]] std::vector<nn::Tensor> encode_state(const geo::SegmentedLayout& layout,
                                                       std::span<const int> offsets) const;

    /// The same features written into `out` (one tensor per segment),
    /// reusing its tensors' storage: the rollouts keep one such buffer per
    /// clip across iterations. Bit-identical to the returning overload.
    void encode_state(const geo::SegmentedLayout& layout, std::span<const int> offsets,
                      std::vector<nn::Tensor>& out) const;

private:
    CamoConfig cfg_;
    PolicyNetwork policy_;
    nn::Adam adam_;

    /// Lazily-built data-parallel training runtime: a thread pool plus one
    /// policy replica per worker (none when the resolved worker count is 1).
    /// Rebuilt if cfg_.train_workers changes between training calls.
    struct TrainRuntime;
    std::unique_ptr<TrainRuntime> train_rt_;
    TrainRuntime& train_runtime();

    /// One Adam step on the master, its per-element update on rt's pool.
    void optimizer_step(const TrainRuntime& rt);

    /// The inference wave driver behind infer and infer_batch: one rollout
    /// per clip, one batched forward per wave, modulated argmax actions.
    std::vector<opc::EngineResult> infer_waves(std::span<const geo::SegmentedLayout> layouts,
                                               std::span<litho::LithoSim> sims,
                                               const opc::OpcOptions& opt) const;

    /// One phase-2 lockstep REINFORCE episode: the inference wave driver
    /// with sampling — each wave, every running clip acts in parallel
    /// against its own simulator with a per-(episode, clip) splitmix RNG
    /// stream, is scored by Eq. (3) (window_step_reward under a window
    /// objective), and its Eq. (7) gradient is reduced in clip order before
    /// one optimizer step closes the wave. `clip_sims` (one per clip, shared
    /// across episodes) are re-primed with a full rebuild at episode start,
    /// so their carried-over caches never leak into results. Returns the
    /// episode's mean step reward.
    double run_phase2_episode(const std::vector<geo::SegmentedLayout>& clips,
                              const std::vector<Graph>& graphs,
                              std::vector<litho::LithoSim>& clip_sims,
                              const opc::OpcOptions& opt, int episode);
};

/// The RL-OPC baseline [12]: same training scheme, but per-segment
/// independent decisions (no GNN fusion, no RNN) and no modulator.
CamoConfig make_rlopc_config(const CamoConfig& base);

}  // namespace camo::core
