#include "core/camo.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "nn/grad_buffer.hpp"
#include "nn/softmax.hpp"
#include "obs/trace.hpp"
#include "opc/objective.hpp"
#include "rl/trajstore.hpp"
#include "runtime/thread_pool.hpp"

namespace camo::core {
namespace {

obs::MetricId collect_hist() {
    static const obs::MetricId id = obs::register_histogram("train.collect.ns");
    return id;
}
obs::MetricId teacher_samples_counter() {
    static const obs::MetricId id = obs::register_counter("train.teacher_samples");
    return id;
}
obs::MetricId phase1_epoch_hist() {
    static const obs::MetricId id = obs::register_histogram("train.phase1.epoch.ns");
    return id;
}
obs::MetricId phase2_episode_hist() {
    static const obs::MetricId id = obs::register_histogram("train.phase2.episode.ns");
    return id;
}
obs::MetricId phase2_wave_hist() {
    static const obs::MetricId id = obs::register_histogram("train.phase2.wave.ns");
    return id;
}
obs::MetricId reduce_hist() {
    static const obs::MetricId id = obs::register_histogram("train.reduce.ns");
    return id;
}
obs::MetricId reduction_counter() {
    static const obs::MetricId id = obs::register_counter("train.grad_reductions");
    return id;
}
obs::MetricId squish_hist() {
    static const obs::MetricId id = obs::register_histogram("core.squish.ns");
    return id;
}
obs::MetricId squish_windows_counter() {
    static const obs::MetricId id = obs::register_counter("core.squish.windows");
    return id;
}

obs::MetricId wave_clips_hist() {
    static const obs::MetricId id = obs::register_histogram("core.rollout.wave_clips");
    return id;
}
obs::MetricId exit_converged_counter() {
    static const obs::MetricId id = obs::register_counter("core.rollout.exit.converged");
    return id;
}
obs::MetricId exit_iteration_cap_counter() {
    static const obs::MetricId id = obs::register_counter("core.rollout.exit.iteration_cap");
    return id;
}
obs::MetricId exit_segment_free_counter() {
    static const obs::MetricId id = obs::register_counter("core.rollout.exit.segment_free");
    return id;
}

// One counter per action class, named after its offset move in nm
// (rl::action_to_move): core.action.move-2 ... core.action.move+2.
const std::array<obs::MetricId, rl::kNumActions>& action_counters() {
    static const std::array<obs::MetricId, rl::kNumActions> ids = [] {
        std::array<obs::MetricId, rl::kNumActions> out{};
        for (int a = 0; a < rl::kNumActions; ++a) {
            const int move = rl::action_to_move(a);
            std::string name = "core.action.move";
            if (move >= 0) name += '+';
            name += std::to_string(move);
            out[static_cast<std::size_t>(a)] = obs::register_counter(name);
        }
        return out;
    }();
    return ids;
}

// Per-segment offset moves (nm) of the chosen actions.
std::vector<int> action_moves(const std::vector<int>& actions) {
    std::vector<int> moves(actions.size());
    std::transform(actions.begin(), actions.end(), moves.begin(),
                   [](int a) { return rl::action_to_move(a); });
    return moves;
}

// Row `node` of an [n, kNumActions] logit tensor.
std::array<float, rl::kNumActions> logit_row(const nn::Tensor& logits, int node) {
    std::array<float, rl::kNumActions> row{};
    for (int a = 0; a < rl::kNumActions; ++a) row[static_cast<std::size_t>(a)] = logits.at(node, a);
    return row;
}

// Logit gradient of sum_i coef(i) * log pi(actions[i] | node i), on the
// unmodulated policy output: the update of both training phases.
template <typename Coef>
nn::Tensor policy_grad(const nn::Tensor& logits, std::span<const int> actions, const Coef& coef) {
    const int n = logits.dim(0);
    nn::Tensor dlogits({n, rl::kNumActions});
    for (int i = 0; i < n; ++i) {
        const auto g = nn::policy_logit_grad(logit_row(logits, i),
                                             actions[static_cast<std::size_t>(i)], coef(i));
        for (int a = 0; a < rl::kNumActions; ++a) dlogits.at(i, a) = g[static_cast<std::size_t>(a)];
    }
    return dlogits;
}

std::array<double, rl::kNumActions> node_probs(const nn::Tensor& logits, int node) {
    const auto p = nn::softmax(logit_row(logits, node));
    std::array<double, rl::kNumActions> out{};
    for (int a = 0; a < rl::kNumActions; ++a) out[static_cast<std::size_t>(a)] = p[static_cast<std::size_t>(a)];
    return out;
}

// Collection and store load both build a dataset the same way, so equal
// samples give equal datasets: new_dataset first, then the samples, then
// set_action_weights.
//
// An empty dataset with the per-clip segment graphs. They are built before
// any sample: built after the samples, they raised via-chip-serve's peak
// RSS by ~3 MB (~11%), through heap fragmentation.
Phase1Dataset new_dataset(const std::vector<geo::SegmentedLayout>& clips,
                          double graph_threshold_nm) {
    Phase1Dataset data;
    data.graphs.reserve(clips.size());
    for (const geo::SegmentedLayout& c : clips) {
        data.graphs.push_back(build_segment_graph(c, graph_threshold_nm));
    }
    return data;
}

// Inverse-frequency class weights from the samples' actions (teacher data
// is heavily skewed toward the no-move action once its trajectory
// converges).
void set_action_weights(Phase1Dataset& data) {
    std::array<long long, rl::kNumActions> action_count{};
    long long action_total = 0;
    for (const TeacherSample& s : data.samples) {
        for (int a : s.actions) {
            ++action_count[static_cast<std::size_t>(a)];
            ++action_total;
        }
    }
    for (int a = 0; a < rl::kNumActions; ++a) {
        const long long cnt = std::max(1LL, action_count[static_cast<std::size_t>(a)]);
        const double w = static_cast<double>(action_total) /
                         (static_cast<double>(rl::kNumActions) * static_cast<double>(cnt));
        data.action_weight[static_cast<std::size_t>(a)] = static_cast<float>(std::min(w, 20.0));
    }
}

std::vector<int> pick_actions(const nn::Tensor& logits, const std::vector<double>& epe_segment,
                              const ModulatorConfig& mod, Rng* rng) {
    const int n = logits.dim(0);
    std::vector<int> actions(static_cast<std::size_t>(n), 0);
    std::array<long long, rl::kNumActions> counts{};
    for (int i = 0; i < n; ++i) {
        auto probs = node_probs(logits, i);
        probs = modulate_probs(probs, epe_segment[static_cast<std::size_t>(i)], mod);
        int& action = actions[static_cast<std::size_t>(i)];
        if (rng != nullptr) {
            action = rng->sample_weighted(probs);
        } else {
            action = static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                                      probs.begin());
        }
        ++counts[static_cast<std::size_t>(action)];
    }
    const auto& counters = action_counters();
    for (std::size_t a = 0; a < counters.size(); ++a) obs::counter_add(counters[a], counts[a]);
    return actions;
}

// One clip of a lockstep rollout: its rollout, segment graph, action RNG
// (null = modulated argmax) and squish feature buffer, overwritten every
// step.
struct ClipRollout {
    opc::Rollout rollout;
    const Graph* graph = nullptr;
    Rng* rng = nullptr;
    std::vector<nn::Tensor> feats;
};

// The wave loop behind inference and phase-2 training (the DynaPlex
// SetAction(span<Trajectory>) shape). Before every wave a clip leaves for
// good, counted by reason, when it has no segments (the policy cannot run
// on an empty node set, so the primed metrics are final), after
// `max_iterations` steps, or when the paper's early-exit rules fire.
// `act(wave)` then advances every clip index in `wave` (ascending) by
// exactly one Rollout::step.
template <typename Act>
void run_waves(std::vector<ClipRollout>& clips, int max_iterations, const Act& act) {
    std::vector<std::size_t> wave;
    for (std::size_t c = 0; c < clips.size(); ++c) {
        if (clips[c].rollout.layout().num_segments() > 0) {
            wave.push_back(c);
        } else {
            obs::counter_add(exit_segment_free_counter());
        }
    }
    const auto leaves = [&](std::size_t c) {
        const opc::Rollout& r = clips[c].rollout;
        if (r.iterations() >= max_iterations) {
            obs::counter_add(exit_iteration_cap_counter());
            return true;
        }
        if (r.should_exit()) {
            obs::counter_add(exit_converged_counter());
            return true;
        }
        return false;
    };
    for (;;) {
        std::erase_if(wave, leaves);
        if (wave.empty()) return;
        obs::histogram_record(wave_clips_hist(), static_cast<long long>(wave.size()));
        act(std::span<const std::size_t>(wave));
    }
}

}  // namespace

CamoConfig make_rlopc_config(const CamoConfig& base) {
    CamoConfig cfg = base;
    cfg.policy.use_gnn = false;
    cfg.policy.use_rnn = false;
    cfg.modulator.enabled = false;
    cfg.name = "rl-opc";
    return cfg;
}

// Per-worker state of the data-parallel training runtime. Every job of a
// wave runs on one pack of the master's weights, made when the wave starts
// (after the previous optimizer step), on its worker's replica or, serially,
// on the master. A replica only holds a job's tape and gradients: its own
// weight values are never read, so nothing syncs them. The master's grads
// are only touched by the fixed-order fold, which runs by element range on
// the pool like the optimizer update.
struct CamoEngine::TrainRuntime {
    int workers = 1;
    std::unique_ptr<runtime::ThreadPool> pool;             ///< null when workers == 1
    std::vector<std::unique_ptr<PolicyNetwork>> replicas;  ///< one per worker when pooled

    /// What one epoch or episode keeps across its waves: a GradBuffer per
    /// job, whose storage is then swapped in and out of the grads, and the
    /// master's pack, rewritten in place every wave. Both go when the epoch
    /// or episode ends, so a trained engine holds neither.
    struct Waves {
        std::vector<nn::GradBuffer> buffers;
        std::shared_ptr<PackedWeights> weights;
    };

    /// The pool's fan-out for per-element work; empty (serial) without one.
    [[nodiscard]] nn::ForEachIndex for_each() const {
        if (!pool) return {};
        return [p = pool.get()](int n, const std::function<void(int)>& fn) {
            p->for_each_index(n, fn);
        };
    }

    /// Runs job(net, weights, k) for every k < count, where `weights` is
    /// master's current weights, repacked into waves.weights, and `net` the
    /// worker's replica (or master, serially); captures each job's gradient
    /// into waves.buffers[k], then folds the buffers into master's gradients
    /// in fixed order.
    template <typename Job>
    void run_and_reduce(PolicyNetwork& master, Waves& waves, std::size_t count, const Job& job) {
        // A new buffer gets its storage here, on the coordinating thread.
        // Allocated on first capture in a worker's malloc arena instead, it
        // raised the train benchmark's peak RSS by ~15 MB.
        std::vector<nn::GradBuffer>& buffers = waves.buffers;
        const std::size_t had = buffers.size();
        buffers.resize(count);
        for (std::size_t k = had; k < count; ++k) buffers[k].zeros_like(master.grads());
        master.repack(waves.weights);
        const std::shared_ptr<const PackedWeights> current = waves.weights;
        const auto run = [&](PolicyNetwork& net, std::size_t k) {
            job(net, current, k);
            buffers[k].capture(net.grads());
        };
        if (pool && count > 1) {
            pool->for_each_index(static_cast<int>(count), [&](int k) {
                const int w = pool->worker_index();
                run(*replicas[static_cast<std::size_t>(w < 0 ? 0 : w)],
                    static_cast<std::size_t>(k));
            });
        } else {
            for (std::size_t k = 0; k < count; ++k) run(master, k);
        }
        const obs::Span reduce_span("train.reduce", reduce_hist());
        obs::counter_add(reduction_counter());
        nn::reduce_in_order(buffers, master.grads(), for_each());
    }
};

CamoEngine::CamoEngine(CamoConfig cfg)
    : cfg_(std::move(cfg)),
      policy_(cfg_.policy),
      adam_(policy_.params(), nn::Adam::Options{.lr = cfg_.lr,
                                                .clip_norm = cfg_.clip_norm,
                                                .weight_decay = cfg_.weight_decay}) {
    if (cfg_.squish.size != cfg_.policy.squish_size) {
        throw std::invalid_argument("CamoEngine: squish.size != policy.squish_size");
    }
}

CamoEngine::~CamoEngine() = default;

CamoEngine::TrainRuntime& CamoEngine::train_runtime() {
    int workers = cfg_.train_workers;
    if (workers <= 0) workers = runtime::ThreadPool::default_threads();
    if (!train_rt_ || train_rt_->workers != workers) {
        auto rt = std::make_unique<TrainRuntime>();
        rt->workers = workers;
        if (workers > 1) {
            rt->pool = std::make_unique<runtime::ThreadPool>(workers);
            rt->replicas.reserve(static_cast<std::size_t>(workers));
            for (int i = 0; i < workers; ++i) {
                rt->replicas.push_back(
                    std::make_unique<PolicyNetwork>(cfg_.policy, /*init_weights=*/false));
            }
        }
        train_rt_ = std::move(rt);
    }
    return *train_rt_;
}

void CamoEngine::optimizer_step(const TrainRuntime& rt) {
    adam_.step(rt.for_each());
    // Adam mutates weights through Parameter pointers captured at
    // construction; the packed inference plan cannot see that, so stale it
    // explicitly.
    policy_.invalidate_plan();
}

std::vector<nn::Tensor> CamoEngine::encode_state(const geo::SegmentedLayout& layout,
                                                 std::span<const int> offsets) const {
    std::vector<nn::Tensor> feats;
    encode_state(layout, offsets, feats);
    return feats;
}

void CamoEngine::encode_state(const geo::SegmentedLayout& layout, std::span<const int> offsets,
                              std::vector<nn::Tensor>& out) const {
    const obs::Span span("core.squish", squish_hist());
    std::vector<geo::Polygon> mask = layout.reconstruct_mask(offsets);
    mask.insert(mask.end(), layout.srafs().begin(), layout.srafs().end());
    std::vector<geo::FPoint> centers;
    centers.reserve(layout.segments().size());
    for (const geo::Segment& s : layout.segments()) centers.push_back(s.control());
    encode_squish_windows(mask, layout.targets(), centers, cfg_.squish, out);
    obs::counter_add(squish_windows_counter(), static_cast<long long>(centers.size()));
}

opc::EngineResult CamoEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                       const opc::OpcOptions& opt) {
    return infer(layout, sim, opt);
}

opc::EngineResult CamoEngine::infer(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                    const opc::OpcOptions& opt) const {
    return std::move(infer_waves({&layout, 1}, {&sim, 1}, opt).front());
}

std::vector<opc::EngineResult> CamoEngine::infer_batch(
    std::span<const geo::SegmentedLayout> layouts, std::span<litho::LithoSim> sims,
    const opc::OpcOptions& opt) const {
    if (sims.size() != layouts.size()) {
        throw std::invalid_argument("CamoEngine::infer_batch: one simulator per clip required");
    }
    return infer_waves(layouts, sims, opt);
}

std::vector<opc::EngineResult> CamoEngine::infer_waves(
    std::span<const geo::SegmentedLayout> layouts, std::span<litho::LithoSim> sims,
    const opc::OpcOptions& opt) const {
    const std::size_t count = layouts.size();
    // Per-clip time accounting: every lap of this clock is charged to the
    // clip that ran in it, or split over a batched forward's clips by node
    // count, so the per-clip runtimes sum to the call's wall time.
    Timer lap;
    const auto take_lap = [&lap] {
        const double s = lap.seconds();
        lap.reset();
        return s;
    };

    std::vector<Graph> graphs;
    graphs.reserve(count);
    std::vector<ClipRollout> clips;
    clips.reserve(count);
    std::vector<double> runtime(count, 0.0);
    for (std::size_t c = 0; c < count; ++c) {
        // The rollout primes the clip's simulator before the first wave.
        opc::Rollout rollout(layouts[c], sims[c], opt, cfg_.reward);
        graphs.push_back(build_segment_graph(layouts[c], cfg_.graph_threshold_nm));
        clips.push_back(
            {.rollout = std::move(rollout), .graph = &graphs.back(), .rng = nullptr, .feats = {}});
        runtime[c] = take_lap();
    }

    std::vector<PolicyNetwork::ClipRequest> requests;
    run_waves(clips, opt.max_iterations, [&](std::span<const std::size_t> wave) {
        // Every clip of the wave encodes its state; ONE batched forward
        // then serves them all (clip order, deterministic).
        requests.clear();
        std::size_t wave_nodes = 0;
        for (const std::size_t c : wave) {
            ClipRollout& clip = clips[c];
            encode_state(clip.rollout.layout(), clip.rollout.offsets(), clip.feats);
            requests.push_back({&clip.feats, clip.graph});
            wave_nodes += clip.feats.size();
            runtime[c] += take_lap();
        }
        const std::vector<nn::Tensor> logits = policy_.infer_batch(requests);
        const double forward_s = take_lap();
        for (std::size_t r = 0; r < wave.size(); ++r) {
            const std::size_t c = wave[r];
            ClipRollout& clip = clips[c];
            const auto actions = pick_actions(logits[r], clip.rollout.metrics().epe_segment,
                                              cfg_.modulator, nullptr);
            clip.rollout.step(action_moves(actions));
            runtime[c] += forward_s * static_cast<double>(clip.feats.size()) /
                              static_cast<double>(wave_nodes) +
                          take_lap();
        }
    });

    std::vector<opc::EngineResult> results;
    results.reserve(count);
    for (std::size_t c = 0; c < count; ++c) results.push_back(clips[c].rollout.finish(runtime[c]));
    return results;
}

void append_teacher_data(const Phase1Dataset& data, rl::TrajStoreWriter& store) {
    std::size_t steps = 0;
    for (const rl::Trajectory& traj : data.trajectories) steps += traj.steps.size();
    if (steps != data.samples.size()) {
        throw std::invalid_argument("append_teacher_data: " + std::to_string(data.samples.size()) +
                                    " samples for " + std::to_string(steps) +
                                    " trajectory steps");
    }
    auto sample = data.samples.begin();
    std::vector<std::span<const nn::Tensor>> step_feats;
    for (const rl::Trajectory& traj : data.trajectories) {
        step_feats.clear();
        for (std::size_t t = 0; t < traj.steps.size(); ++t, ++sample) {
            step_feats.emplace_back(sample->features);
        }
        store.append(traj, step_feats);
    }
}

Phase1Dataset CamoEngine::collect_teacher_data(const std::vector<geo::SegmentedLayout>& clips,
                                               litho::LithoSim& sim, const opc::OpcOptions& opt) {
    const obs::Span span("train.collect", collect_hist());
    Phase1Dataset data = new_dataset(clips, cfg_.graph_threshold_nm);
    std::vector<int> biases = cfg_.teacher_biases;
    if (biases.empty()) biases.push_back(opt.initial_bias_nm);

    // Canonical job order: clip-major, bias-minor. The gathered dataset is a
    // pure function of this order, never of which worker ran which job.
    // Segment-free clips produce no (state, action) pairs — skipping them
    // here keeps degenerate training inputs finite instead of feeding the
    // policy an empty node set.
    struct Job {
        int clip = 0;
        int bias = 0;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < clips.size(); ++c) {
        if (clips[c].num_segments() == 0) continue;
        for (int bias : biases) jobs.push_back({static_cast<int>(c), bias});
    }

    const opc::RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    std::vector<std::vector<TeacherSample>> per_job(jobs.size());
    data.trajectories.resize(jobs.size());

    // record_trajectory primes the simulator's incremental cache with a full
    // rebuild, so a job's result depends only on (clip, bias) — identical
    // whether jobs share one simulator serially or run on per-worker copies.
    const auto run_job = [&](litho::LithoSim& job_sim, int j) {
        const Job& job = jobs[static_cast<std::size_t>(j)];
        opc::OpcOptions teacher_opt = opt;
        teacher_opt.initial_bias_nm = job.bias;
        rl::Trajectory traj = teacher.record_trajectory(clips[static_cast<std::size_t>(job.clip)],
                                                        job_sim, teacher_opt, cfg_.teacher_steps);
        traj.clip_index = job.clip;
        traj.initial_bias_nm = job.bias;
        auto& samples = per_job[static_cast<std::size_t>(j)];
        samples.reserve(traj.steps.size());
        for (const rl::StepRecord& step : traj.steps) {
            TeacherSample s;
            s.clip = job.clip;
            s.features = encode_state(clips[static_cast<std::size_t>(job.clip)],
                                      step.offsets_before);
            s.actions = step.actions;
            samples.push_back(std::move(s));
        }
        data.trajectories[static_cast<std::size_t>(j)] = std::move(traj);
    };

    TrainRuntime& rt = train_runtime();
    if (rt.pool && jobs.size() > 1) {
        // Per-worker simulator copies share the immutable kernel set.
        std::vector<litho::LithoSim> worker_sims(static_cast<std::size_t>(rt.workers), sim);
        rt.pool->for_each_index(static_cast<int>(jobs.size()), [&](int j) {
            const int w = rt.pool->worker_index();
            run_job(worker_sims[static_cast<std::size_t>(w < 0 ? 0 : w)], j);
        });
    } else {
        for (std::size_t j = 0; j < jobs.size(); ++j) run_job(sim, static_cast<int>(j));
    }

    for (std::vector<TeacherSample>& job_samples : per_job) {
        for (TeacherSample& s : job_samples) data.samples.push_back(std::move(s));
    }
    set_action_weights(data);
    obs::counter_add(teacher_samples_counter(), static_cast<long long>(data.samples.size()));
    return data;
}

std::array<std::uint32_t, 3> CamoEngine::state_dims() const {
    const auto size = static_cast<std::uint32_t>(cfg_.squish.size);
    return {static_cast<std::uint32_t>(kSquishChannels), size, size};
}

Phase1Dataset CamoEngine::load_teacher_data(const rl::TrajStoreReader& store,
                                            const std::vector<geo::SegmentedLayout>& clips) const {
    const auto dims = store.feature_dims();
    if (dims != state_dims()) {
        std::string msg = "load_teacher_data: store feature shape ";
        msg += std::to_string(dims[0]) + "x" + std::to_string(dims[1]) + "x" +
               std::to_string(dims[2]) + " is not the configured squish shape " +
               std::to_string(kSquishChannels) + "x" + std::to_string(cfg_.squish.size) + "x" +
               std::to_string(cfg_.squish.size);
        throw std::invalid_argument(msg);
    }
    // Every stored state must land on a clip we were handed, with a matching
    // segment count — catches a store loaded against the wrong clip set
    // even when the caller forgot to check dataset_tag.
    for (std::uint64_t id = 0; id < store.state_count(); ++id) {
        const rl::TrajStoreReader::StateView st = store.state(id);
        if (st.clip_index < 0 || static_cast<std::size_t>(st.clip_index) >= clips.size()) {
            throw std::invalid_argument("load_teacher_data: state " + std::to_string(id) +
                                        " references clip " + std::to_string(st.clip_index) +
                                        " but only " + std::to_string(clips.size()) +
                                        " clips were provided");
        }
        const auto segs = static_cast<std::size_t>(
            clips[static_cast<std::size_t>(st.clip_index)].num_segments());
        if (st.offsets.size() != segs) {
            throw std::invalid_argument(
                "load_teacher_data: state " + std::to_string(id) + " has " +
                std::to_string(st.offsets.size()) + " segments but clip " +
                std::to_string(st.clip_index) + " has " + std::to_string(segs));
        }
    }

    // Sample index == store step index: trajectory step ranges tile the step
    // table contiguously in append order (validated on open), and append
    // order is the canonical job order.
    Phase1Dataset data = new_dataset(clips, cfg_.graph_threshold_nm);
    const std::vector<int> shape{kSquishChannels, cfg_.squish.size, cfg_.squish.size};
    const std::size_t numel = store.feature_numel();
    data.samples.resize(store.step_count());
    for (std::uint64_t i = 0; i < store.step_count(); ++i) {
        const rl::TrajStoreReader::StepView sv = store.step(i);
        const rl::TrajStoreReader::StateView st = store.state(sv.state_id);
        TeacherSample& s = data.samples[i];
        s.clip = st.clip_index;
        s.actions.assign(sv.actions.begin(), sv.actions.end());
        s.features.reserve(st.offsets.size());
        for (std::size_t k = 0; k < st.offsets.size(); ++k) {
            nn::Tensor& t = s.features.emplace_back(shape);
            std::copy_n(st.features.data() + k * numel, numel, t.data().data());
        }
    }
    data.trajectories.reserve(store.traj_count());
    for (std::uint64_t i = 0; i < store.traj_count(); ++i) {
        data.trajectories.push_back(store.decode(i));
    }
    set_action_weights(data);
    return data;
}

double CamoEngine::run_phase1_epoch(const Phase1Dataset& data) {
    const obs::Span span("train.phase1.epoch", phase1_epoch_hist());
    const std::vector<TeacherSample>& samples = data.samples;
    if (samples.empty()) return 0.0;  // degenerate dataset: no optimizer step
    const std::size_t batch = cfg_.phase1_batch <= 0 ? samples.size()
                                                     : static_cast<std::size_t>(cfg_.phase1_batch);

    TrainRuntime& rt = train_runtime();
    double total_nll = 0.0;
    long long total_nodes = 0;
    TrainRuntime::Waves waves;
    std::vector<double> sample_nll(batch, 0.0);
    std::vector<long long> sample_nodes(batch, 0);

    for (std::size_t start = 0; start < samples.size(); start += batch) {
        const std::size_t count = std::min(batch, samples.size() - start);

        // Per-sample gradient of the class-weighted mean NLL at the master's
        // weights, captured into the sample's own buffer — the unit the
        // fixed-order reduction folds back in.
        const auto run_sample = [&](PolicyNetwork& net,
                                    const std::shared_ptr<const PackedWeights>& weights,
                                    std::size_t k) {
            const TeacherSample& s = samples[start + k];
            const nn::Tensor logits =
                net.forward(weights, s.features, data.graphs[static_cast<std::size_t>(s.clip)]);
            const int n = logits.dim(0);
            double nll = 0.0;
            for (int i = 0; i < n; ++i) {
                nll -= nn::log_prob(logit_row(logits, i), s.actions[static_cast<std::size_t>(i)]);
            }
            // coef = -w/n: gradient DEscent on class-weighted mean NLL.
            net.backward(policy_grad(logits, s.actions, [&](int i) {
                const int act = s.actions[static_cast<std::size_t>(i)];
                return -data.action_weight[static_cast<std::size_t>(act)] / static_cast<float>(n);
            }));
            sample_nll[k] = nll;
            sample_nodes[k] = n;
        };
        rt.run_and_reduce(policy_, waves, count, run_sample);
        for (std::size_t k = 0; k < count; ++k) {
            total_nll += sample_nll[k];
            total_nodes += sample_nodes[k];
        }
        optimizer_step(rt);
    }
    return total_nll / static_cast<double>(std::max(1LL, total_nodes));
}

double CamoEngine::run_phase2_episode(const std::vector<geo::SegmentedLayout>& clips,
                                      const std::vector<Graph>& graphs,
                                      std::vector<litho::LithoSim>& clip_sims,
                                      const opc::OpcOptions& opt, int episode) {
    const obs::Span span("train.phase2.episode", phase2_episode_hist());
    // Under a window objective the per-step reward is window_step_reward on
    // the before/after sweeps — worst-corner (or weighted-corner) |EPE| and
    // the exact PV band — and the modulation/exploration signal is the
    // objective corner's per-segment EPE, so phase-2 credit assignment
    // optimizes the same quantity the evaluation reports. Every sweep rides
    // the cached support spectrum (the window evaluate_incremental): one sparse
    // delta-DFT per step serves every corner.
    if (clip_sims.size() != clips.size()) {
        throw std::invalid_argument("run_phase2_episode: clip_sims/clips size mismatch");
    }
    if (clips.empty()) return 0.0;  // degenerate episode: nothing to roll out

    // Lockstep data-parallel rollout: every wave, each running clip acts
    // with the same weight snapshot, against its own simulator (whose
    // incremental cache then carries that clip's state across steps) and
    // with its own splitmix RNG stream keyed by (seed, episode, clip) —
    // never by scheduling order. The wave's Eq. (7) gradients are reduced
    // in clip order and one optimizer step closes it. Segment-free clips
    // have nothing to roll out and get no rollout.
    const std::uint64_t episode_seed = derive_seed(cfg_.seed ^ 0x5A17ULL,
                                                   static_cast<std::uint64_t>(episode));
    std::vector<Rng> rngs;
    rngs.reserve(clips.size());
    std::vector<ClipRollout> rollouts;
    rollouts.reserve(clips.size());
    for (std::size_t c = 0; c < clips.size(); ++c) {
        if (clips[c].num_segments() == 0) continue;
        rngs.emplace_back(derive_seed(episode_seed, static_cast<std::uint64_t>(c)));
        rollouts.push_back({.rollout = opc::Rollout(clips[c], clip_sims[c], opt, cfg_.reward),
                            .graph = &graphs[c],
                            .rng = &rngs.back(),
                            .feats = {}});
    }

    TrainRuntime& rt = train_runtime();
    double reward_sum = 0.0;
    int reward_count = 0;
    TrainRuntime::Waves waves;
    std::vector<double> rewards;

    run_waves(rollouts, opt.max_iterations, [&](std::span<const std::size_t> wave) {
        const obs::Span wave_span("train.phase2.wave", phase2_wave_hist());
        rewards.assign(wave.size(), 0.0);

        const auto run_clip = [&](PolicyNetwork& net,
                                  const std::shared_ptr<const PackedWeights>& weights,
                                  std::size_t k) {
            ClipRollout& clip = rollouts[wave[k]];
            opc::Rollout& rollout = clip.rollout;
            encode_state(rollout.layout(), rollout.offsets(), clip.feats);
            const nn::Tensor logits = net.forward(weights, clip.feats, *clip.graph);
            const auto actions =
                pick_actions(logits, rollout.metrics().epe_segment, cfg_.modulator, clip.rng);

            const opc::Rollout::Before before = rollout.step(action_moves(actions));
            const litho::SimMetrics& after = rollout.metrics();
            const opc::WindowObjective& objective = rollout.objective();
            const double r =
                objective.active()
                    ? rl::window_step_reward(*before.window, *rollout.window(),
                                             objective.reward())
                    : rl::step_reward(before.metrics.sum_abs_epe, after.sum_abs_epe,
                                      before.metrics.pvband_nm2, after.pvband_nm2, cfg_.reward);
            rewards[k] = r;

            // Eq. (7): gradient ascent on r * log pi(a|s).
            const float coef = cfg_.phase2_lr_scale * static_cast<float>(-r) /
                               static_cast<float>(logits.dim(0));
            net.backward(policy_grad(logits, actions, [coef](int) { return coef; }));
        };
        rt.run_and_reduce(policy_, waves, wave.size(), run_clip);
        for (const double r : rewards) {
            reward_sum += r;
            ++reward_count;
        }
        optimizer_step(rt);
    });
    return reward_sum / std::max(1, reward_count);
}

TrainStats CamoEngine::train(const std::vector<geo::SegmentedLayout>& clips,
                             litho::LithoSim& sim, const opc::OpcOptions& opt) {
    TrainStats stats;

    // ---- Phase 1: imitate rule-engine trajectories. ----------------------
    const Phase1Dataset data = collect_teacher_data(clips, sim, opt);

    for (int epoch = 0; epoch < cfg_.phase1_epochs; ++epoch) {
        stats.phase1_loss.push_back(run_phase1_epoch(data));
        if (epoch % 10 == 0) {
            log_info(cfg_.name + " phase1 epoch " + std::to_string(epoch) + " nll=" +
                     std::to_string(stats.phase1_loss.back()));
        }
    }

    // ---- Phase 2: modulated REINFORCE (lockstep over clips). -------------
    if (cfg_.phase2_episodes > 0) {
        // One simulator per clip, shared across episodes (copies share the
        // immutable kernel set); every episode re-primes them with a full
        // rebuild, so the carried caches never leak into results.
        std::vector<litho::LithoSim> clip_sims(clips.size(), sim);
        for (int ep = 0; ep < cfg_.phase2_episodes; ++ep) {
            stats.phase2_reward.push_back(
                run_phase2_episode(clips, data.graphs, clip_sims, opt, ep));
            log_info(cfg_.name + " phase2 episode " + std::to_string(ep) + " mean reward=" +
                     std::to_string(stats.phase2_reward.back()));
        }
    }
    return stats;
}

}  // namespace camo::core
