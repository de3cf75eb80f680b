// bench_e2e: the repository's end-to-end benchmark.
//
// One binary, four named workloads, each chosen to load a different layer
// (README.md beside this file has the full rationale and metric table):
//
//   via-rule            BatchScheduler::run_rule, production 512 grid, T workers.
//                       Litho-bound on the incremental delta path; no policy.
//   metal-camo-batched  run_camo_batched lockstep waves on the quick 256 grid.
//                       Cross-clip policy GEMMs; litho on the dense path.
//   via-chip-serve      TileSharder -> OpcServer submit/drain -> stitch, warm
//                       CAMO infer on T workers. Admission, priorities, barriers.
//   train               CamoEngine::train (teacher collection, phase-1 epochs,
//                       phase-2 episodes) on T trainer workers.
//
// Each run makes its inputs from --seed, sets up several times (setup_s is the
// median; each set-up ends with a warm-up pass), then measures for --seconds
// in rounds of fresh inputs with tracing and metrics off. Untimed correctness
// gates follow; a gate failure exits non-zero. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics,
// or with --trace 1 the per-layer ledger, read from the existing obs
// counters/histograms of a traced re-run of the same rounds plus probes that
// time public calls on the workload's clips (those are named *_est). The
// benchmark adds no instrumentation to the library: every span it records is
// around its own calls.
//
// Without --workload, every workload runs in a fresh child process
// (--repeat N times) and the runs are collected into BENCH_e2e.json;
// --compare A.json B.json gives a verdict per workload x metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "common/json_mini.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/camo.hpp"
#include "core/experiment.hpp"
#include "core/graph.hpp"
#include "core/modulator.hpp"
#include "layout/metal_gen.hpp"
#include "layout/shard.hpp"
#include "layout/via_gen.hpp"
#include "litho/aerial.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "opc/rule_engine.hpp"
#include "opc/sraf.hpp"
#include "runtime/batch.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/scenario.hpp"
#include "service/server.hpp"

namespace {

using namespace camo;

/// BENCHMARK.json's order. via-rule, the workload most sensitive to memory
/// traffic, runs last: the first runs after a fresh build ran slow.
const std::vector<std::string> kWorkloads = {"metal-camo-batched", "via-chip-serve", "train",
                                             "via-rule"};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Clips re-run through the 1-thread reference path by the correctness gates.
constexpr std::size_t kGateClips = 8;
/// Clips, and timed repetitions per clip, of the --trace 1 layer probes.
constexpr std::size_t kProbeClips = 16;
constexpr int kProbeReps = 5;

struct Options {
    std::string workload;  ///< empty = every workload, each in a child process
    std::uint64_t seed = 42;
    double seconds = 15.0;
    bool trace = false;
    bool smoke = false;
    int repeat = 1;
    std::string out = "BENCH_e2e.json";
    std::string compare_a;
    std::string compare_b;
};

/// Worker threads of the threaded workloads: 2, never more than nproc.
int bench_threads() { return std::min(2, runtime::ThreadPool::default_threads()); }

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (p in (0, 1]) of an exactly sorted copy.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// "exclusive" method); a single value is its own quartiles.
std::array<double, 3> quartiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return {0.0, 0.0, 0.0};
    if (n == 1) return {v[0], v[0], v[0]};
    std::array<double, 3> q{};
    for (std::size_t i = 1; i <= 3; ++i) {
        const std::size_t j = std::clamp<std::size_t>(i * (n + 1) / 4, 1, n - 1);
        const double delta = static_cast<double>(i * (n + 1) - j * 4);
        q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    return q;
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ------------------------------------------------------------- workloads

/// n 1000 nm clips, clip i drawn from derive_seed(seed, i): metal clips of 24
/// measure points, or via clips with 2, 3, 4, 2, ... vias. The fixed via mix
/// (camo_cli's warm-policy recipe) keeps equal-sized rounds at about equal
/// cost, so a run's timings vary less with its seed than via3's random 2-4.
std::vector<layout::Clip> make_clips(scenario::Style style, std::uint64_t seed, int n) {
    std::vector<layout::Clip> clips;
    for (int i = 0; i < n; ++i) {
        Rng rng(derive_seed(seed, static_cast<std::uint64_t>(i)));
        layout::Clip clip;
        clip.clip_nm = 1000;
        if (style == scenario::Style::kVia) {
            layout::ViaGenOptions vg;
            vg.clip_nm = 1000;
            vg.margin_nm = 200;
            vg.min_spacing_nm = 120;
            clip.targets = layout::generate_via_clip(2 + i % 3, rng, vg);
        } else {
            layout::MetalGenOptions mg;
            mg.clip_nm = 1000;
            clip.targets = layout::generate_metal_clip(24, rng, mg);
        }
        clips.push_back(std::move(clip));
    }
    return clips;
}

std::vector<geo::SegmentedLayout> fragment_clips(scenario::Style style,
                                                 const std::vector<layout::Clip>& clips) {
    return style == scenario::Style::kVia ? core::fragment_via_clips(clips)
                                          : core::fragment_metal_clips(clips);
}

/// One optimized clip (or tile) of a round.
struct ClipOut {
    double epe = 0.0;  ///< sum |EPE| of the final mask, nm
    double pvb = 0.0;  ///< PV band of the final mask, nm^2
    int iterations = 0;
    bool failed = false;
    std::vector<int> offsets;
};

/// One timed unit of the measured phase: a batch of fresh clips, a chip, or
/// a training job.
struct Round {
    double wall_s = 0.0;            ///< timed wall of the round's calls
    std::vector<ClipOut> clips;     ///< in clip order
    std::vector<double> latency_s;  ///< per clip, per request, or the round's wall
};

/// A workload: set-up, rounds of fresh seed-derived inputs, and an untimed
/// gate. Round 0 keeps its inputs for the gate and the probes.
class Workload {
public:
    Workload(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /// Everything before timing; counted in setup_s. Ends with a warm-up
    /// pass over round 0's first clips.
    virtual void setup() = 0;

    /// Round r on fresh inputs. `quality` asks for EPE/PVB where they cost
    /// extra untimed work (the train workload evaluates its trained policy).
    virtual Round run_round(int r, bool quality) = 0;

    /// Rounds whose clips define the quality metrics and the fingerprint;
    /// the measured phase always runs at least this many.
    [[nodiscard]] virtual int quality_rounds() const = 0;

    /// Untimed correctness gate against round 0's results; returns the
    /// failure reason, empty when every check passed.
    virtual std::string check(const Round& round0) = 0;

    /// Extra fingerprint input beyond the quality rounds' offsets.
    virtual std::uint64_t fingerprint_extra(std::uint64_t h) const { return h; }

    /// Threads that do the work: the per-layer shares divide by threads x wall.
    [[nodiscard]] virtual int threads() const { return bench_threads(); }

    /// obs duration histogram whose sum is the workers' busy time, or nullptr
    /// when the workers run no spanned jobs: they then count as busy throughout.
    [[nodiscard]] virtual const char* busy_histogram() const = 0;

    /// The policy the workload runs, or nullptr (probes then build an
    /// untrained one of the same architecture: cost does not depend on weights).
    [[nodiscard]] virtual core::CamoEngine* engine() { return nullptr; }

    [[nodiscard]] const litho::LithoConfig& litho() const { return litho_; }
    [[nodiscard]] const std::vector<geo::SegmentedLayout>& round0() const { return round0_; }
    [[nodiscard]] double kernel_build_s() const { return kernel_build_s_; }
    [[nodiscard]] double fragment_s() const { return fragment_s_; }
    [[nodiscard]] double shard_cut_s() const { return shard_cut_s_; }

protected:
    /// Build the SOCS kernels of litho_ from scratch (cache_dir is "", and
    /// the in-process registry was cleared before this set-up).
    void build_kernels() {
        litho_.cache_dir = "";
        Timer t;
        (void)litho::acquire_kernels(litho_);
        kernel_build_s_ = t.seconds();
    }

    /// Seed of round r's inputs.
    [[nodiscard]] std::uint64_t round_seed(int r) const {
        return derive_seed(seed_, static_cast<std::uint64_t>(r));
    }

    /// Fragment round r's clips; round 0's time is geometry.fragment_s.
    std::vector<geo::SegmentedLayout> fragment(scenario::Style style,
                                               const std::vector<layout::Clip>& clips, int r) {
        Timer t;
        std::vector<geo::SegmentedLayout> out = fragment_clips(style, clips);
        if (r == 0) fragment_s_ = t.seconds();
        return out;
    }

    std::uint64_t seed_;
    bool smoke_;
    litho::LithoConfig litho_;
    std::vector<geo::SegmentedLayout> round0_;
    double kernel_build_s_ = 0.0;
    double fragment_s_ = 0.0;
    double shard_cut_s_ = 0.0;
};

/// Duration histogram of the benchmark's own span around layout::stitch.
obs::MetricId stitch_hist() {
    static const obs::MetricId id = obs::register_histogram("layout.stitch.ns");
    return id;
}

/// Results of a BatchResult as round clips.
std::vector<ClipOut> clip_outs(const std::vector<runtime::ClipResult>& results) {
    std::vector<ClipOut> out;
    out.reserve(results.size());
    for (const runtime::ClipResult& c : results) {
        out.push_back({c.final_epe, c.pvband_nm2, c.iterations, !c.error.empty(), c.offsets});
    }
    return out;
}

/// Compare the gate re-run against the measured round, clip by clip.
std::string compare_offsets(const runtime::BatchResult& ref, const Round& round0,
                            const char* what) {
    for (std::size_t i = 0; i < ref.clips.size(); ++i) {
        if (!ref.clips[i].error.empty()) return std::string(what) + ": reference failed";
        if (ref.clips[i].offsets != round0.clips[i].offsets) {
            return std::string(what) + ": clip " + std::to_string(i) +
                   " offsets differ from the measured run";
        }
    }
    return {};
}

/// The first n layouts of v (all of them when v is shorter).
std::vector<geo::SegmentedLayout> head(const std::vector<geo::SegmentedLayout>& v, std::size_t n) {
    return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size()))};
}

/// Quick-scale OPC protocol of the scenario-driven paths (camo_cli's
/// scenario_opc): at most `iterations` steps, +3 nm initial bias for vias.
opc::OpcOptions scenario_opc(scenario::Style style, int iterations) {
    opc::OpcOptions opt;
    opt.max_iterations = iterations;
    opt.initial_bias_nm = style == scenario::Style::kVia ? 3 : 0;
    return opt;
}

/// camo_cli's warm_camo_engine recipe: a tiny deterministic imitation-only
/// policy trained on 2 clips for 4 phase-1 epochs — the warm policy the
/// serve path shares read-only across workers.
core::CamoConfig warm_config() {
    core::CamoConfig cfg;
    cfg.name = "stream";
    cfg.seed = 7;
    cfg.teacher_biases = {3, 0};
    cfg.teacher_steps = 3;
    cfg.phase1_epochs = 4;
    cfg.phase2_episodes = 0;
    cfg.train_workers = 1;
    return cfg;
}

std::unique_ptr<core::CamoEngine> warm_engine(scenario::Style style,
                                              const litho::LithoConfig& litho,
                                              const opc::OpcOptions& opt) {
    auto engine = std::make_unique<core::CamoEngine>(warm_config());
    litho::LithoSim sim(litho);
    engine->train(fragment_clips(style, make_clips(style, 0xC0FFEEULL, 2)), sim, opt);
    return engine;
}

runtime::ClipOptimizer rule_optimizer() {
    return [](const geo::SegmentedLayout& layout, litho::LithoSim& sim, const opc::OpcOptions& o,
              std::uint64_t) {
        opc::RuleEngine engine;
        return engine.optimize(layout, sim, o);
    };
}

runtime::ClipOptimizer infer_optimizer(const core::CamoEngine& engine) {
    return [&engine](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                     const opc::OpcOptions& o,
                     std::uint64_t) { return engine.infer(layout, sim, o); };
}

// -- via-rule ---------------------------------------------------------------

class ViaRule final : public Workload {
public:
    using Workload::Workload;

    void setup() override {
        litho_ = core::Experiment::litho_config();
        if (smoke_) litho_ = scenario::quick_litho();
        build_kernels();
        runtime::BatchOptions opt;
        opt.threads = bench_threads();
        opt.seed = seed_;
        opt.opc = core::Experiment::via_options();
        sched_.emplace(litho_, opt);
        round0_ = clips(0);
        // Warm-up over a whole round: after only the first T clips, the first
        // timed round still ran about 50% slower than the rest.
        (void)sched_->run_rule(round0_);
    }

    Round run_round(int r, bool) override {
        const std::vector<geo::SegmentedLayout> in = r == 0 ? round0_ : clips(r);
        const obs::Span span("bench.run_rule");
        Timer t;
        const runtime::BatchResult b = sched_->run_rule(in);
        Round out{t.seconds(), clip_outs(b.clips), {}};
        for (const runtime::ClipResult& c : b.clips) out.latency_s.push_back(c.runtime_s);
        return out;
    }

    [[nodiscard]] int quality_rounds() const override { return smoke_ ? 1 : 3; }

    std::string check(const Round& round0) override {
        runtime::BatchOptions opt = sched_->options();
        opt.threads = 1;
        runtime::BatchScheduler ref(litho_, opt);
        return compare_offsets(ref.run(head(round0_, kGateClips), rule_optimizer()), round0,
                               "via-rule 1-thread re-run");
    }

    [[nodiscard]] const char* busy_histogram() const override { return "batch.clip.ns"; }

private:
    [[nodiscard]] int clips_per_round() const { return smoke_ ? 4 : 10; }

    std::vector<geo::SegmentedLayout> clips(int r) {
        return fragment(scenario::Style::kVia,
                        layout::via_batch_set(round_seed(r), clips_per_round()), r);
    }

    std::optional<runtime::BatchScheduler> sched_;
};

// -- metal-camo-batched ---------------------------------------------------------

class MetalCamoBatched final : public Workload {
public:
    using Workload::Workload;

    void setup() override {
        litho_ = scenario::quick_litho();
        build_kernels();
        const opc::OpcOptions opc = scenario_opc(scenario::Style::kMetal, smoke_ ? 3 : 10);
        engine_ = warm_engine(scenario::Style::kMetal, litho_, opc);
        runtime::BatchOptions opt;
        opt.threads = 1;  // the lockstep path runs on the calling thread
        opt.seed = seed_;
        opt.opc = opc;
        sched_.emplace(litho_, opt);
        round0_ = clips(0);
        (void)sched_->run_camo_batched(head(round0_, bench_threads()), *engine_);
    }

    Round run_round(int r, bool) override {
        const std::vector<geo::SegmentedLayout> in = r == 0 ? round0_ : clips(r);
        const obs::Span span("bench.run_camo_batched");
        Timer t;
        const runtime::BatchResult b = sched_->run_camo_batched(in, *engine_);
        Round out{t.seconds(), clip_outs(b.clips), {}};
        // Lockstep: every clip of the batch is answered when the batch ends.
        out.latency_s.push_back(out.wall_s);
        return out;
    }

    [[nodiscard]] int quality_rounds() const override { return smoke_ ? 1 : 3; }

    std::string check(const Round& round0) override {
        return compare_offsets(sched_->run_camo(head(round0_, kGateClips), *engine_), round0,
                               "metal-camo-batched run_camo re-run");
    }

    [[nodiscard]] int threads() const override { return 1; }
    [[nodiscard]] const char* busy_histogram() const override { return "batch.run.ns"; }
    [[nodiscard]] core::CamoEngine* engine() override { return engine_.get(); }

private:
    [[nodiscard]] int clips_per_round() const { return smoke_ ? 4 : 8; }

    std::vector<geo::SegmentedLayout> clips(int r) {
        return fragment(scenario::Style::kMetal,
                        make_clips(scenario::Style::kMetal, round_seed(r), clips_per_round()), r);
    }

    std::unique_ptr<core::CamoEngine> engine_;
    std::optional<runtime::BatchScheduler> sched_;
};

// -- via-chip-serve -------------------------------------------------------------

class ViaChipServe final : public Workload {
public:
    using Workload::Workload;

    void setup() override {
        litho_ = scenario::quick_litho();
        build_kernels();
        const opc::OpcOptions opc = scenario_opc(scenario::Style::kVia, smoke_ ? 2 : 5);
        engine_ = warm_engine(scenario::Style::kVia, litho_, opc);
        service::ServerOptions so;
        so.queue_capacity = 8;
        so.batch.threads = bench_threads();
        so.batch.seed = seed_;
        so.batch.opc = opc;
        server_.emplace(litho_, so);
        chip0_ = std::make_unique<Chip>(chip(0));
        round0_ = chip0_->tiles;
        service::ServeRequest warm;
        warm.clips = head(round0_, bench_threads());
        server_->submit(std::move(warm));
        (void)server_->drain(infer_optimizer(*engine_));
    }

    Round run_round(int r, bool) override {
        std::unique_ptr<Chip> fresh;
        const Chip& c = r == 0 ? *chip0_ : *(fresh = std::make_unique<Chip>(chip(r)));
        const std::size_t n = c.tiles.size();
        std::vector<std::vector<int>> tile_offsets(n);
        Round out;
        out.clips.resize(n);
        const runtime::ClipOptimizer optimize = infer_optimizer(*engine_);

        const obs::Span span("bench.serve_chip");
        Timer t;
        // One closed-loop client: bursts of queue_capacity two-tile requests
        // with priorities cycling 0..2, then drain.
        std::size_t next = 0;
        int req = 0;
        while (next < n) {
            for (int k = 0; k < server_->queue_capacity() && next < n; ++k, ++req) {
                service::ServeRequest rq;
                rq.name = std::to_string(next);
                rq.priority = req % 3;
                for (std::size_t j = next; j < std::min(n, next + 2); ++j) {
                    rq.clips.push_back(c.tiles[j]);
                }
                next += rq.clips.size();
                server_->submit(std::move(rq));
            }
            for (service::RequestOutcome& o : server_->drain(optimize)) {
                const std::size_t first = std::stoul(o.name);
                out.latency_s.push_back(o.latency_s);
                for (std::size_t j = 0; j < o.results.size(); ++j) {
                    runtime::ClipResult& res = o.results[j];
                    ClipOut& co = out.clips[first + j];
                    co = {res.final_epe, res.pvband_nm2, res.iterations,
                          !o.accepted || !res.error.empty(), res.offsets};
                    tile_offsets[first + j] = std::move(res.offsets);
                }
                if (!o.accepted) {
                    for (std::size_t j = 0; j < static_cast<std::size_t>(o.clips); ++j) {
                        out.clips[first + j].failed = true;
                    }
                }
            }
        }
        try {
            const obs::Span stitch_span("layout.stitch", stitch_hist());
            (void)layout::stitch(*c.sharder, c.chip_layout, tile_offsets);
        } catch (const std::exception&) {
            stitch_failed_ = true;
        }
        out.wall_s = t.seconds();
        return out;
    }

    [[nodiscard]] int quality_rounds() const override { return 1; }

    std::string check(const Round& round0) override {
        if (stitch_failed_) return "via-chip-serve: stitch failed";
        runtime::BatchOptions opt = server_->options().batch;
        opt.threads = 1;
        runtime::BatchScheduler ref(litho_, opt);
        return compare_offsets(ref.run(head(round0_, kGateClips), infer_optimizer(*engine_)),
                               round0, "via-chip-serve 1-thread re-run");
    }

    [[nodiscard]] const char* busy_histogram() const override { return "batch.clip.ns"; }
    [[nodiscard]] core::CamoEngine* engine() override { return engine_.get(); }

private:
    struct Chip {
        std::unique_ptr<layout::TileSharder> sharder;
        std::vector<geo::SegmentedLayout> tiles;
        geo::SegmentedLayout chip_layout;
    };

    /// Chip r: a grid of 1000 nm via cells cut into halo-padded tiles.
    Chip chip(int r) {
        const int cells = smoke_ ? 2 : 4;
        const std::vector<layout::Clip> cell =
            make_clips(scenario::Style::kVia, round_seed(r), cells * cells);
        std::vector<geo::Polygon> polys;
        for (int i = 0; i < cells * cells; ++i) {
            for (const geo::Polygon& p : cell[static_cast<std::size_t>(i)].targets) {
                polys.push_back(layout::translated(p, 1000 * (i % cells), 1000 * (i / cells)));
            }
        }
        layout::ShardOptions so;
        so.tile_nm = 512;
        so.halo_nm = 256;
        so.fragment.style = geo::FragmentStyle::kVia;
        so.sraf_gen = [](const std::vector<geo::Polygon>& t) { return opc::insert_srafs(t); };
        so.auto_origin = false;
        Chip c;
        Timer cut;
        c.sharder = std::make_unique<layout::TileSharder>(polys, so, litho_);
        c.tiles = c.sharder->tile_layouts();
        if (r == 0) shard_cut_s_ = cut.seconds();
        Timer frag;
        c.chip_layout = c.sharder->chip_layout();
        if (r == 0) fragment_s_ = frag.seconds();
        return c;
    }

    std::unique_ptr<core::CamoEngine> engine_;
    std::optional<service::OpcServer> server_;
    std::unique_ptr<Chip> chip0_;
    bool stitch_failed_ = false;
};

// -- train ------------------------------------------------------------------------

class Train final : public Workload {
public:
    using Workload::Workload;

    void setup() override {
        litho_ = scenario::quick_litho();
        build_kernels();
        sim_.emplace(litho_);
        round0_ = clips(0);
        // Warm-up: one teacher collection over the first T clips.
        core::CamoEngine warm(config());
        (void)warm.collect_teacher_data(head(round0_, bench_threads()), *sim_, opc());
    }

    Round run_round(int r, bool quality) override {
        const std::vector<geo::SegmentedLayout> in = r == 0 ? round0_ : clips(r);
        auto engine = std::make_unique<core::CamoEngine>(config());
        const obs::Span span("bench.train");
        Timer t;
        const core::TrainStats stats = engine->train(in, *sim_, opc());
        Round out{t.seconds(), {}, {}};
        out.latency_s.push_back(out.wall_s);
        out.clips.resize(in.size());
        if (quality) {
            // The trained policy's quality on its own clips (untimed).
            for (std::size_t i = 0; i < in.size(); ++i) {
                const opc::EngineResult res = engine->infer(in[i], *sim_, opc());
                out.clips[i] = {res.final_metrics.sum_abs_epe, res.final_metrics.pvband_nm2,
                                res.iterations, false, res.final_offsets};
            }
        }
        if (r == 0) {
            stats0_ = stats;
            engine0_ = std::move(engine);
        }
        return out;
    }

    [[nodiscard]] int quality_rounds() const override { return 1; }

    std::string check(const Round&) override {
        for (double v : stats0_.phase1_loss) {
            if (!std::isfinite(v)) return "train: non-finite phase-1 loss";
        }
        for (double v : stats0_.phase2_reward) {
            if (!std::isfinite(v)) return "train: non-finite phase-2 reward";
        }
        if (stats0_.phase1_loss.empty()) return "train: no phase-1 epoch ran";
        return {};
    }

    /// The loss trace plus the trained weights of round 0.
    std::uint64_t fingerprint_extra(std::uint64_t h) const override {
        for (double v : stats0_.phase1_loss) h = fnv1a(h, &v, sizeof v);
        for (double v : stats0_.phase2_reward) h = fnv1a(h, &v, sizeof v);
        for (nn::Parameter* p : engine0_->policy().params()) {
            const std::span<const float> w = p->value.data();
            h = fnv1a(h, w.data(), w.size_bytes());
        }
        return h;
    }

    [[nodiscard]] const char* busy_histogram() const override { return nullptr; }
    [[nodiscard]] core::CamoEngine* engine() override { return engine0_.get(); }

private:
    [[nodiscard]] core::CamoConfig config() const {
        core::CamoConfig cfg = warm_config();
        cfg.name = "bench-train";
        cfg.train_workers = bench_threads();
        cfg.phase1_batch = 16;
        cfg.phase1_epochs = smoke_ ? 1 : 4;
        cfg.phase2_episodes = smoke_ ? 1 : 2;
        return cfg;
    }
    [[nodiscard]] opc::OpcOptions opc() const {
        return scenario_opc(scenario::Style::kVia, smoke_ ? 2 : 5);
    }

    std::vector<geo::SegmentedLayout> clips(int r) {
        return fragment(scenario::Style::kVia,
                        make_clips(scenario::Style::kVia, round_seed(r), smoke_ ? 2 : 6), r);
    }

    std::optional<litho::LithoSim> sim_;
    core::TrainStats stats0_;
    std::unique_ptr<core::CamoEngine> engine0_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
    if (name == "via-rule") return std::make_unique<ViaRule>(seed, smoke);
    if (name == "metal-camo-batched") return std::make_unique<MetalCamoBatched>(seed, smoke);
    if (name == "via-chip-serve") return std::make_unique<ViaChipServe>(seed, smoke);
    if (name == "train") return std::make_unique<Train>(seed, smoke);
    return nullptr;
}

// ------------------------------------------------------------- metrics

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  ///< printed beside the value: a ratio's base, a sample count
};

/// Rounds of the measured phase plus their timed wall.
struct Phase {
    std::vector<Round> rounds;
    double wall_s = 0.0;
};

/// Run rounds until `seconds` of timed wall and at least `min_rounds`
/// rounds (or exactly `fixed_rounds` when positive).
Phase run_phase(Workload& w, double seconds, int min_rounds, int fixed_rounds, bool quality) {
    Phase p;
    for (int r = 0;; ++r) {
        if (fixed_rounds > 0 ? r >= fixed_rounds : (r >= min_rounds && p.wall_s >= seconds)) break;
        p.rounds.push_back(w.run_round(r, quality && r < w.quality_rounds()));
        p.wall_s += p.rounds.back().wall_s;
    }
    return p;
}

/// The end-to-end metrics. latency_p90_s is each round's p90, median over the
/// rounds: a noise burst that slows a few rounds then moves it no more than
/// it moves the p50, where a pooled p90 would take the burst's whole tail.
std::vector<Metric> end_to_end(const Phase& p, double setup_s, double rss_mb) {
    long long clips = 0;
    std::vector<double> latency;
    std::vector<double> round_p90;
    for (const Round& rd : p.rounds) {
        latency.insert(latency.end(), rd.latency_s.begin(), rd.latency_s.end());
        round_p90.push_back(percentile(rd.latency_s, 0.90));
        for (const ClipOut& c : rd.clips) clips += c.failed ? 0 : 1;
    }
    const std::string n_latency = "n=" + std::to_string(latency.size());
    char clip_base[96];
    std::snprintf(clip_base, sizeof clip_base, "%lld / %.6g s", clips, p.wall_s);
    return {
        {"setup_s", setup_s, "s", "median of set-ups"},
        {"peak_rss_mb", rss_mb, "MB", ""},
        {"clips_per_s", static_cast<double>(clips) / p.wall_s, "1/s", clip_base},
        {"latency_p50_s", percentile(latency, 0.50), "s", n_latency},
        {"latency_p90_s", percentile(round_p90, 0.50), "s",
         n_latency + " in " + std::to_string(p.rounds.size()) + " rounds"},
    };
}

/// Mean EPE and PVB of the clips of the quality rounds: fixed clips, so the
/// numbers do not depend on how many rounds the run had time for.
std::vector<Metric> quality(const Workload& w, const Phase& p) {
    std::vector<double> epe;
    std::vector<double> pvb;
    for (int r = 0; r < w.quality_rounds(); ++r) {
        for (const ClipOut& c : p.rounds[static_cast<std::size_t>(r)].clips) {
            epe.push_back(c.epe);
            pvb.push_back(c.pvb);
        }
    }
    const std::string n = "n=" + std::to_string(epe.size());
    return {{"opc.epe_nm_mean", mean(epe), "nm", n}, {"opc.pvb_nm2_mean", mean(pvb), "nm2", n}};
}

/// Per-call probe: median of kProbeReps timings of `fn` in milliseconds.
template <typename F>
double probe_ms(F&& fn) {
    std::vector<double> t;
    for (int i = 0; i < kProbeReps; ++i) {
        Timer timer;
        fn();
        t.push_back(timer.seconds() * 1e3);
    }
    return percentile(t, 0.5);
}

struct Probes {
    double raster_ms = 0, spectrum_ms = 0, socs_ms = 0, metrics_ms = 0;
    double squish_ms = 0, graph_ms = 0, infer_ms = 0, infer_batch_ms = 0, modulator_us = 0;
};

/// Time the public calls of litho and core on the first kProbeClips clips of
/// round 0 at their final offsets; mean over clips of the per-clip median.
Probes run_probes(Workload& w, const Round& round0) {
    const obs::Span span("bench.probes");
    const litho::LithoSim sim(w.litho());
    const litho::KernelApplicator socs(sim.nominal_kernels(), w.litho().grid);
    std::unique_ptr<core::CamoEngine> untrained;
    core::CamoEngine* engine = w.engine();
    if (engine == nullptr) {
        untrained = std::make_unique<core::CamoEngine>(warm_config());
        engine = untrained.get();
    }
    const core::CamoConfig& cfg = engine->config();
    const litho::LithoConfig& lc = w.litho();

    const std::size_t n = std::min(kProbeClips, w.round0().size());
    Probes pr;
    std::vector<std::vector<nn::Tensor>> feats(n);
    std::vector<core::Graph> graphs(n);
    std::vector<core::PolicyNetwork::ClipRequest> requests;
    for (std::size_t i = 0; i < n; ++i) {
        const geo::SegmentedLayout& layout = w.round0()[i];
        const std::vector<int>& off = round0.clips[i].offsets;
        const std::vector<geo::Polygon> mask = layout.reconstruct_mask(off);
        const int clip_nm = layout.clip_size_nm();
        geo::Raster raster(lc.grid, lc.pixel_nm);
        pr.raster_ms += probe_ms([&] { raster = sim.rasterize(mask, layout.srafs(), clip_nm); });
        std::vector<litho::Complex> spectrum;
        pr.spectrum_ms += probe_ms([&] { spectrum = litho::mask_spectrum(raster); });
        geo::Raster nominal(lc.grid, lc.pixel_nm);
        pr.socs_ms += probe_ms([&] { nominal = socs.apply(spectrum, lc.pixel_nm); });
        const geo::Raster defocus = sim.aerial_defocus(raster);
        pr.metrics_ms += probe_ms([&] {
            (void)litho::compute_sim_metrics(layout, nominal, defocus, sim.threshold(),
                                             sim.clip_offset_nm(clip_nm), lc.epe_range_nm,
                                             lc.dose_min, lc.dose_max);
        });
        pr.squish_ms += probe_ms([&] { feats[i] = engine->encode_state(layout, off); });
        pr.graph_ms += probe_ms(
            [&] { graphs[i] = core::build_segment_graph(layout, cfg.graph_threshold_nm); });
        pr.infer_ms += probe_ms([&] { (void)engine->policy().infer(feats[i], graphs[i]); });
        requests.push_back({&feats[i], &graphs[i]});

        // One modulation is far below the clock's resolution: time 100 passes
        // over the clip's segments and divide.
        const litho::SimMetrics m = sim.evaluate(layout, off);
        const std::array<double, rl::kNumActions> uniform{0.2, 0.2, 0.2, 0.2, 0.2};
        constexpr int kModReps = 100;
        const double mod_ms = probe_ms([&] {
            for (int k = 0; k < kModReps; ++k) {
                for (double e : m.epe_segment) {
                    (void)core::modulate_probs(uniform, e, cfg.modulator);
                }
            }
        });
        const auto mods =
            static_cast<double>(kModReps * std::max<std::size_t>(1, m.epe_segment.size()));
        pr.modulator_us += 1e3 * mod_ms / mods;
    }
    pr.infer_batch_ms = probe_ms([&] { (void)engine->policy().infer_batch(requests); });
    for (double* v : {&pr.raster_ms, &pr.spectrum_ms, &pr.socs_ms, &pr.metrics_ms, &pr.squish_ms,
                      &pr.graph_ms, &pr.infer_ms, &pr.infer_batch_ms, &pr.modulator_us}) {
        *v /= static_cast<double>(std::max<std::size_t>(1, n));
    }
    return pr;
}

/// The per-layer ledger of one traced phase (`snap`: the obs registry after
/// it, reset before it) plus the probes. `untraced_wall_s` is the same
/// rounds' wall with telemetry off.
std::vector<Metric> per_layer(const Workload& w, const std::string& name,
                              const std::vector<obs::MetricSnapshot>& snap, const Phase& traced,
                              double untraced_wall_s, const Probes& pr) {
    const auto count = [&](const char* n) -> long long {
        const obs::MetricSnapshot* m = obs::find_metric(snap, n);
        return m ? m->counter : 0;
    };
    const auto hist_s = [&](const char* n) -> double {
        const obs::MetricSnapshot* m = obs::find_metric(snap, n);
        return m ? static_cast<double>(m->hist_sum) * 1e-9 : 0.0;
    };
    const auto hist_n = [&](const char* n) -> double {
        const obs::MetricSnapshot* m = obs::find_metric(snap, n);
        return m ? static_cast<double>(m->hist_count) : 0.0;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto hist_mean_s = [&](const char* n) { return ratio(hist_s(n), hist_n(n)); };
    const auto base = [](double a, double b) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.6g / %.6g", a, b);
        return std::string(buf);
    };

    const double wall = traced.wall_s;
    const double capacity = wall * w.threads();
    const double busy = w.busy_histogram() ? hist_s(w.busy_histogram()) : capacity;

    const double evals = static_cast<double>(count("litho.evaluations"));
    const double eval_s = hist_s("litho.evaluate.ns") + hist_s("litho.evaluate_incremental.ns") +
                          hist_s("litho.evaluate_window.ns");
    const double hits = static_cast<double>(count("litho.incremental.hits"));
    const double fulls = static_cast<double>(count("litho.incremental.fulls"));

    // Estimated policy time: every policy iteration encodes the state, runs
    // one forward (the batched path: its share of one wave-wide forward) and
    // modulates each segment. Training's policy work is its phase-1 epochs,
    // which keep all T trainer workers busy.
    double policy_s = 0.0;
    if (name == "train") {
        policy_s = hist_s("train.phase1.epoch.ns") * w.threads();
    } else if (name != "via-rule") {
        const double forward_ms = name == "metal-camo-batched" ? pr.infer_batch_ms : pr.infer_ms;
        for (const Round& r : traced.rounds) {
            for (const ClipOut& c : r.clips) {
                const double segments = static_cast<double>(c.offsets.size());
                policy_s += c.iterations * ((pr.squish_ms + forward_ms) * 1e-3 +
                                            segments * pr.modulator_us * 1e-6);
            }
        }
    }
    const double litho_share = ratio(eval_s, busy);
    const double policy_share = ratio(policy_s, busy);
    const double residual = std::max(0.0, busy - eval_s - policy_s);
    const auto count_metric = [&](const char* metric, const char* counter) -> Metric {
        return {metric, static_cast<double>(count(counter)), "count", ""};
    };
    return {
        {"litho.evals", evals, "count", ""},
        {"litho.eval_s", eval_s, "s", ""},
        {"litho.eval_ms_mean", 1e3 * ratio(eval_s, evals), "ms", base(1e3 * eval_s, evals)},
        {"litho.share", litho_share, "ratio", base(eval_s, busy)},
        {"litho.delta_hits", hits, "count", ""},
        {"litho.incremental_hit_ratio", ratio(hits, hits + fulls), "ratio",
         base(hits, hits + fulls)},
        {"litho.delta_dft_s", hist_s("litho.delta_dft.ns"), "s", ""},
        {"litho.rebuilds", hist_n("litho.incremental.rebuild.ns"), "count", ""},
        {"litho.rebuild_s", hist_s("litho.incremental.rebuild.ns"), "s", ""},
        {"litho.raster_ms_est", pr.raster_ms, "ms", ""},
        {"litho.spectrum_ms_est", pr.spectrum_ms, "ms", ""},
        {"litho.socs_ms_est", pr.socs_ms, "ms", ""},
        {"litho.metrics_ms_est", pr.metrics_ms, "ms", ""},
        {"litho.kernel_build_s", w.kernel_build_s(), "s", ""},
        {"geometry.fragment_s", w.fragment_s(), "s", ""},
        {"layout.shard_cut_s", w.shard_cut_s(), "s", ""},
        {"core.squish_ms_est", pr.squish_ms, "ms", ""},
        {"core.graph_ms_est", pr.graph_ms, "ms", ""},
        {"core.policy_infer_ms_est", pr.infer_ms, "ms", ""},
        {"core.policy_infer_batch_ms_est", pr.infer_batch_ms, "ms", ""},
        {"core.modulator_us_est", pr.modulator_us, "us", ""},
        {"core.policy_share_est", policy_share, "ratio", base(policy_s, busy)},
        {"residual_share", ratio(residual, busy), "ratio", base(residual, busy)},
        {"runtime.worker_busy_s", busy, "s", ""},
        {"runtime.worker_idle_s", std::max(0.0, capacity - busy), "s", ""},
        {"runtime.worker_utilization", ratio(busy, capacity), "ratio", base(busy, capacity)},
        count_metric("runtime.pool_tasks", "pool.tasks"),
        count_metric("runtime.pool_steals", "pool.steals"),
        {"service.queue_wait_s_mean", hist_mean_s("serve.wait.ns"), "s", ""},
        {"service.request_service_s_mean", hist_mean_s("serve.request.ns"), "s", ""},
        count_metric("service.accepted", "serve.accepted"),
        count_metric("service.rejected", "serve.rejected"),
        {"layout.stitch_s", hist_s("layout.stitch.ns"), "s", ""},
        {"train.collect_s", hist_s("train.collect.ns"), "s", ""},
        {"train.phase1_epoch_s_mean", hist_mean_s("train.phase1.epoch.ns"), "s", ""},
        {"train.phase2_episode_s_mean", hist_mean_s("train.phase2.episode.ns"), "s", ""},
        {"train.phase2_wave_ms_mean", 1e3 * hist_mean_s("train.phase2.wave.ns"), "ms", ""},
        {"train.reduce_s", hist_s("train.reduce.ns"), "s", ""},
        count_metric("train.grad_reductions", "train.grad_reductions"),
        count_metric("train.teacher_samples", "train.teacher_samples"),
        {"obs.trace_overhead_ratio", ratio(wall, untraced_wall_s), "ratio",
         base(wall, untraced_wall_s)},
    };
}

// ------------------------------------------------------------- output

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
               ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}";
}

/// One workload in this process: the protocol's single run.
int run_workload(const Options& o) {
    const std::string& name = o.workload;
    const int T = bench_threads();
    std::printf("bench_e2e %s: seed %llu, %.3g s, T=%d of nproc %d, simd %s%s%s\n", name.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, T,
                runtime::ThreadPool::default_threads(),
                simd::level_name(simd::active_level()), o.trace ? ", traced" : "",
                o.smoke ? ", smoke" : "");

    // Set up kSetupReps times from scratch; keep the last, report the median.
    std::unique_ptr<Workload> w;
    std::vector<double> setup_times;
    const int reps = o.smoke ? 1 : kSetupReps;
    for (int i = 0; i < reps; ++i) {
        w.reset();
        litho::clear_kernel_registry();
        w = make_workload(name, o.seed, o.smoke);
        Timer t;
        w->setup();
        setup_times.push_back(t.seconds());
    }
    const double setup_s = percentile(setup_times, 0.5);

    // Measured phase: telemetry off. A traced run splits its time between
    // this phase and a traced re-run of the same rounds.
    const Phase measured =
        run_phase(*w, o.trace ? o.seconds / 2 : o.seconds, w->quality_rounds(), 0, true);
    const double rss_mb = peak_rss_mb();

    long long attempted = 0;
    long long failed = 0;
    std::uint64_t fp = kFnvBasis;
    for (std::size_t r = 0; r < measured.rounds.size(); ++r) {
        for (const ClipOut& c : measured.rounds[r].clips) {
            ++attempted;
            if (c.failed) ++failed;
            if (static_cast<int>(r) < w->quality_rounds()) {
                fp = fnv1a(fp, c.offsets.data(), c.offsets.size() * sizeof(int));
            }
        }
    }
    fp = w->fingerprint_extra(fp);

    std::vector<Metric> metrics;
    if (o.trace) {
        obs::reset_metrics();
        obs::reset_trace();
        obs::set_metrics_enabled(true);
        obs::set_tracing_enabled(true);
        const Phase traced = run_phase(*w, 0, 0, static_cast<int>(measured.rounds.size()), false);
        // The probes call litho themselves: keep them out of the counters.
        const std::vector<obs::MetricSnapshot> snap = obs::snapshot_metrics();
        obs::set_metrics_enabled(false);
        const Probes pr = run_probes(*w, measured.rounds.front());
        obs::set_tracing_enabled(false);
        metrics = per_layer(*w, name, snap, traced, measured.wall_s, pr);
        const std::vector<Metric> q = quality(*w, measured);
        metrics.insert(metrics.end(), q.begin(), q.end());
        const std::string trace_path = "TRACE_e2e_" + name + ".json";
        obs::write_trace_json(trace_path);
        std::printf("wrote %s\n", trace_path.c_str());
    } else {
        metrics = end_to_end(measured, setup_s, rss_mb);
    }

    const std::string gate = w->check(measured.rounds.front());
    const bool correct = gate.empty() && failed == 0;

    for (const Metric& m : metrics) {
        std::printf("  %-32s %14.6g %-5s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.empty() ? "" : ("(" + m.note + ")").c_str());
    }
    if (o.trace) {
        const auto value = [&](const char* n) {
            return std::find_if(metrics.begin(), metrics.end(),
                                [&](const Metric& m) { return m.name == n; })
                ->value;
        };
        const double litho_share = value("litho.share");
        const double policy_share = value("core.policy_share_est");
        std::printf("  %s is %s-bound: litho %.0f%%, policy %.0f%% (est), residual %.0f%% of busy "
                    "time\n",
                    name == "metal-camo-batched" ? "run_camo_batched" : name.c_str(),
                    litho_share >= policy_share ? "litho" : "policy", 100.0 * litho_share,
                    100.0 * policy_share, 100.0 * value("residual_share"));
    }
    std::printf("  rounds %zu, clips %lld (failed %lld), measured wall %.3f s; round walls s:",
                measured.rounds.size(), attempted, failed, measured.wall_s);
    for (const Round& r : measured.rounds) std::printf(" %.3f", r.wall_s);
    std::printf("\n");
    std::printf("  gate: %s\n", gate.empty() ? "ok" : gate.c_str());
    std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"threads\": %d, \"nproc\": %d, "
                "\"simd\": \"%s\", \"fingerprint\": \"%016llx\"}\n",
                name.c_str(), static_cast<unsigned long long>(o.seed), T,
                runtime::ThreadPool::default_threads(), simd::level_name(simd::active_level()),
                static_cast<unsigned long long>(fp));
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

// ------------------------------------------------------------- all, compare

/// Runs of one workload in a BENCH_e2e.json file.
struct WorkloadRuns {
    std::vector<std::string> fingerprints;
    std::vector<std::pair<std::string, std::vector<double>>> metrics;  ///< file order

    [[nodiscard]] const std::vector<double>* values(const std::string& name) const {
        for (const auto& [n, v] : metrics) {
            if (n == name) return &v;
        }
        return nullptr;
    }
};

using RunsByWorkload = std::vector<std::pair<std::string, WorkloadRuns>>;

WorkloadRuns* find_workload(RunsByWorkload& runs, const std::string& workload) {
    for (auto& [w, wr] : runs) {
        if (w == workload) return &wr;
    }
    return nullptr;
}

RunsByWorkload load_runs(const std::string& path) {
    const json::Value doc = json::parse(read_text(path));
    RunsByWorkload out;
    for (const json::Value& run : doc.at("runs").array) {
        const std::string w = run.at("workload").string;
        WorkloadRuns* wr = find_workload(out, w);
        if (wr == nullptr) wr = &out.emplace_back(w, WorkloadRuns{}).second;
        wr->fingerprints.push_back(run.at("fingerprint").string);
        for (const auto& [name, m] : run.at("metrics").object) {
            auto it = std::find_if(wr->metrics.begin(), wr->metrics.end(),
                                   [&](const auto& e) { return e.first == name; });
            if (it == wr->metrics.end()) {
                it = wr->metrics.emplace(it, name, std::vector<double>{});
            }
            it->second.push_back(m.at("value").number);
        }
    }
    return out;
}

/// Path of this executable, re-run as one child process per workload.
std::string self_path() {
    std::vector<char> buf(4096);
    const ssize_t n = readlink("/proc/self/exe", buf.data(), buf.size() - 1);
    if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
    return {buf.data(), static_cast<std::size_t>(n)};
}

/// Every workload, --repeat times, each in a fresh child process; the runs
/// go to --out and their medians to stdout.
int run_all(const Options& o) {
    const std::string self = self_path();
    std::vector<std::string> runs;
    int failures = 0;
    for (int rep = 0; rep < o.repeat; ++rep) {
        for (const std::string& w : kWorkloads) {
            char args[256];
            std::snprintf(args, sizeof args, " --workload %s --seed %llu --seconds %s --trace %d%s",
                          w.c_str(), static_cast<unsigned long long>(o.seed),
                          json_number(o.seconds).c_str(), o.trace ? 1 : 0,
                          o.smoke ? " --smoke" : "");
            std::FILE* child = popen(("'" + self + "'" + args).c_str(), "r");
            if (child == nullptr) throw std::runtime_error("cannot start " + self);
            std::string line;
            std::string info;
            std::string result;
            char chunk[4096];
            while (std::fgets(chunk, sizeof chunk, child) != nullptr) {
                line += chunk;
                if (line.back() != '\n') continue;
                line.pop_back();
                if (line.rfind("run {", 0) == 0) {
                    info = line.substr(4);
                } else if (line.rfind("{", 0) == 0) {
                    result = line;
                } else {
                    std::printf("%s\n", line.c_str());
                }
                line.clear();
            }
            const int status = pclose(child);
            if (status != 0 || info.empty() || result.empty()) {
                std::printf("FAILED: %s (exit status %d)\n", w.c_str(), status);
                ++failures;
                continue;
            }
            // The child's info and result lines are flat objects: merge them.
            runs.push_back(info.substr(0, info.size() - 1) + ", " + result.substr(1));
        }
    }

    std::string doc = "{\"bench\": \"e2e\", \"seed\": " + std::to_string(o.seed) +
                      ", \"seconds\": " + json_number(o.seconds) +
                      ", \"trace\": " + (o.trace ? "true" : "false") +
                      ", \"smoke\": " + (o.smoke ? "true" : "false") + ", \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        doc += "  " + runs[i] + (i + 1 < runs.size() ? ",\n" : "\n");
    }
    write_text_atomic(o.out, doc + "]}\n");

    std::printf("\nmedians over %d run(s) per workload (%s)\n", o.repeat, o.out.c_str());
    for (auto& [w, wr] : load_runs(o.out)) {
        std::printf("%s  fingerprint %s\n", w.c_str(), wr.fingerprints.front().c_str());
        for (const auto& [name, v] : wr.metrics) {
            std::printf("  %-32s %14.6g\n", name.c_str(), percentile(v, 0.5));
        }
    }
    return failures > 0 ? 1 : 0;
}

/// Verdict per workload x end-to-end metric of B (change) against A
/// (parent), with the direction and bound of each metric from
/// BENCHMARK.json: per-side median and quartiles, the fraction of pairs B
/// wins, then better / worse / unchanged, or unresolved when a side's
/// spread exceeds the bound.
int compare(const Options& o) {
    const json::Value bench = json::parse(read_text("BENCHMARK.json"));
    RunsByWorkload a_runs = load_runs(o.compare_a);
    RunsByWorkload b_runs = load_runs(o.compare_b);
    int worse = 0;
    std::printf("%-20s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "median A",
                "median B", "change", "spread", "wins", "verdict");
    for (auto& [w, a] : a_runs) {
        const WorkloadRuns* b = find_workload(b_runs, w);
        if (b == nullptr) continue;
        std::vector<std::string> fps = a.fingerprints;
        fps.insert(fps.end(), b->fingerprints.begin(), b->fingerprints.end());
        const bool same_fp = std::equal(fps.begin() + 1, fps.end(), fps.begin());
        if (!same_fp) ++worse;
        std::printf("%s: fingerprints %s\n", w.c_str(), same_fp ? "identical" : "DIFFER");
        for (const json::Value& m : bench.at("end_to_end").array) {
            const std::string name = m.at("name").string;
            const std::vector<double>* av = a.values(name);
            const std::vector<double>* bv = b->values(name);
            if (av == nullptr || bv == nullptr) continue;
            // Signed so that a positive difference is a change for the worse.
            const double sign = m.at("better").string == "lower" ? 1.0 : -1.0;
            const double bound = m.at("bound").number;
            const auto qa = quartiles(*av);
            const auto qb = quartiles(*bv);
            const double rel = (qb[1] - qa[1]) / qa[1];
            const double change = sign * rel;
            const double spread_a = (qa[2] - qa[0]) / qa[1];
            const double spread = std::max(spread_a, (qb[2] - qb[0]) / qb[1]);
            const std::size_t pairs = std::min(av->size(), bv->size());
            int wins = 0;
            for (std::size_t i = 0; i < pairs; ++i) wins += sign * ((*bv)[i] - (*av)[i]) < 0.0;
            const double win_frac = static_cast<double>(wins) / static_cast<double>(pairs);
            const auto [a_min, a_max] = std::minmax_element(av->begin(), av->end());
            const auto [b_min, b_max] = std::minmax_element(bv->begin(), bv->end());
            const bool all_better = sign > 0 ? *b_max < *a_min : *b_min > *a_max;
            const char* verdict = "unchanged";
            if (spread > bound) {
                verdict = all_better ? "better" : "unresolved";
            } else if (change > bound) {
                verdict = "worse";
                ++worse;
            } else if (-change > spread_a && win_frac >= 0.9) {
                verdict = "better";
            }
            std::printf("%-20s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n", w.c_str(),
                        name.c_str(), qa[1], qb[1], 100.0 * rel, 100.0 * spread,
                        100.0 * win_frac, verdict);
        }
    }
    return worse > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    bool ok = true;
    bool seconds_set = false;
    for (int i = 1; i < argc && ok; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--workload" && has) {
            o.workload = argv[++i];
            ok = std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) != kWorkloads.end();
        } else if (a == "--seed" && has) {
            ok = parse_u64(argv[++i], o.seed);
        } else if (a == "--seconds" && has) {
            ok = parse_double(argv[++i], o.seconds) && o.seconds > 0;
            seconds_set = true;
        } else if (a == "--trace" && has) {
            const std::string v = argv[++i];
            ok = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--repeat" && has) {
            ok = parse_int(argv[++i], o.repeat) && o.repeat >= 1;
        } else if (a == "--out" && has) {
            o.out = argv[++i];
        } else if (a == "--compare" && i + 2 < argc) {
            o.compare_a = argv[++i];
            o.compare_b = argv[++i];
        } else {
            ok = false;
        }
    }
    if (!ok) {
        std::fprintf(stderr,
                     "usage: bench_e2e [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]"
                     " [--smoke] [--repeat N] [--out FILE]\n"
                     "       bench_e2e --compare A.json B.json\n"
                     "workloads: via-rule, metal-camo-batched, via-chip-serve, train\n");
        return 2;
    }
    if (o.smoke && !seconds_set) o.seconds = 1.0;
    try {
        if (!o.compare_a.empty()) return compare(o);
        return o.workload.empty() ? run_all(o) : run_workload(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
