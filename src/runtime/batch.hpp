// Batch-OPC runtime: shard a stream of clips across a work-stealing thread
// pool.
//
// Two ways to consume results. run_streaming(clips, sink) is the core: per-
// clip results flow out through a bounded MPMC queue as workers finish, with
// backpressure on the workers when the sink falls behind — the shape a full-
// chip tile stream (layout/shard.hpp) and the serve loop (service/) need.
// run() is a thin wrapper that collects the stream into one clip-ordered
// BatchResult behind a barrier, for paper-scale batches.
//
// Full-chip mask optimization is embarrassingly parallel across clips, so
// the scheduler gives every pool worker its own LithoSim (a cheap copy — all
// workers share one immutable SOCS kernel set via the kernel registry) and
// runs one clip per task. Learned engines are shared as a read-only
// CamoEngine snapshot: CamoEngine::infer() is const and thread-safe, so N
// workers infer concurrently without copying or retraining the policy.
//
// Determinism contract: a job's result depends only on (its layout, the
// batch seed, its clip index) — per-job seeds come from common/rng.hpp
// splitmix, never from shared mutable engine state — so per-clip results
// are bit-identical at any thread count. The per-simulator incremental
// evaluation cache preserves this: every engine primes it with a full
// rebuild on its first evaluation of a clip, so whatever a worker's
// simulator evaluated before cannot leak into the next job's results.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/camo.hpp"
#include "geometry/layout.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"
#include "opc/engine.hpp"
#include "opc/rule_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace camo::runtime {

struct BatchOptions {
    int threads = 0;             ///< worker count; <= 0 selects all hardware threads
    std::uint64_t seed = 42;     ///< batch seed; job i runs with derive_seed(seed, i)
    /// Per-clip OPC protocol (iterations, exits, bias). `opc.window` is the
    /// batch's one process window: the scheduler resolves it once
    /// (litho::WindowSpec::resolved) when `window` is set or the objective
    /// is not nominal.
    opc::OpcOptions opc;

    /// Window mode: report every clip's final mask at every corner of
    /// opc.window (ClipResult::window). In reward mode (opc.objective !=
    /// kNominal) the engines already swept that window in-loop and the
    /// final sweep is reused; otherwise the sweep rides the worker
    /// simulator's incremental cache, which the engine just primed with the
    /// final offsets, so it typically costs one aerial per focus plane.
    bool window = false;
};

/// Outcome of one clip job. `error` is non-empty when the job threw; the
/// remaining clips of the batch are unaffected.
struct ClipResult {
    int index = -1;
    std::string name;
    int segments = 0;
    int iterations = 0;
    double initial_epe = 0.0;   ///< sum |EPE| of the starting mask
    double final_epe = 0.0;     ///< sum |EPE| after OPC
    double pvband_nm2 = 0.0;
    double runtime_s = 0.0;     ///< per-clip engine wall time
    std::vector<int> offsets;   ///< final per-segment offsets
    std::optional<litho::WindowMetrics> window;  ///< populated in window mode
    std::string error;
};

/// Aggregated batch outcome, in clip-index order.
struct BatchResult {
    std::vector<ClipResult> clips;
    bool window_mode = false;  ///< window sweep or window reward mode active
    rl::RewardMode reward_mode = rl::RewardMode::kNominal;
    int threads = 1;
    double wall_s = 0.0;            ///< end-to-end batch wall time
    double throughput_cps = 0.0;    ///< successful clips per second
    long long litho_evaluations = 0;
    long long incremental_hits = 0;   ///< evaluations served by the sparse delta path
    long long incremental_fulls = 0;  ///< evaluate_incremental calls that ran full
    int failed = 0;
    double sum_initial_epe = 0.0;
    double sum_final_epe = 0.0;
    double sum_pvband_nm2 = 0.0;
    double sum_clip_runtime_s = 0.0;  ///< summed per-clip time (vs wall_s = parallel time)

    // Window-mode aggregates over successful clips (0 outside window mode).
    double sum_worst_window_epe = 0.0;
    double sum_pv_band_exact_nm2 = 0.0;

    /// Successful clip count (clips.size() - failed).
    [[nodiscard]] int ok() const { return static_cast<int>(clips.size()) - failed; }

    /// Fraction of litho evaluations served by the incremental path.
    [[nodiscard]] double incremental_hit_rate() const {
        const long long total = incremental_hits + incremental_fulls;
        return total > 0 ? static_cast<double>(incremental_hits) / static_cast<double>(total)
                         : 0.0;
    }

    // Per-clip averages over successful clips. Every ratio below is guarded
    // against zero-evaluation batches (no clips, or all failed): an empty
    // run reports zeros, never NaN.
    [[nodiscard]] double avg_final_epe() const { return per_ok(sum_final_epe); }
    [[nodiscard]] double avg_pvband_nm2() const { return per_ok(sum_pvband_nm2); }
    [[nodiscard]] double avg_clip_runtime_s() const { return per_ok(sum_clip_runtime_s); }
    [[nodiscard]] double avg_worst_window_epe() const { return per_ok(sum_worst_window_epe); }
    [[nodiscard]] double avg_pv_band_exact_nm2() const { return per_ok(sum_pv_band_exact_nm2); }

    /// One-line human-readable digest.
    [[nodiscard]] std::string summary() const;

private:
    [[nodiscard]] double per_ok(double sum) const { return ok() > 0 ? sum / ok() : 0.0; }
};

/// Per-clip optimizer run by the workers. Called concurrently: it must only
/// mutate the passed simulator (worker-private) and local state. `job_seed`
/// is derive_seed(batch seed, clip index).
using ClipOptimizer = std::function<opc::EngineResult(
    const geo::SegmentedLayout& layout, litho::LithoSim& sim, const opc::OpcOptions& opt,
    std::uint64_t job_seed)>;

/// Streaming consumer: receives each ClipResult as soon as its worker
/// finishes (completion order, not clip order — ClipResult::index says which
/// clip it is). Runs on the thread that called run_streaming, never
/// concurrently with itself. Throwing aborts the stream: in-flight jobs are
/// drained (their results discarded) and the exception propagates.
using ClipSink = std::function<void(ClipResult&&)>;

/// Knobs for the streaming path.
struct StreamOptions {
    /// Bounded hand-off queue between workers and the sink. When the sink
    /// falls behind by this many results, workers block (backpressure)
    /// instead of buffering a whole chip. Must be >= 1; rejected with
    /// std::invalid_argument otherwise.
    int queue_capacity = 64;
};

/// What run_streaming reports after the stream ends. Per-clip payloads went
/// to the sink; this is only the envelope.
struct StreamStats {
    int delivered = 0;  ///< results handed to the sink (including failed ones)
    int failed = 0;     ///< delivered results with a non-empty error
    double wall_s = 0.0;
    long long litho_evaluations = 0;
    long long incremental_hits = 0;   ///< evaluations served by the sparse delta path
    long long incremental_fulls = 0;  ///< evaluate_incremental calls that ran full
};

/// Shards clip jobs over a worker pool. Construction acquires the shared
/// kernels once and stamps out one simulator per worker; run() may be called
/// any number of times on the same scheduler.
class BatchScheduler {
public:
    explicit BatchScheduler(const litho::LithoConfig& litho_cfg, BatchOptions opt = {});

    [[nodiscard]] int threads() const { return pool_.size(); }
    [[nodiscard]] const BatchOptions& options() const { return opt_; }

    /// Streaming core: run `optimize` on every clip, delivering each result
    /// to `sink` as it completes, through a bounded queue that blocks
    /// workers when the sink falls behind. Job failures are recorded in
    /// ClipResult::error and still delivered; the per-clip results are
    /// bit-identical to run()'s at any thread count and queue capacity
    /// (only delivery order varies). Throws std::invalid_argument on a
    /// non-positive queue capacity, and propagates a sink exception after
    /// unwinding the worker fleet.
    StreamStats run_streaming(const std::vector<geo::SegmentedLayout>& clips,
                              const ClipOptimizer& optimize, const ClipSink& sink,
                              const std::vector<std::string>& names = {},
                              const StreamOptions& stream = {});

    /// Run `optimize` on every clip; never throws on job failure (failures
    /// are recorded per clip). A thin wrapper that collects the streaming
    /// core into a clip-index-ordered BatchResult.
    BatchResult run(const std::vector<geo::SegmentedLayout>& clips,
                    const ClipOptimizer& optimize, const std::vector<std::string>& names = {});

    /// Rule-engine batch (one engine instance per job; stateless and cheap).
    BatchResult run_rule(const std::vector<geo::SegmentedLayout>& clips,
                         const opc::RuleEngineOptions& engine_opt = {},
                         const std::vector<std::string>& names = {});

    /// CAMO batch over one shared, read-only trained engine snapshot.
    BatchResult run_camo(const std::vector<geo::SegmentedLayout>& clips,
                         const core::CamoEngine& engine,
                         const std::vector<std::string>& names = {});

    /// CAMO batch through the batched inference path: instead of one thread
    /// per clip, all clips advance in lockstep waves on the calling thread
    /// and each wave issues ONE batched policy forward
    /// (CamoEngine::infer_batch) over every clip awaiting an action. Per-clip
    /// results are identical to run_camo()'s on the same backend, so this is a
    /// throughput knob for the policy-bound regime (many small clips), not a
    /// semantic switch. BatchResult::threads reports 1: the litho evaluation
    /// is serial here, only the policy math is batched.
    BatchResult run_camo_batched(const std::vector<geo::SegmentedLayout>& clips,
                                 const core::CamoEngine& engine,
                                 const std::vector<std::string>& names = {});

private:
    /// The result fields of `out` from one clip's engine result (the shared
    /// EngineResult -> ClipResult conversion of every run path). The final
    /// sweep is the engine's when it returned one, else (in window mode)
    /// from `sim`, the simulator the engine just ran on.
    void fill_result(ClipResult& out, opc::EngineResult res, litho::LithoSim& sim,
                     const geo::SegmentedLayout& layout) const;

    /// The clip-ordered BatchResult of `clips` with its aggregates, from the
    /// stream envelope of the run that produced them.
    BatchResult collect(std::vector<ClipResult> clips, const StreamStats& stats,
                        int threads) const;

    BatchOptions opt_;
    ThreadPool pool_;
    std::vector<litho::LithoSim> sims_;  // one per worker, sharing one kernel set
};

}  // namespace camo::runtime
