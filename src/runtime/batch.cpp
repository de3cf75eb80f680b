#include "runtime/batch.hpp"

#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "litho/kernel_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/stream_queue.hpp"

namespace camo::runtime {

namespace {

// Migrated BatchResult counters: the registry deltas recorded at the end of
// run() equal the litho_evaluations / incremental_hits / incremental_fulls
// fields of the BatchResult returned by that run.
obs::MetricId clips_counter() {
    static const obs::MetricId id = obs::register_counter("batch.clips");
    return id;
}
obs::MetricId failed_counter() {
    static const obs::MetricId id = obs::register_counter("batch.failed");
    return id;
}
obs::MetricId batch_evals_counter() {
    static const obs::MetricId id = obs::register_counter("batch.litho_evaluations");
    return id;
}
obs::MetricId batch_hits_counter() {
    static const obs::MetricId id = obs::register_counter("batch.incremental_hits");
    return id;
}
obs::MetricId batch_fulls_counter() {
    static const obs::MetricId id = obs::register_counter("batch.incremental_fulls");
    return id;
}
obs::MetricId batch_hist() {
    static const obs::MetricId id = obs::register_histogram("batch.run.ns");
    return id;
}
obs::MetricId clip_hist() {
    static const obs::MetricId id = obs::register_histogram("batch.clip.ns");
    return id;
}
obs::MetricId queue_depth_gauge() {
    static const obs::MetricId id = obs::register_gauge("batch.queue.depth");
    return id;
}
obs::MetricId inflight_gauge() {
    static const obs::MetricId id = obs::register_gauge("batch.inflight");
    return id;
}

// Adds the litho counters of `sims` to `stats`, times `sign` (-1 takes a
// baseline out).
void add_litho_counters(StreamStats& stats, std::span<const litho::LithoSim> sims,
                        long long sign = 1) {
    for (const litho::LithoSim& sim : sims) {
        stats.litho_evaluations += sign * sim.evaluate_count();
        stats.incremental_hits += sign * sim.incremental_hit_count();
        stats.incremental_fulls += sign * sim.incremental_full_count();
    }
}

// The batch.* counters of one finished stream or batch.
void emit_batch_counters(const StreamStats& stats) {
    obs::counter_add(clips_counter(), stats.delivered);
    obs::counter_add(failed_counter(), stats.failed);
    obs::counter_add(batch_evals_counter(), stats.litho_evaluations);
    obs::counter_add(batch_hits_counter(), stats.incremental_hits);
    obs::counter_add(batch_fulls_counter(), stats.incremental_fulls);
}

}  // namespace

std::string BatchResult::summary() const {
    char buf[448];
    std::snprintf(buf, sizeof buf,
                  "%zu clips (%d failed) on %d threads: wall %.2fs, %.2f clips/s, "
                  "sum|EPE| %.1f -> %.1f nm (avg %.1f), PVB %.0f nm^2, %lld litho evals "
                  "(%.0f%% incremental)",
                  clips.size(), failed, threads, wall_s, throughput_cps, sum_initial_epe,
                  sum_final_epe, avg_final_epe(), sum_pvband_nm2, litho_evaluations,
                  100.0 * incremental_hit_rate());
    std::string out = buf;
    if (reward_mode != rl::RewardMode::kNominal) {
        std::snprintf(buf, sizeof buf, "; reward %s", rl::reward_mode_name(reward_mode));
        out += buf;
    }
    if (window_mode) {
        std::snprintf(buf, sizeof buf,
                      "; window: worst|EPE| avg %.1f nm, exact PVB avg %.0f nm^2",
                      avg_worst_window_epe(), avg_pv_band_exact_nm2());
        out += buf;
    }
    return out;
}

BatchScheduler::BatchScheduler(const litho::LithoConfig& litho_cfg, BatchOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads) {
    if (opt_.window || opt_.opc.objective != rl::RewardMode::kNominal) {
        opt_.opc.window = opt_.opc.window.resolved(litho_cfg);
        // Resolve the per-focus kernel sets once, up front: workers then hit
        // the registry's fast path instead of racing the first build.
        for (double f : opt_.opc.window.defocus_nm) {
            (void)litho::acquire_focus_applicator(litho_cfg, f);
        }
    }
    // The first simulator builds (or loads) the shared kernels; the copies
    // are shallow and per-worker so evaluation counters stay uncontended.
    sims_.reserve(static_cast<std::size_t>(pool_.size()));
    litho::LithoSim prototype(litho_cfg);
    for (int i = 0; i < pool_.size(); ++i) sims_.emplace_back(prototype);
}

StreamStats BatchScheduler::run_streaming(const std::vector<geo::SegmentedLayout>& clips,
                                          const ClipOptimizer& optimize, const ClipSink& sink,
                                          const std::vector<std::string>& names,
                                          const StreamOptions& stream) {
    if (stream.queue_capacity < 1) {
        throw std::invalid_argument("run_streaming: queue_capacity must be at least 1, got " +
                                    std::to_string(stream.queue_capacity));
    }
    const obs::Span run_span("batch.run", batch_hist());
    Timer wall;
    StreamStats stats;
    add_litho_counters(stats, sims_, -1);

    BoundedQueue<ClipResult> queue(static_cast<std::size_t>(stream.queue_capacity));
    std::vector<std::future<void>> jobs;
    jobs.reserve(clips.size());
    // Jobs never leak exceptions (failures become ClipResult::error), so a
    // drain only synchronizes; it cannot throw job errors.
    const auto drain = [&jobs] {
        for (std::future<void>& f : jobs) {
            try {
                f.get();
            } catch (...) {  // defensive: nothing to do mid-unwind
            }
        }
    };

    try {
        for (std::size_t i = 0; i < clips.size(); ++i) {
            const geo::SegmentedLayout& layout = clips[i];
            const std::uint64_t job_seed = derive_seed(opt_.seed, i);
            std::string name = i < names.size() ? names[i] : std::string();

            jobs.push_back(pool_.submit([this, &optimize, &layout, &queue, job_seed,
                                         name = std::move(name), i] {
                const obs::Span clip_span("batch.clip", clip_hist());
                const obs::ScopedGaugeAdd inflight(inflight_gauge(), 1.0);
                const int worker = pool_.worker_index();
                litho::LithoSim& sim = sims_[static_cast<std::size_t>(worker < 0 ? 0 : worker)];
                ClipResult out;
                out.index = static_cast<int>(i);
                out.name = name;
                try {
                    out.segments = layout.num_segments();
                    fill_result(out, optimize(layout, sim, opt_.opc, job_seed), sim, layout);
                } catch (const std::exception& e) {
                    out.error = e.what();
                } catch (...) {
                    out.error = "unknown error";
                }
                // push() blocks while the sink is `queue_capacity` results
                // behind (backpressure) and returns false after an abort, in
                // which case the result is dropped on purpose.
                (void)queue.push(std::move(out));
            }));
        }

        for (std::size_t received = 0; received < clips.size(); ++received) {
            std::optional<ClipResult> res = queue.pop();
            if (!res) break;  // aborted (cannot happen on this path otherwise)
            obs::gauge_set(queue_depth_gauge(), static_cast<double>(queue.size()));
            ++stats.delivered;
            if (!res->error.empty()) ++stats.failed;
            sink(std::move(*res));
        }
    } catch (...) {
        // A failed submit (e.g. bad_alloc) or a throwing sink must not
        // unwind while workers still hold references into `clips`/`queue`:
        // abort releases every producer blocked in push(), then the drain
        // joins the fleet before the exception leaves this frame.
        queue.abort();
        drain();
        throw;
    }
    queue.close();
    drain();

    stats.wall_s = wall.seconds();
    add_litho_counters(stats, sims_);
    emit_batch_counters(stats);
    return stats;
}

void BatchScheduler::fill_result(ClipResult& out, opc::EngineResult res, litho::LithoSim& sim,
                                 const geo::SegmentedLayout& layout) const {
    out.iterations = res.iterations;
    out.initial_epe = res.epe_history.empty() ? 0.0 : res.epe_history.front();
    out.final_epe = res.final_metrics.sum_abs_epe;
    out.pvband_nm2 = res.final_metrics.pvband_nm2;
    out.runtime_s = res.runtime_s;
    if (res.final_window) {
        // Window reward mode: the engine's in-loop sweep already evaluated
        // the final mask at every corner of opc.window.
        out.window = std::move(res.final_window);
    } else if (opt_.window) {
        // The engine's last incremental evaluation primed `sim`'s cache at
        // (or near) the final offsets, so the sweep reuses the cached raster
        // + spectrum; the cache was primed by this clip's rollout, so
        // results stay independent of scheduling order.
        out.window = sim.evaluate_incremental(layout, res.final_offsets, opt_.opc.window,
                                              litho::Refresh::kUpdate);
    }
    out.offsets = std::move(res.final_offsets);
}

BatchResult BatchScheduler::collect(std::vector<ClipResult> clips, const StreamStats& stats,
                                    int threads) const {
    BatchResult batch;
    batch.clips = std::move(clips);
    batch.reward_mode = opt_.opc.objective;
    batch.window_mode = opt_.window || opt_.opc.objective != rl::RewardMode::kNominal;
    batch.threads = threads;
    batch.wall_s = stats.wall_s;
    for (const ClipResult& c : batch.clips) {
        if (!c.error.empty()) {
            ++batch.failed;
            continue;
        }
        batch.sum_initial_epe += c.initial_epe;
        batch.sum_final_epe += c.final_epe;
        batch.sum_pvband_nm2 += c.pvband_nm2;
        batch.sum_clip_runtime_s += c.runtime_s;
        if (c.window) {
            batch.sum_worst_window_epe += c.window->worst_epe;
            batch.sum_pv_band_exact_nm2 += c.window->pv_band_exact_nm2;
        }
    }
    batch.litho_evaluations = stats.litho_evaluations;
    batch.incremental_hits = stats.incremental_hits;
    batch.incremental_fulls = stats.incremental_fulls;
    batch.throughput_cps = batch.wall_s > 0.0 ? batch.ok() / batch.wall_s : 0.0;
    return batch;
}

BatchResult BatchScheduler::run(const std::vector<geo::SegmentedLayout>& clips,
                                const ClipOptimizer& optimize,
                                const std::vector<std::string>& names) {
    std::vector<ClipResult> results(clips.size());
    const StreamStats stats = run_streaming(
        clips, optimize,
        [&results](ClipResult&& res) {
            results[static_cast<std::size_t>(res.index)] = std::move(res);
        },
        names);
    return collect(std::move(results), stats, pool_.size());
}

BatchResult BatchScheduler::run_rule(const std::vector<geo::SegmentedLayout>& clips,
                                     const opc::RuleEngineOptions& engine_opt,
                                     const std::vector<std::string>& names) {
    return run(
        clips,
        [engine_opt](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                     const opc::OpcOptions& opt, std::uint64_t /*job_seed*/) {
            opc::RuleEngine engine(engine_opt);
            return engine.optimize(layout, sim, opt);
        },
        names);
}

BatchResult BatchScheduler::run_camo_batched(const std::vector<geo::SegmentedLayout>& clips,
                                             const core::CamoEngine& engine,
                                             const std::vector<std::string>& names) {
    const obs::Span run_span("batch.run", batch_hist());
    Timer wall;
    std::vector<ClipResult> results(clips.size());
    for (std::size_t i = 0; i < clips.size(); ++i) {
        results[i].index = static_cast<int>(i);
        if (i < names.size()) results[i].name = names[i];
        results[i].segments = clips[i].num_segments();
    }

    // One simulator per clip (the incremental cache is per-instance). The
    // copies share the worker simulators' kernel set and start with zero
    // counters, so their sums are this batch's litho counters.
    std::vector<litho::LithoSim> csims;
    csims.reserve(clips.size());
    for (std::size_t i = 0; i < clips.size(); ++i) csims.emplace_back(sims_.front());

    StreamStats stats;
    try {
        std::vector<opc::EngineResult> engine_results =
            engine.infer_batch(clips, csims, opt_.opc);
        for (std::size_t i = 0; i < clips.size(); ++i) {
            fill_result(results[i], std::move(engine_results[i]), csims[i], clips[i]);
        }
    } catch (const std::exception& e) {
        // The lockstep rollout is all-or-nothing; attribute the failure to
        // every clip rather than guessing which one threw.
        for (ClipResult& c : results) c.error = e.what();
    }
    stats.wall_s = wall.seconds();
    stats.delivered = static_cast<int>(results.size());
    for (const ClipResult& c : results) stats.failed += c.error.empty() ? 0 : 1;
    add_litho_counters(stats, csims);
    emit_batch_counters(stats);
    return collect(std::move(results), stats, 1);
}

BatchResult BatchScheduler::run_camo(const std::vector<geo::SegmentedLayout>& clips,
                                     const core::CamoEngine& engine,
                                     const std::vector<std::string>& names) {
    return run(
        clips,
        [&engine](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                  const opc::OpcOptions& opt,
                  std::uint64_t /*job_seed*/) { return engine.infer(layout, sim, opt); },
        names);
}

}  // namespace camo::runtime
