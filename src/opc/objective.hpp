// The OPC rollout every segment-moving engine steps through, and the
// window objective it evaluates.
//
// Rollout (paper Algorithm 1's inner loop) owns one clip's offsets, metrics
// and histories: construction primes the simulator, step(moves) clamps,
// re-evaluates only what moved and records, should_exit() applies the
// paper's early-exit rules, finish() returns the EngineResult. The rule,
// one-shot and CAMO engines differ only in how they pick moves and when
// they stop.
//
// WindowObjective generalizes the evaluation over the reward modes: in
// kNominal mode it is a zero-cost pass-through to the legacy incremental
// evaluation (bit-identical); in the window modes it evaluates the full dose
// x focus grid through the cached support spectrum (one sparse delta-DFT
// per step serving every corner) and reduces the sweep to a SimMetrics
// "view" whose per-segment EPE, scalar sum and PV band are the objective's,
// so the nominal-vs-window ablation compares engines under identical
// protocols.
#pragma once

#include <optional>
#include <span>

#include "opc/engine.hpp"

namespace camo::opc {

/// Reduce a window sweep to the SimMetrics view that drives engine feedback
/// under `cfg.mode`:
///   * kNominal: the nominal corner's profile, pvband_nm2 = the two-corner
///     band (the exact quantities the legacy loop consumed);
///   * kWorstCorner: the minimax feedback profile — per segment / point,
///     the midpoint of the per-corner EPE range (centring a segment's
///     printed edge across the window minimises its worst-corner |EPE|;
///     chasing the argmax corner's profile oscillates) — with sum_abs_epe =
///     the worst corner's sum |EPE| and pvband_nm2 = the exact band;
///   * kWeightedCorner: the per-segment / per-point mean profile over
///     corners, sum_abs_epe = rl::window_objective_epe, pvband_nm2 = exact
///     band.
litho::SimMetrics objective_view(const litho::WindowMetrics& wm,
                                 const rl::WindowRewardConfig& cfg);

/// Resolved window-objective context for one engine run. Construction
/// resolves opt.window against the simulator's config
/// (litho::WindowSpec::resolved) and validates the reward config; in
/// kNominal mode it is inert.
class WindowObjective {
public:
    WindowObjective(const OpcOptions& opt, const litho::LithoConfig& cfg,
                    const rl::RewardConfig& base = {});

    [[nodiscard]] bool active() const { return reward_.mode != rl::RewardMode::kNominal; }
    [[nodiscard]] const litho::WindowSpec& spec() const { return spec_; }
    [[nodiscard]] const rl::WindowRewardConfig& reward() const { return reward_; }

    /// One evaluation of the objective through the simulator's incremental
    /// cache. Refresh::kPrime (a clip's first evaluation) rebuilds the cache
    /// so job results never depend on what the simulator saw before. Nominal
    /// mode forwards to the nominal LithoSim::evaluate_incremental
    /// (bit-identical to the legacy loop); window modes evaluate the spec
    /// through the same cache and return objective_view. `window` (when
    /// non-null) receives the sweep's per-corner metrics in the window modes
    /// and is reset in nominal mode.
    litho::SimMetrics evaluate(litho::LithoSim& sim, const geo::SegmentedLayout& layout,
                               std::span<const int> offsets, litho::Refresh refresh,
                               std::optional<litho::WindowMetrics>* window = nullptr) const;

private:
    rl::WindowRewardConfig reward_;
    litho::WindowSpec spec_;
};

/// One clip's OPC rollout: the offsets, the objective metrics and the
/// EngineResult histories, advanced one step at a time. Holds non-owning
/// pointers to the layout, the simulator and the options, which must
/// outlive it.
class Rollout {
public:
    /// The mask state a step replaced (moved out, not copied), for callers
    /// that score the transition (phase-2 rewards).
    struct Before {
        litho::SimMetrics metrics;
        std::optional<litho::WindowMetrics> window;
    };

    /// Resolves the window objective (`reward` is its Eq. (3) base), throws
    /// std::invalid_argument naming the field when opt.max_total_offset_nm
    /// < 0 or |opt.initial_bias_nm| exceeds it, then primes `sim` with every
    /// segment at the initial bias (history entry 0).
    Rollout(const geo::SegmentedLayout& layout, litho::LithoSim& sim, const OpcOptions& opt,
            const rl::RewardConfig& reward = {});

    [[nodiscard]] const geo::SegmentedLayout& layout() const { return *layout_; }
    [[nodiscard]] const WindowObjective& objective() const { return objective_; }
    [[nodiscard]] std::span<const int> offsets() const { return res_.final_offsets; }
    /// The objective view of the current mask (see objective_view).
    [[nodiscard]] const litho::SimMetrics& metrics() const { return res_.final_metrics; }
    /// The current mask's window sweep; empty in kNominal mode.
    [[nodiscard]] const std::optional<litho::WindowMetrics>& window() const {
        return res_.final_window;
    }
    [[nodiscard]] int iterations() const { return res_.iterations; }

    /// True when either of the paper's early-exit rules fires on the
    /// current objective sum (should_exit_early).
    [[nodiscard]] bool should_exit() const;

    /// Moves segment i by moves[i] nm, clamped to +/-max_total_offset_nm,
    /// re-evaluates only what moved (Refresh::kUpdate), appends one
    /// history entry and counts one iteration. Throws
    /// std::invalid_argument unless there is one move per segment.
    Before step(std::span<const int> moves);

    /// The finished result with `runtime_s` as its wall time; the rollout
    /// is spent afterwards.
    EngineResult finish(double runtime_s);

private:
    const geo::SegmentedLayout* layout_;
    litho::LithoSim* sim_;
    const OpcOptions* opt_;
    WindowObjective objective_;
    int features_ = 0;
    int points_ = 0;
    EngineResult res_;
};

}  // namespace camo::opc
