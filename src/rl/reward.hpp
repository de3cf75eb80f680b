// Paper Equation (3): the per-step reward combining EPE and PV-band
// improvement:
//   r_t = (|EPE_t| - |EPE_{t+1}|) / (|EPE_t| + eps)
//       + beta * (PVB_t - PVB_{t+1}) / PVB_t
// with eps = 0.1 and beta = 1 in the paper's setup.
//
// The window-aware extension scores a step on a full process-window sweep
// (litho::WindowMetrics) instead of the nominal corner: the |EPE| term reads
// the worst corner (or the mean over corners) and the PV term
// the exact union-minus-intersection band. RewardMode::kNominal reduces
// bit-identically to step_reward on the nominal corner's metrics — the two
// formulas are the same function applied to the same doubles.
#pragma once

#include <string>

#include "litho/process_window.hpp"

namespace camo::rl {

struct RewardConfig {
    double epsilon = 0.1;
    double beta = 1.0;
};

/// `epe_*` are the summed |EPE| of the whole layout before/after the step;
/// `pvb_*` the PV band areas. A non-positive PV band before the step
/// contributes no PV term (the paper's formula would divide by zero; this
/// situation means nothing printed yet, where EPE dominates anyway) — the
/// guard is explicit in the implementation and locked down by
/// tests/test_rl_reward.cpp. Throws std::invalid_argument on any non-finite
/// input, mirroring litho::WindowSpec::validate.
double step_reward(double epe_before, double epe_after, double pvb_before, double pvb_after,
                   const RewardConfig& cfg = {});

/// Which corner(s) of the process window the reward — and, through
/// opc::WindowObjective, the OPC engines' feedback — optimizes.
enum class RewardMode {
    kNominal,         ///< legacy Eq. (3): nominal corner only (bit-identical)
    kWorstCorner,     ///< |EPE| of the worst corner + exact PV band
    kWeightedCorner,  ///< mean per-corner |EPE| + exact PV band
};

/// Short stable names ("nominal", "worst-corner", "weighted-corner") for
/// CLI flags, bench rows and logs.
const char* reward_mode_name(RewardMode mode);

/// Inverse of reward_mode_name, tolerant of the short aliases "worst" and
/// "weighted". Returns false (leaving `out` untouched) on any other string.
bool parse_reward_mode(const std::string& name, RewardMode& out);

struct WindowRewardConfig {
    RewardConfig base;  ///< epsilon / beta of the underlying Eq. (3)
    RewardMode mode = RewardMode::kNominal;

    /// Throws std::invalid_argument on a non-finite or non-positive epsilon
    /// or a non-finite beta.
    void validate() const;
};

/// The scalar |EPE| objective of a window under `cfg.mode`: the nominal
/// corner's sum |EPE| (throws std::invalid_argument if the window lacks the
/// (dose 1.0, best focus) corner), the worst corner's, or the uniform mean
/// over corners.
double window_objective_epe(const litho::WindowMetrics& wm, const WindowRewardConfig& cfg);

/// The scalar PV-band objective: in kNominal mode the legacy two-corner band
/// (the quantity the paper's reward consumes; falls back to the exact band
/// when the window lacks the standard focus planes), otherwise the exact
/// band over every corner.
double window_objective_pvb(const litho::WindowMetrics& wm, const WindowRewardConfig& cfg);

/// Window-aware step reward: Eq. (3) applied to the window objectives of the
/// before/after sweeps. With cfg.mode == kNominal this is bit-identical to
/// step_reward(nominal |EPE| before/after, two-corner PVB before/after).
double window_step_reward(const litho::WindowMetrics& before, const litho::WindowMetrics& after,
                          const WindowRewardConfig& cfg = {});

}  // namespace camo::rl
