#include "rl/reward.hpp"

#include <cmath>
#include <stdexcept>

namespace camo::rl {

double step_reward(double epe_before, double epe_after, double pvb_before, double pvb_after,
                   const RewardConfig& cfg) {
    if (!std::isfinite(epe_before) || !std::isfinite(epe_after) || !std::isfinite(pvb_before) ||
        !std::isfinite(pvb_after)) {
        throw std::invalid_argument("step_reward: non-finite input");
    }
    if (!std::isfinite(cfg.epsilon) || cfg.epsilon <= 0.0) {
        throw std::invalid_argument("step_reward: epsilon must be finite and > 0");
    }
    if (!std::isfinite(cfg.beta)) {
        throw std::invalid_argument("step_reward: beta must be finite");
    }
    const double epe_term =
        (std::abs(epe_before) - std::abs(epe_after)) / (std::abs(epe_before) + cfg.epsilon);
    // Explicit zero-PVB guard: a mask that prints nothing has no band to
    // improve, so the PV term vanishes instead of dividing by zero.
    double pvb_term = 0.0;
    if (pvb_before > 0.0) pvb_term = cfg.beta * (pvb_before - pvb_after) / pvb_before;
    return epe_term + pvb_term;
}

const char* reward_mode_name(RewardMode mode) {
    switch (mode) {
        case RewardMode::kNominal:
            return "nominal";
        case RewardMode::kWorstCorner:
            return "worst-corner";
        case RewardMode::kWeightedCorner:
            return "weighted-corner";
    }
    return "unknown";
}

bool parse_reward_mode(const std::string& name, RewardMode& out) {
    if (name == "nominal") {
        out = RewardMode::kNominal;
    } else if (name == "worst" || name == "worst-corner") {
        out = RewardMode::kWorstCorner;
    } else if (name == "weighted" || name == "weighted-corner") {
        out = RewardMode::kWeightedCorner;
    } else {
        return false;
    }
    return true;
}

void WindowRewardConfig::validate() const {
    if (!std::isfinite(base.epsilon) || base.epsilon <= 0.0) {
        throw std::invalid_argument("WindowRewardConfig: epsilon must be finite and > 0");
    }
    if (!std::isfinite(base.beta)) {
        throw std::invalid_argument("WindowRewardConfig: beta must be finite");
    }
}

double window_objective_epe(const litho::WindowMetrics& wm, const WindowRewardConfig& cfg) {
    switch (cfg.mode) {
        case RewardMode::kNominal: {
            const litho::CornerResult* nominal = wm.nominal_corner();
            if (nominal == nullptr) {
                throw std::invalid_argument(
                    "window_objective_epe: window lacks the nominal corner");
            }
            return nominal->metrics.sum_abs_epe;
        }
        case RewardMode::kWorstCorner:
            return wm.worst_epe;
        case RewardMode::kWeightedCorner: {
            double sum = 0.0;
            for (const litho::CornerResult& c : wm.corners) sum += c.metrics.sum_abs_epe;
            return wm.corners.empty() ? 0.0 : sum / static_cast<double>(wm.corners.size());
        }
    }
    throw std::logic_error("window_objective_epe: unknown mode");
}

double window_objective_pvb(const litho::WindowMetrics& wm, const WindowRewardConfig& cfg) {
    if (cfg.mode == RewardMode::kNominal) {
        // The legacy reward consumed SimMetrics::pvband_nm2, which the sweep
        // reports exactly as the two-corner band; -1 marks a window without
        // the standard focus planes, where the exact band stands in.
        return wm.pv_band_two_corner_nm2 >= 0.0 ? wm.pv_band_two_corner_nm2
                                                : wm.pv_band_exact_nm2;
    }
    return wm.pv_band_exact_nm2;
}

double window_step_reward(const litho::WindowMetrics& before, const litho::WindowMetrics& after,
                          const WindowRewardConfig& cfg) {
    return step_reward(window_objective_epe(before, cfg), window_objective_epe(after, cfg),
                       window_objective_pvb(before, cfg), window_objective_pvb(after, cfg),
                       cfg.base);
}

}  // namespace camo::rl
