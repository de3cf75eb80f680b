#include "opc/rule_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "opc/objective.hpp"

namespace camo::opc {

bool should_exit_early(double sum_abs_epe, int num_features, int num_points,
                       const OpcOptions& opt) {
    if (opt.exit_epe_per_feature > 0.0 && num_features > 0 &&
        sum_abs_epe / num_features < opt.exit_epe_per_feature) {
        return true;
    }
    if (opt.exit_epe_per_point > 0.0 && num_points > 0 &&
        sum_abs_epe / num_points < opt.exit_epe_per_point) {
        return true;
    }
    return false;
}

namespace {

// One damped feedback step: returns the movement (nm) for each segment.
std::vector<int> feedback_moves(const std::vector<double>& epe_segment, double gain,
                                int max_step) {
    std::vector<int> moves(epe_segment.size(), 0);
    for (std::size_t i = 0; i < epe_segment.size(); ++i) {
        // Positive EPE = contour outside the target -> move inward (negative).
        const double desired = -gain * epe_segment[i];
        const int step = static_cast<int>(std::lround(desired));
        moves[i] = std::clamp(step, -max_step, max_step);
    }
    return moves;
}

}  // namespace

EngineResult RuleEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                  const OpcOptions& opt) {
    Timer timer;
    Rollout rollout(layout, sim, opt);
    while (rollout.iterations() < opt.max_iterations &&
           !(opt_.early_exit && rollout.should_exit())) {
        rollout.step(feedback_moves(rollout.metrics().epe_segment, opt_.gain, opt_.max_step_nm));
    }
    return rollout.finish(timer.seconds());
}

rl::Trajectory RuleEngine::record_trajectory(const geo::SegmentedLayout& layout,
                                             litho::LithoSim& sim, const OpcOptions& opt,
                                             int steps) const {
    rl::Trajectory traj;
    Rollout rollout(layout, sim, opt);

    const auto corner_epes = [](const litho::WindowMetrics& wm) {
        std::vector<double> epes;
        epes.reserve(wm.corners.size());
        for (const litho::CornerResult& c : wm.corners) epes.push_back(c.metrics.sum_abs_epe);
        return epes;
    };

    for (int t = 0; t < steps; ++t) {
        const litho::SimMetrics& m = rollout.metrics();
        const std::optional<litho::WindowMetrics>& window = rollout.window();
        // Teacher moves clamped to the learned engines' action space.
        const auto moves = feedback_moves(m.epe_segment, opt_.gain, 2);

        rl::StepRecord rec;
        rec.offsets_before.assign(rollout.offsets().begin(), rollout.offsets().end());
        rec.sum_abs_epe_before = m.sum_abs_epe;
        rec.pvband_before = m.pvband_nm2;
        if (window) {
            rec.worst_epe_before = window->worst_epe;
            rec.pv_band_exact_before = window->pv_band_exact_nm2;
            rec.corner_epe_before = corner_epes(*window);
        }
        rec.actions.reserve(moves.size());
        for (int mv : moves) rec.actions.push_back(rl::move_to_action(mv));
        traj.steps.push_back(std::move(rec));

        rollout.step(moves);
    }
    const litho::SimMetrics& m = rollout.metrics();
    traj.final_sum_abs_epe = m.sum_abs_epe;
    traj.final_pvband = m.pvband_nm2;
    if (const std::optional<litho::WindowMetrics>& window = rollout.window()) {
        traj.final_worst_epe = window->worst_epe;
        traj.final_pv_band_exact = window->pv_band_exact_nm2;
        traj.final_corner_epe = corner_epes(*window);
    }
    return traj;
}

}  // namespace camo::opc
