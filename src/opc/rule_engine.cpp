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
    std::vector<int> moves;
    for (int t = 0; t < steps; ++t) {
        // Step into state t only when it is recorded: the state after the
        // last move would label nothing, so it is never evaluated.
        if (t > 0) rollout.step(moves);
        // Teacher moves clamped to the learned engines' action space.
        moves = feedback_moves(rollout.metrics().epe_segment, opt_.gain, 2);

        rl::StepRecord& rec = traj.steps.emplace_back();
        rec.offsets_before.assign(rollout.offsets().begin(), rollout.offsets().end());
        rec.actions.reserve(moves.size());
        for (int mv : moves) rec.actions.push_back(rl::move_to_action(mv));
    }
    return traj;
}

}  // namespace camo::opc
