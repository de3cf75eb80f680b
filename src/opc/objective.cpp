#include "opc/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace camo::opc {

litho::SimMetrics objective_view(const litho::WindowMetrics& wm,
                                 const rl::WindowRewardConfig& cfg) {
    litho::SimMetrics view;
    switch (cfg.mode) {
        case rl::RewardMode::kNominal: {
            const litho::CornerResult* nominal = wm.nominal_corner();
            if (nominal == nullptr) {
                throw std::invalid_argument("objective_view: window lacks the nominal corner");
            }
            view = nominal->metrics;
            break;
        }
        case rl::RewardMode::kWorstCorner: {
            if (wm.worst_corner < 0 ||
                wm.worst_corner >= static_cast<int>(wm.corners.size())) {
                throw std::invalid_argument("objective_view: window has no worst corner");
            }
            // Minimax feedback: a segment move shifts every corner's printed
            // edge by roughly the same amount, so the move that minimises a
            // segment's worst-corner |EPE| is the one that centres its
            // per-corner EPE range. Chasing the argmax corner's profile
            // instead oscillates — the worst corner flips between the
            // underprinting and overprinting extremes every iteration.
            const std::size_t points = wm.corners.front().metrics.epe.size();
            const std::size_t segments = wm.corners.front().metrics.epe_segment.size();
            const auto range_midpoints = [&wm](std::size_t count, auto&& values) {
                std::vector<double> mid(count, 0.0);
                for (std::size_t i = 0; i < count; ++i) {
                    double lo = values(wm.corners.front().metrics, i);
                    double hi = lo;
                    for (const litho::CornerResult& c : wm.corners) {
                        const double e = values(c.metrics, i);
                        lo = std::min(lo, e);
                        hi = std::max(hi, e);
                    }
                    mid[i] = 0.5 * (lo + hi);
                }
                return mid;
            };
            view.epe = range_midpoints(
                points, [](const litho::SimMetrics& m, std::size_t i) { return m.epe[i]; });
            view.epe_segment = range_midpoints(
                segments,
                [](const litho::SimMetrics& m, std::size_t i) { return m.epe_segment[i]; });
            break;
        }
        case rl::RewardMode::kWeightedCorner: {
            if (wm.corners.empty()) {
                throw std::invalid_argument("objective_view: window has no corners");
            }
            const std::size_t points = wm.corners.front().metrics.epe.size();
            const std::size_t segments = wm.corners.front().metrics.epe_segment.size();
            view.epe.assign(points, 0.0);
            view.epe_segment.assign(segments, 0.0);
            for (const litho::CornerResult& c : wm.corners) {
                for (std::size_t i = 0; i < points; ++i) view.epe[i] += c.metrics.epe[i];
                for (std::size_t i = 0; i < segments; ++i) {
                    view.epe_segment[i] += c.metrics.epe_segment[i];
                }
            }
            const double count = static_cast<double>(wm.corners.size());
            for (double& e : view.epe) e /= count;
            for (double& e : view.epe_segment) e /= count;
            break;
        }
    }
    // The scalar objective and band come from the shared reward reductions,
    // so window_step_reward on the (before, after) sweeps equals step_reward
    // on the (before, after) views by construction.
    view.sum_abs_epe = rl::window_objective_epe(wm, cfg);
    view.pvband_nm2 = rl::window_objective_pvb(wm, cfg);
    return view;
}

WindowObjective::WindowObjective(const OpcOptions& opt, const litho::LithoConfig& cfg,
                                 const rl::RewardConfig& base) {
    reward_.base = base;
    reward_.mode = opt.objective;
    if (!active()) return;
    spec_ = opt.window.resolved(cfg);
    reward_.validate();
}

litho::SimMetrics WindowObjective::evaluate(litho::LithoSim& sim,
                                            const geo::SegmentedLayout& layout,
                                            std::span<const int> offsets, litho::Refresh refresh,
                                            std::optional<litho::WindowMetrics>* window) const {
    if (!active()) {
        if (window != nullptr) window->reset();
        return sim.evaluate_incremental(layout, offsets, refresh);
    }
    litho::WindowMetrics wm = sim.evaluate_incremental(layout, offsets, spec_, refresh);
    litho::SimMetrics view = objective_view(wm, reward_);
    if (window != nullptr) *window = std::move(wm);
    return view;
}

Rollout::Rollout(const geo::SegmentedLayout& layout, litho::LithoSim& sim, const OpcOptions& opt,
                 const rl::RewardConfig& reward)
    : layout_(&layout),
      sim_(&sim),
      opt_(&opt),
      objective_(opt, sim.config(), reward),
      features_(static_cast<int>(layout.targets().size())) {
    const int bound = opt.max_total_offset_nm;
    if (bound < 0) {
        throw std::invalid_argument("opc::Rollout: max_total_offset_nm must be >= 0, got " +
                                    std::to_string(bound));
    }
    if (opt.initial_bias_nm < -bound || opt.initial_bias_nm > bound) {
        throw std::invalid_argument("opc::Rollout: |initial_bias_nm| = " +
                                    std::to_string(opt.initial_bias_nm) +
                                    " exceeds max_total_offset_nm = " + std::to_string(bound));
    }
    res_.final_offsets.assign(static_cast<std::size_t>(layout.num_segments()),
                              opt.initial_bias_nm);
    res_.final_metrics = objective_.evaluate(sim, layout, res_.final_offsets,
                                             litho::Refresh::kPrime, &res_.final_window);
    res_.epe_history.push_back(res_.final_metrics.sum_abs_epe);
    res_.pvb_history.push_back(res_.final_metrics.pvband_nm2);
    points_ = static_cast<int>(res_.final_metrics.epe.size());
}

bool Rollout::should_exit() const {
    return should_exit_early(res_.final_metrics.sum_abs_epe, features_, points_, *opt_);
}

Rollout::Before Rollout::step(std::span<const int> moves) {
    std::vector<int>& offsets = res_.final_offsets;
    if (moves.size() != offsets.size()) {
        throw std::invalid_argument("opc::Rollout::step: " + std::to_string(moves.size()) +
                                    " moves for " + std::to_string(offsets.size()) +
                                    " segments");
    }
    const int bound = opt_->max_total_offset_nm;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        offsets[i] = std::clamp(offsets[i] + moves[i], -bound, bound);
    }
    Before before{std::move(res_.final_metrics), std::move(res_.final_window)};
    res_.final_metrics = objective_.evaluate(*sim_, *layout_, offsets, litho::Refresh::kUpdate,
                                             &res_.final_window);
    res_.epe_history.push_back(res_.final_metrics.sum_abs_epe);
    res_.pvb_history.push_back(res_.final_metrics.pvband_nm2);
    ++res_.iterations;
    return before;
}

EngineResult Rollout::finish(double runtime_s) {
    res_.runtime_s = runtime_s;
    return std::move(res_);
}

}  // namespace camo::opc
