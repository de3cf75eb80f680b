// Common interface of the segment-based OPC engines compared in the paper's
// tables (Calibre-proxy rule engine, DAMO-proxy one-shot, RL-OPC, CAMO).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geometry/layout.hpp"
#include "litho/simulator.hpp"
#include "rl/reward.hpp"

namespace camo::opc {

struct OpcOptions {
    int max_iterations = 10;

    /// Early exit when sum |EPE| / #target-polygons < this (paper's via rule:
    /// EPE per via < 4 nm). 0 disables.
    double exit_epe_per_feature = 0.0;

    /// Early exit when sum |EPE| / #measure-points < this (paper's metal
    /// rule: average EPE per point < 1 nm). 0 disables.
    double exit_epe_per_point = 0.0;

    /// Initial mask bias: every segment starts at this outward offset
    /// (paper initializes via masks by moving each edge outward 3 nm).
    int initial_bias_nm = 3;

    /// Total per-segment offset is clamped into +/- this bound.
    int max_total_offset_nm = 25;

    /// Which corner(s) of the process window the engine optimizes.
    /// kNominal preserves the legacy single-corner loop bit for bit. The
    /// window modes ride the window LithoSim::evaluate_incremental — one cached
    /// spectrum serving every corner per step — and drive feedback, early
    /// exit and the histories off the window objective.
    rl::RewardMode objective = rl::RewardMode::kNominal;

    /// Window for the window objectives, resolved against the simulator's
    /// config by litho::WindowSpec::resolved. Ignored in kNominal mode.
    litho::WindowSpec window;
};

struct EngineResult {
    std::vector<int> final_offsets;

    /// In kNominal mode: the legacy single-corner metrics. In the window
    /// modes: the objective view (sum_abs_epe = the scalar window objective,
    /// pvband_nm2 = the exact band, epe/epe_segment = the objective
    /// corner(s)' profile) — see opc::objective_view.
    litho::SimMetrics final_metrics;

    std::vector<double> epe_history;  ///< objective sum |EPE| per iteration, entry 0 = initial mask
    std::vector<double> pvb_history;
    int iterations = 0;
    double runtime_s = 0.0;

    /// Full per-corner metrics of the final mask; populated only under a
    /// window objective (the per-step sweep's last result, for free).
    std::optional<litho::WindowMetrics> final_window;
};

class Engine {
public:
    virtual ~Engine() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    virtual EngineResult optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                  const OpcOptions& opt) = 0;
};

/// True when either early-exit rule fires.
bool should_exit_early(double sum_abs_epe, int num_features, int num_points,
                       const OpcOptions& opt);

}  // namespace camo::opc
