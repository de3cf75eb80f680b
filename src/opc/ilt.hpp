// Pixel-based inverse lithography (ILT) engine.
//
// An extension beyond the paper's segment-based engines, implementing the
// classic MOSAIC-style formulation the paper cites as related work: the
// mask is a free pixel image m = sigmoid(theta), the printed image is
// approximated by a sigmoid resist, and theta follows the analytic gradient
// of the L2 contour error through the SOCS imaging operator.
//
// The window objective (same modes as the segment engines, for fair
// ablations) generalizes the loss over a dose x focus grid: per focus plane
// the coherent fields are computed once and shared by every dose at that
// plane (dose scales the intensity, i.e. the resist argument is I*d - thr),
// so the window loss costs one extra SOCS forward/adjoint pass per extra
// focus plane, not per corner. kWeightedCorner descends on the mean of the
// per-corner losses; kWorstCorner takes the subgradient of the max —
// each iteration descends on the currently-worst corner's loss.
#pragma once

#include <optional>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "rl/reward.hpp"

namespace camo::opc {

struct IltOptions {
    int iterations = 20;
    double step = 4.0;           ///< gradient step on theta
    double mask_steepness = 4.0; ///< sigmoid slope of m(theta)
    double resist_steepness = 40.0;  ///< sigmoid slope of the soft resist

    /// Window objective, mirroring OpcOptions::objective for the segment
    /// engines. kNominal preserves the legacy single-corner loss bit for
    /// bit; the window modes optimize the process-window loss above.
    rl::RewardMode objective = rl::RewardMode::kNominal;

    /// Window for the window objectives and for evaluate_window, resolved
    /// against the simulator's config by litho::WindowSpec::resolved.
    litho::WindowSpec window;

    /// Evaluate the final mask over the resolved `window` and fill
    /// IltResult::final_window, regardless of objective mode. In the window
    /// modes this reuses the per-plane aerials already computed for
    /// worst_corner_epe; in kNominal mode it adds one focus-applicator apply
    /// per plane at the very end. The optimization trajectory is unchanged —
    /// the comparer uses this so every engine reports the same
    /// WindowMetrics-based scorecard.
    bool evaluate_window = false;
};

struct IltResult {
    geo::Raster mask{1, 1.0};   ///< final continuous mask (grid frame)
    double initial_loss = 0.0;  ///< objective loss before optimization
    double final_loss = 0.0;
    double sum_abs_epe = 0.0;   ///< |EPE| at the layout's measure points (nominal corner)
    std::vector<double> loss_history;
    double runtime_s = 0.0;

    /// Window modes only: worst-corner sum |EPE| of the final mask and the
    /// final per-corner soft-resist losses in WindowSpec::corner order
    /// (empty / 0 in kNominal mode).
    double worst_corner_epe = 0.0;
    std::vector<double> corner_loss;

    /// Full process-window metrics of the final mask; present iff
    /// IltOptions::evaluate_window was set.
    std::optional<litho::WindowMetrics> final_window;
};

class IltEngine {
public:
    explicit IltEngine(IltOptions opt = {}) : opt_(opt) {}

    IltResult optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim) const;

private:
    IltOptions opt_;
};

}  // namespace camo::opc
