// Rule-based damped EPE-feedback OPC.
//
// This is the classic commercial-OPC recipe (and this repo's stand-in for
// Calibre): in every iteration each segment moves opposite to its measured
// EPE by a damped, quantized, clamped step. It doubles as the Phase-1
// teacher for the learned engines: with the step clamp set to 2 nm its
// moves live exactly in the paper's {-2..+2} action space, and
// record_trajectory() captures (state, action) pairs for imitation.
#pragma once

#include "opc/engine.hpp"
#include "rl/trajectory.hpp"

namespace camo::opc {

struct RuleEngineOptions {
    double gain = 0.6;       ///< fraction of the EPE corrected per iteration
    int max_step_nm = 4;     ///< per-iteration step clamp
    bool early_exit = false; ///< commercial recipes run a fixed iteration count
};

class RuleEngine : public Engine {
public:
    explicit RuleEngine(RuleEngineOptions opt = {}) : opt_(opt) {}

    [[nodiscard]] std::string name() const override { return "rule(calibre-proxy)"; }

    EngineResult optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                          const OpcOptions& opt) override;

    /// Record `steps` teacher iterations with the step clamp forced to 2 nm:
    /// the (offsets, action) pair of every step. Costs max(steps, 1) litho
    /// evaluations, the rollout's priming one included: the last move is
    /// recorded but not applied.
    rl::Trajectory record_trajectory(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                     const OpcOptions& opt, int steps) const;

private:
    RuleEngineOptions opt_;
};

}  // namespace camo::opc
