#include "opc/one_shot.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "opc/objective.hpp"

namespace camo::opc {

EngineResult OneShotEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                     const OpcOptions& opt) {
    Timer timer;
    Rollout rollout(layout, sim, opt);
    // One-shot moves nearly every segment, so the second evaluation usually
    // exceeds the incremental fallback fraction and runs full, which
    // exercises the fallback.
    const std::vector<double>& epe_segment = rollout.metrics().epe_segment;
    std::vector<int> moves(epe_segment.size());
    for (std::size_t i = 0; i < moves.size(); ++i) {
        const int corr = static_cast<int>(std::lround(-opt_.gain * epe_segment[i]));
        moves[i] = std::clamp(corr, -opt_.max_correction, opt_.max_correction);
    }
    rollout.step(moves);
    return rollout.finish(timer.seconds());
}

}  // namespace camo::opc
