// Trajectory records shared by the teacher (imitation phase) and the RL
// phase.
#pragma once

#include <vector>

namespace camo::rl {

/// One environment step: the segment offsets *before* acting and the action
/// index (0..4 for movements -2..+2 nm) chosen per segment — the (state,
/// action) pair phase-1 imitation learns from.
struct StepRecord {
    std::vector<int> offsets_before;
    std::vector<int> actions;
};

struct Trajectory {
    std::vector<StepRecord> steps;

    // Collection provenance, set by the parallel teacher-collection runtime:
    // which clip this trajectory was recorded on and the initial mask bias
    // of its (clip, bias) job. The trainer gathers trajectories in canonical
    // clip-major, bias-minor job order regardless of worker count, and these
    // fields let tests (and downstream consumers) verify that ordering.
    // -1 / 0 when the trajectory was recorded outside the trainer.
    int clip_index = -1;
    int initial_bias_nm = 0;
};

/// Movement action space of the paper: {-2,-1,0,+1,+2} nm.
inline constexpr int kNumActions = 5;

/// Action index -> movement in nm.
inline int action_to_move(int action) { return action - 2; }

/// Movement in nm -> action index (movement must be in [-2, 2]).
inline int move_to_action(int move) { return move + 2; }

}  // namespace camo::rl
