// Via-layer clip generator.
//
// Substitutes the dataset of Liu et al. [17] used by the paper: 2 um x 2 um
// clips containing 70 nm x 70 nm via patterns. The paper's training set has
// 11 clips with 2-5 vias; the test set has 13 clips with 2-6 vias whose
// per-case counts (Table 1) are reproduced exactly:
// V1..V13 -> 2,2,3,3,4,4,5,5,6,6,6,6,6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geometry/polygon.hpp"

namespace camo::layout {

struct ViaGenOptions {
    int clip_nm = 2000;
    int via_nm = 70;
    int margin_nm = 400;       ///< keep-out from clip borders
    int min_spacing_nm = 250;  ///< minimum edge-to-edge spacing between vias
    int grid_snap_nm = 10;     ///< placement grid
};

/// A named benchmark clip.
struct Clip {
    std::string name;
    std::vector<geo::Polygon> targets;
    int clip_nm = 2000;
};

/// A clip name: `prefix` followed by the decimal `index` ("V3").
std::string clip_name(char prefix, int index);

/// Random clip with exactly `via_count` vias satisfying the spacing rule.
/// Placement is greedy rejection sampling. A round that boxes itself in
/// restarts on the same stream; after a bounded number of rounds the call
/// throws std::runtime_error (an infeasible count always does).
std::vector<geo::Polygon> generate_via_clip(int via_count, Rng& rng,
                                            const ViaGenOptions& opt = {});

/// 11 training clips with 2-5 vias (paper Section 4.1).
std::vector<Clip> via_training_set(std::uint64_t seed, const ViaGenOptions& opt = {});

/// 13 test clips V1..V13 with the paper's exact via counts.
std::vector<Clip> via_test_set(std::uint64_t seed, const ViaGenOptions& opt = {});

/// Arbitrarily large clip stream for the batch runtime: clip i carries 2-6
/// vias and is generated from its own splitmix-derived seed, so any
/// sub-range can be produced independently (and in parallel) with results
/// identical to sequential generation.
std::vector<Clip> via_batch_set(std::uint64_t seed, int count, const ViaGenOptions& opt = {});

}  // namespace camo::layout
