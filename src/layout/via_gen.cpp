#include "layout/via_gen.hpp"

#include <stdexcept>

namespace camo::layout {
namespace {

// Paper Table 1 via counts for V1..V13.
constexpr int kTestViaCounts[] = {2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6};
// Training set: 11 clips with 2-5 vias.
constexpr int kTrainViaCounts[] = {2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5};

}  // namespace

std::string clip_name(char prefix, int index) {
    // Appended, not "V" + std::to_string(...): GCC 12 flags that prepend
    // with a -Wrestrict false positive.
    std::string name(1, prefix);
    name += std::to_string(index);
    return name;
}

std::vector<geo::Polygon> generate_via_clip(int via_count, Rng& rng, const ViaGenOptions& opt) {
    const int lo = opt.margin_nm;
    const int hi = opt.clip_nm - opt.margin_nm - opt.via_nm;
    if (hi <= lo) throw std::invalid_argument("via clip: margins leave no room");

    // Greedy placement can box itself in: the first vias may leave no room
    // for the rest although the count fits the frame. A round that spends
    // its attempt budget short of the count starts over, on the same Rng
    // stream, so a seed whose first round places gives the same vias.
    std::vector<geo::Rect> placed;
    const int max_attempts = 20000;
    const int max_rounds = 8;
    for (int round = 0; round < max_rounds && static_cast<int>(placed.size()) < via_count;
         ++round) {
        placed.clear();
        for (int attempts = 0;
             static_cast<int>(placed.size()) < via_count && attempts < max_attempts; ++attempts) {
            const int snap = opt.grid_snap_nm;
            const int x = lo + rng.uniform_int(0, (hi - lo) / snap) * snap;
            const int y = lo + rng.uniform_int(0, (hi - lo) / snap) * snap;
            const geo::Rect cand{x, y, x + opt.via_nm, y + opt.via_nm};

            bool ok = true;
            for (const geo::Rect& r : placed) {
                if (geo::rect_gap(cand, r) < opt.min_spacing_nm) {
                    ok = false;
                    break;
                }
            }
            if (ok) placed.push_back(cand);
        }
    }
    if (static_cast<int>(placed.size()) < via_count) {
        throw std::runtime_error("via clip: placement failed (spacing too tight)");
    }

    std::vector<geo::Polygon> out;
    out.reserve(placed.size());
    for (const geo::Rect& r : placed) out.push_back(geo::Polygon::from_rect(r));
    return out;
}

std::vector<Clip> via_training_set(std::uint64_t seed, const ViaGenOptions& opt) {
    std::vector<Clip> clips;
    int idx = 1;
    for (int count : kTrainViaCounts) {
        Rng rng(seed + static_cast<std::uint64_t>(idx) * 7919ULL);
        clips.push_back({clip_name('T', idx), generate_via_clip(count, rng, opt),
                         opt.clip_nm});
        ++idx;
    }
    return clips;
}

std::vector<Clip> via_test_set(std::uint64_t seed, const ViaGenOptions& opt) {
    std::vector<Clip> clips;
    int idx = 1;
    for (int count : kTestViaCounts) {
        // Offset the stream so test clips never repeat training clips.
        Rng rng(seed + 1000003ULL + static_cast<std::uint64_t>(idx) * 104729ULL);
        clips.push_back({clip_name('V', idx), generate_via_clip(count, rng, opt),
                         opt.clip_nm});
        ++idx;
    }
    return clips;
}

std::vector<Clip> via_batch_set(std::uint64_t seed, int count, const ViaGenOptions& opt) {
    std::vector<Clip> clips;
    clips.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const std::uint64_t clip_seed = derive_seed(seed, static_cast<std::uint64_t>(i));
        Rng rng(clip_seed);
        const int vias = 2 + static_cast<int>(clip_seed % 5);  // 2..6, seed-determined
        clips.push_back({clip_name('B', i + 1), generate_via_clip(vias, rng, opt),
                         opt.clip_nm});
    }
    return clips;
}

}  // namespace camo::layout
