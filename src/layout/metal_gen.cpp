#include "layout/metal_gen.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/fragment.hpp"

namespace camo::layout {
namespace {

// Paper Table 2 measure-point counts for M1..M10.
constexpr int kTestPointCounts[] = {64, 84, 88, 100, 106, 112, 116, 24, 72, 120};

// Wire length whose horizontal edge carries exactly k measure points:
// fragment_polygon uses k = len / pitch, so len in [60k, 60k+59].
int length_for_points(int k, int pitch, Rng& rng) {
    return k * pitch + rng.uniform_int(0, pitch - 1);
}

}  // namespace

int count_measure_points(const std::vector<geo::Polygon>& polys, int pitch_nm) {
    int total = 0;
    for (const geo::Polygon& p : polys) {
        geo::Polygon q = p;
        q.normalize();
        const auto segs =
            geo::fragment_polygon(q, {geo::FragmentStyle::kMetal, pitch_nm}, 0);
        for (const geo::Segment& s : segs) total += s.measured ? 1 : 0;
    }
    return total;
}

std::vector<geo::Polygon> generate_metal_clip(int point_quota, Rng& rng,
                                              const MetalGenOptions& opt) {
    if (point_quota % 2 != 0) throw std::invalid_argument("metal clip: quota must be even");
    int remaining = point_quota / 2;  // per-edge quota (each wire: top+bottom)

    std::vector<geo::Polygon> wires;
    const int x_lo = opt.margin_nm;
    const int x_hi = opt.clip_nm - opt.margin_nm;
    int y = opt.margin_nm;

    while (remaining > 0) {
        const int width = opt.min_width_nm +
                          rng.uniform_int(0, (opt.max_width_nm - opt.min_width_nm) / 5) * 5;
        if (y + width > opt.clip_nm - opt.margin_nm) {
            throw std::runtime_error("metal clip: ran out of vertical room for quota");
        }

        // Fill one track left-to-right.
        int x = x_lo + rng.uniform_int(0, 12) * 5;
        while (remaining > 0 && x < x_hi - opt.measure_pitch_nm) {
            const int k = std::min({remaining, 1 + rng.uniform_int(0, opt.max_points_per_wire - 1)});
            const int len = length_for_points(k, opt.measure_pitch_nm, rng);
            if (x + len > x_hi) break;
            wires.push_back(geo::Polygon::from_rect({x, y, x + len, y + width}));
            remaining -= k;
            x += len + opt.min_gap_nm + rng.uniform_int(0, 20) * 5;
        }
        y += width + opt.min_track_gap_nm + rng.uniform_int(0, 8) * 5;
    }
    return wires;
}

std::vector<geo::Polygon> generate_regular_metal_clip(int point_quota, Rng& rng,
                                                      const MetalGenOptions& opt) {
    if (point_quota % 2 != 0) throw std::invalid_argument("regular clip: quota must be even");
    const int per_edge = point_quota / 2;

    // Choose a line count that divides the per-edge quota as evenly as
    // possible: lines of k points each, the last line absorbing the rest.
    const int k = std::clamp(per_edge, 1, opt.max_points_per_wire);
    const int lines = (per_edge + k - 1) / k;

    const int width = 60;
    const int pitch = width + 80;  // dense regular line/space
    std::vector<geo::Polygon> wires;
    int remaining = per_edge;
    int y = opt.margin_nm + rng.uniform_int(0, 10) * 10;
    for (int i = 0; i < lines; ++i) {
        const int ki = std::min(k, remaining);
        const int len = ki * opt.measure_pitch_nm + opt.measure_pitch_nm / 2;
        const int x = opt.margin_nm;
        wires.push_back(geo::Polygon::from_rect({x, y, x + len, y + width}));
        remaining -= ki;
        y += pitch;
    }
    return wires;
}

std::vector<Clip> metal_test_set(std::uint64_t seed, const MetalGenOptions& opt) {
    std::vector<Clip> clips;
    for (int i = 0; i < 10; ++i) {
        Rng rng(seed + 2000003ULL + static_cast<std::uint64_t>(i) * 15485863ULL);
        const int quota = kTestPointCounts[i];
        const bool regular = (i == 7 || i == 8);  // M8, M9
        auto polys = regular ? generate_regular_metal_clip(quota, rng, opt)
                             : generate_metal_clip(quota, rng, opt);
        clips.push_back({clip_name('M', i + 1), std::move(polys), opt.clip_nm});
    }
    return clips;
}

std::vector<Clip> metal_training_set(std::uint64_t seed, int count, const MetalGenOptions& opt) {
    std::vector<Clip> clips;
    for (int i = 0; i < count; ++i) {
        Rng rng(seed + 3000017ULL + static_cast<std::uint64_t>(i) * 32452843ULL);
        const int quota = 24 + 4 * rng.uniform_int(0, 12);
        auto polys = (i % 4 == 3) ? generate_regular_metal_clip(quota, rng, opt)
                                  : generate_metal_clip(quota, rng, opt);
        clips.push_back({"MT" + std::to_string(i + 1), std::move(polys), opt.clip_nm});
    }
    return clips;
}

}  // namespace camo::layout
