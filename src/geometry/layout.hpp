// SegmentedLayout: a clip's target polygons, their fragmentation into
// movable segments, optional static SRAFs, and the reconstruction of mask
// polygons from per-segment perpendicular offsets.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "geometry/fragment.hpp"
#include "geometry/polygon.hpp"
#include "geometry/segment.hpp"

namespace camo::geo {

class SegmentedLayout {
public:
    SegmentedLayout() = default;

    /// Fragment `targets` (normalized to CCW internally) with the given
    /// policy. SRAFs are carried along unfragmented; they are part of the
    /// mask but never move and never carry measure points.
    SegmentedLayout(std::vector<Polygon> targets, const FragmentOptions& opt,
                    std::vector<Polygon> srafs = {}, int clip_size_nm = 2000);

    [[nodiscard]] const std::vector<Polygon>& targets() const { return targets_; }
    [[nodiscard]] const std::vector<Polygon>& srafs() const { return srafs_; }
    [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }
    [[nodiscard]] int num_segments() const { return static_cast<int>(segments_.size()); }
    [[nodiscard]] int clip_size_nm() const { return clip_size_; }

    /// [begin, end) segment-index range of polygon `p`.
    [[nodiscard]] std::pair<int, int> polygon_segment_range(int p) const {
        return {poly_begin_[p], poly_begin_[p + 1]};
    }

    /// Rebuild the mask polygons implied by per-segment offsets
    /// (offsets.size() == num_segments()). Each segment's edge line moves by
    /// offset * outward; neighbours are joined with perpendicular jogs and
    /// corners with the intersection of the two shifted lines. SRAFs are not
    /// included; callers append srafs() when rasterizing the full mask.
    [[nodiscard]] std::vector<Polygon> reconstruct_mask(std::span<const int> offsets) const;

    /// Mask polygon of target `p` alone under the same offsets convention
    /// (`offsets` spans all segments; only polygon p's range is read). A
    /// segment's move affects exactly its owning polygon, which is what lets
    /// incremental evaluation re-rasterize only the polygons that moved.
    [[nodiscard]] Polygon reconstruct_polygon(int p, std::span<const int> offsets) const;

    /// Measure points of all `measured` segments, at segment centers on the
    /// target boundary, in segment order.
    [[nodiscard]] std::vector<MeasurePoint> measure_points() const;

private:
    std::vector<Polygon> targets_;
    std::vector<Polygon> srafs_;
    std::vector<Segment> segments_;
    std::vector<int> poly_begin_;  // size = targets+1
    int clip_size_ = 2000;
};

}  // namespace camo::geo
