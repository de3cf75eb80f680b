// Adaptive squish-pattern encoding of a control point's neighborhood
// (paper Figure 3, following Yang et al. ASPDAC'19).
//
// A window centred on the control point is cut into a topology grid by
// scanlines at the geometry edges; the grid occupancy matrix M plus the
// spacing vectors (dx, dy) losslessly describe the window. The grid is then
// adaptively resized to a fixed size x size shape (splitting the widest
// cells / merging the narrowest) so a CNN can consume it.
//
// CAMO's node feature doubles the encoding: channels 0-2 use scanlines from
// the *current mask* geometry only; channels 3-5 add scanlines at the
// *target* pattern edges, highlighting how far segments have moved. Both
// occupancy channels mark current-mask geometry.
//
// Contracts of the state encoder (encode_squish_windows):
//   - Bit identity. Every output float is bitwise equal to the reference
//     per-window algorithm: scanlines at every perpendicular edge strictly
//     inside the window plus the window borders; occupancy sampled at raw
//     cell centres with Polygon::contains; the widest column/row split in
//     exact halves (first maximum) while short, the narrowest adjacent pair
//     merged (first minimum, left-to-right sum) while long; a merged cell
//     keeping the first value of maximal |v|; spacings written as
//     log1p(d) / log1p(window_nm). The test suite keeps that algorithm
//     verbatim and memcmp's against it.
//   - All-polygon scanlines. Every polygon of a set contributes its edge
//     coordinates, including polygons that miss the window on the other
//     axis, and a zero-length edge counts on both axes.
//   - Reuse. `out` is resized to one tensor per centre. A tensor that
//     already has shape [6, size, size] keeps its storage and has every
//     element overwritten (prior contents, NaN included, never leak into
//     the result); any other tensor is reallocated.
//   - No mutable static state: concurrent calls on distinct `out` vectors
//     are safe.
#pragma once

#include <span>
#include <vector>

#include "geometry/polygon.hpp"
#include "nn/tensor.hpp"

namespace camo::core {

/// Channels of one encoded window: three per scanline set (mask, mask +
/// target).
inline constexpr int kSquishChannels = 6;

struct SquishOptions {
    int window_nm = 500;  ///< neighborhood window (paper: 500 nm)
    int size = 32;        ///< output grid edge (paper: 128 via / 64 metal)
};

/// Encode one [6, size, size] tensor per window centre into `out`.
/// `mask` = current mask polygons incl. SRAFs; `targets` = design polygons.
/// The scanline sets are built once per call and shared by every window.
/// Throws std::invalid_argument when opt.window_nm or opt.size is not
/// positive, or when a centre is not finite.
void encode_squish_windows(std::span<const geo::Polygon> mask,
                           std::span<const geo::Polygon> targets,
                           std::span<const geo::FPoint> centers, const SquishOptions& opt,
                           std::vector<nn::Tensor>& out);

/// Encode one control-point window (a one-centre encode_squish_windows).
nn::Tensor encode_squish_window(std::span<const geo::Polygon> mask,
                                std::span<const geo::Polygon> targets, geo::FPoint center,
                                const SquishOptions& opt);

}  // namespace camo::core
