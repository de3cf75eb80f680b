// Lithography quality metrics: edge placement error and process-variation
// band.
#pragma once

#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "geometry/segment.hpp"

namespace camo::litho {

/// Relative epsilon of the printed-pixel predicate. A pixel whose intensity
/// lands within this fraction *below* threshold / dose still counts as
/// printed, so the full and incremental evaluation paths — which compute the
/// same aerial image through different float arithmetic — agree on every
/// pixel whose exact intensity sits on the threshold (the tie case that used
/// to flip between paths). The epsilon only moves the tie point; contour
/// gradients at the resist edge are steep enough that the shifted boundary
/// crosses at most a sub-pixel sliver of the image.
inline constexpr double kPrintedEpsRel = 1e-4;

/// The one printed-pixel predicate: a pixel with aerial intensity I prints at
/// relative dose d when I * d >= threshold * (1 - kPrintedEpsRel). Shared by
/// LithoSim::printed, pv_band_nm2 and the process-window sweep so every
/// consumer of "does this pixel print" answers through identical arithmetic.
[[nodiscard]] inline bool pixel_prints(double intensity, double dose, double threshold) {
    return intensity * dose >= threshold * (1.0 - kPrintedEpsRel);
}

/// Signed edge placement error at one measure point: the displacement from
/// the target edge to the printed contour along the outward normal, found by
/// a line search on the aerial image against the resist threshold.
/// Positive = contour outside the target (over-exposed); negative = inside.
/// Clamped to +/- range_nm when no contour crossing exists in range (e.g. a
/// feature that fails to print at all).
double measure_epe(const geo::Raster& aerial, double threshold, geo::FPoint pos,
                   geo::FPoint normal, double range_nm);

/// Two-corner process-variation band area (nm^2): pixels printed at the
/// outer corner (dose_max, nominal focus) but not at the inner corner
/// (dose_min, defocus), per pixel_prints(). This approximates the band from
/// just two of the window's corners; the window LithoSim::evaluate computes
/// the exact band over a full dose x focus grid.
double pv_band_nm2(const geo::Raster& aerial_nominal, const geo::Raster& aerial_defocus,
                   double threshold, double dose_min, double dose_max);

/// Full per-clip metrics produced by one lithography evaluation.
struct SimMetrics {
    std::vector<double> epe;          ///< signed EPE per *measured* point
    std::vector<double> epe_segment;  ///< signed EPE at every segment centre
    double sum_abs_epe = 0.0;         ///< sum of |EPE| over measured points
    double pvband_nm2 = 0.0;
};

/// EPE profile of one aerial image against an effective threshold: EPE at
/// every segment centre (shifted into the simulation frame by
/// `clip_offset_nm`), the measured-point subset and sum |EPE|. pvband_nm2 is
/// left 0 — callers that have a window of images attach their own band.
/// Shared by compute_sim_metrics and the process-window sweep so a window's
/// nominal corner reproduces evaluate()'s EPE bit for bit.
SimMetrics compute_epe_profile(const geo::SegmentedLayout& layout, const geo::Raster& aerial,
                               double threshold, double clip_offset_nm, double epe_range_nm);

/// Assemble per-clip metrics from a pair of aerial images: EPE at every
/// segment centre (shifted into the simulation frame by `clip_offset_nm`)
/// plus the PV band. Shared by the full and incremental evaluation paths so
/// both produce metrics through identical arithmetic.
SimMetrics compute_sim_metrics(const geo::SegmentedLayout& layout, const geo::Raster& nominal,
                               const geo::Raster& defocus, double threshold,
                               double clip_offset_nm, double epe_range_nm, double dose_min,
                               double dose_max);

}  // namespace camo::litho
