// Multi-corner process-window evaluation.
//
// The paper's robustness claims (Eq. 3 reward, PV band columns of the result
// tables) are statements about a dose x focus window, but a nominal
// evaluate() call images only the two standard corners. A WindowSpec names
// an arbitrary dose x focus grid, and the window overloads of
// LithoSim::evaluate / evaluate_incremental evaluate a segmented layout at
// every corner in one call:
//
//   * The mask is rasterized ONCE (or, on an update, served from the cached
//     support spectrum); every corner reads the same spectrum.
//   * One aerial image is computed per focus plane (dose is a pure threshold
//     scale, so all doses at a focus share its aerial). Per-focus kernel
//     applicators come from the kernel registry: the two standard planes
//     reuse the acquire_kernels() sets, extra planes are built once per
//     process with an interpolated kernel count.
//   * Per-corner printed images use the shared epsilon-stable pixel_prints
//     predicate, per-corner EPE the shared compute_epe_profile — so on the
//     standard window the (dose 1.0, best focus) corner reproduces the
//     nominal LithoSim::evaluate bit for bit, and the exact PV band is
//     consistent with LithoSim::printed.
//
// The exact PV band is the area between the union and the intersection of
// the printed images over all corners. The legacy two-corner approximation
// (pv_band_nm2) is also reported when the window contains both standard
// focus planes; the exact band is always a pixelwise superset of it.
#pragma once

#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/config.hpp"
#include "litho/metrics.hpp"

namespace camo::litho {

/// One (dose, focus) corner of the process window.
struct Corner {
    double dose = 1.0;        ///< relative exposure dose (> 0)
    double defocus_nm = 0.0;  ///< focus plane; 0 = best focus
};

/// A dose x focus grid of corners. Corners are enumerated focus-major:
/// corner(i) = { doses[i % dose_count()], defocus_nm[i / dose_count()] }.
struct WindowSpec {
    std::vector<double> doses;
    std::vector<double> defocus_nm;

    /// The paper's standard window: {dose_min, 1, dose_max} x {0, defocus}.
    static WindowSpec standard(const LithoConfig& cfg);

    [[nodiscard]] int dose_count() const { return static_cast<int>(doses.size()); }
    [[nodiscard]] int focus_count() const { return static_cast<int>(defocus_nm.size()); }
    [[nodiscard]] int corner_count() const { return dose_count() * focus_count(); }
    [[nodiscard]] Corner corner(int i) const {
        return {doses[static_cast<std::size_t>(i % dose_count())],
                defocus_nm[static_cast<std::size_t>(i / dose_count())]};
    }

    /// Index of the focus plane matching `defocus` within kFocusMatchTolNm,
    /// or -1. The one plane matcher, so a focus resolves to the same
    /// applicator everywhere.
    [[nodiscard]] int find_focus(double defocus) const;

    /// Throws std::invalid_argument on an empty axis, a non-positive or
    /// non-finite dose, or a non-finite focus.
    void validate() const;

    /// The one window resolution rule: each empty axis takes its values from
    /// standard(cfg), a set axis is kept as given, and the result is
    /// validated. Every window setting (OpcOptions::window,
    /// IltOptions::window, Scenario::window, the CLI sweep grid) resolves
    /// through this.
    [[nodiscard]] WindowSpec resolved(const LithoConfig& cfg) const;
};

/// One corner's outcome: EPE measured against this corner's printed contour
/// (aerial at threshold / dose; pvband_nm2 is left 0 — the band is a window
/// property) plus the corner's printed area.
struct CornerResult {
    Corner corner;
    SimMetrics metrics;
    double printed_area_nm2 = 0.0;
};

/// Window-level aggregation over all corners.
struct WindowMetrics {
    std::vector<CornerResult> corners;  ///< in WindowSpec::corner order

    int worst_corner = -1;    ///< index of the corner with the largest sum |EPE|
    double worst_epe = 0.0;   ///< that corner's sum |EPE|

    /// CD through window, as the printed-area range over all corners
    /// (min at the innermost contour, max at the outermost).
    double cd_min_nm2 = 0.0;
    double cd_max_nm2 = 0.0;

    /// Exact PV band: area of (union - intersection) of the printed images
    /// over every corner of the window.
    double pv_band_exact_nm2 = 0.0;

    /// Legacy two-corner approximation over THIS window's dose extremes:
    /// pv_band_nm2 at (max dose, best focus) vs (min dose, defocus plane),
    /// computed when the window contains both standard focus planes; -1
    /// otherwise. Using the window's own dose range keeps the exact band a
    /// pixelwise superset for any spec; on the standard window the doses
    /// coincide with cfg.dose_min/dose_max, so this equals
    /// SimMetrics::pvband_nm2 exactly.
    double pv_band_two_corner_nm2 = -1.0;

    [[nodiscard]] double cd_range_nm2() const { return cd_max_nm2 - cd_min_nm2; }

    /// The (dose 1.0, best focus) corner, or nullptr if the window lacks it.
    [[nodiscard]] const CornerResult* nominal_corner() const;
};

/// Aggregate WindowMetrics from one aerial image per focus plane
/// (aerials[f] images spec.defocus_nm[f]). Shared by the evaluator, ILT's
/// final sweep and the dense test reference, so all aggregate through
/// identical arithmetic. `cfg` supplies dose_min/dose_max/defocus_nm for the legacy
/// two-corner band and epe_range_nm for the per-corner EPE search.
WindowMetrics window_metrics_from_aerials(const geo::SegmentedLayout& layout,
                                          const WindowSpec& spec,
                                          std::span<const geo::Raster> aerials,
                                          double threshold, double clip_offset_nm,
                                          const LithoConfig& cfg);

}  // namespace camo::litho
