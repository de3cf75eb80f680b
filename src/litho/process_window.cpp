#include "litho/process_window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace camo::litho {

WindowSpec WindowSpec::standard(const LithoConfig& cfg) {
    WindowSpec spec;
    spec.doses = {cfg.dose_min, 1.0, cfg.dose_max};
    spec.defocus_nm = {0.0, cfg.defocus_nm};
    return spec;
}

int WindowSpec::find_focus(double defocus) const {
    for (int f = 0; f < focus_count(); ++f) {
        if (std::abs(defocus_nm[static_cast<std::size_t>(f)] - defocus) < kFocusMatchTolNm) {
            return f;
        }
    }
    return -1;
}

void WindowSpec::validate() const {
    if (doses.empty()) throw std::invalid_argument("WindowSpec: no doses");
    if (defocus_nm.empty()) throw std::invalid_argument("WindowSpec: no focus planes");
    for (double d : doses) {
        if (!(d > 0.0) || !std::isfinite(d)) {
            throw std::invalid_argument("WindowSpec: dose must be finite and > 0");
        }
    }
    for (double f : defocus_nm) {
        if (!std::isfinite(f)) throw std::invalid_argument("WindowSpec: focus must be finite");
    }
}

WindowSpec WindowSpec::resolved(const LithoConfig& cfg) const {
    const WindowSpec standard_window = standard(cfg);
    WindowSpec spec = *this;
    if (spec.doses.empty()) spec.doses = standard_window.doses;
    if (spec.defocus_nm.empty()) spec.defocus_nm = standard_window.defocus_nm;
    spec.validate();
    return spec;
}

const CornerResult* WindowMetrics::nominal_corner() const {
    for (const CornerResult& c : corners) {
        if (std::abs(c.corner.dose - 1.0) < 1e-12 &&
            std::abs(c.corner.defocus_nm) < kFocusMatchTolNm) {
            return &c;
        }
    }
    return nullptr;
}

WindowMetrics window_metrics_from_aerials(const geo::SegmentedLayout& layout,
                                          const WindowSpec& spec,
                                          std::span<const geo::Raster> aerials,
                                          double threshold, double clip_offset_nm,
                                          const LithoConfig& cfg) {
    spec.validate();
    if (static_cast<int>(aerials.size()) != spec.focus_count()) {
        throw std::invalid_argument("window_metrics_from_aerials: one aerial per focus plane");
    }

    WindowMetrics wm;
    wm.corners.reserve(static_cast<std::size_t>(spec.corner_count()));

    const double px = aerials.empty() ? cfg.pixel_nm : aerials[0].pixel_nm();
    const double px2 = px * px;

    for (int i = 0; i < spec.corner_count(); ++i) {
        const Corner corner = spec.corner(i);
        const int f = i / spec.dose_count();
        const geo::Raster& aerial = aerials[static_cast<std::size_t>(f)];

        CornerResult res;
        res.corner = corner;
        // The printed contour at dose d is the threshold / d level set, so
        // per-corner EPE is the standard profile at an effective threshold.
        // For dose 1.0 the division is exact and the profile is bit-identical
        // to LithoSim::evaluate's.
        res.metrics = compute_epe_profile(layout, aerial, threshold / corner.dose,
                                          clip_offset_nm, cfg.epe_range_nm);

        long long printed = 0;
        for (float v : aerial.data()) {
            if (pixel_prints(v, corner.dose, threshold)) ++printed;
        }
        res.printed_area_nm2 = static_cast<double>(printed) * px2;

        if (wm.worst_corner < 0 || res.metrics.sum_abs_epe > wm.worst_epe) {
            wm.worst_corner = i;
            wm.worst_epe = res.metrics.sum_abs_epe;
        }
        if (wm.corners.empty()) {
            wm.cd_min_nm2 = wm.cd_max_nm2 = res.printed_area_nm2;
        } else {
            wm.cd_min_nm2 = std::min(wm.cd_min_nm2, res.printed_area_nm2);
            wm.cd_max_nm2 = std::max(wm.cd_max_nm2, res.printed_area_nm2);
        }
        wm.corners.push_back(std::move(res));
    }

    // Exact PV band. Printing is monotone in dose (I * d >= thr'), so the
    // union over corners is the union over focus planes at the largest dose
    // and the intersection is the intersection at the smallest dose; one
    // pass over the pixels covers the whole grid of corners. The
    // intersection is a subset of the union, so the band is their area
    // difference.
    const double dose_lo = *std::min_element(spec.doses.begin(), spec.doses.end());
    const double dose_hi = *std::max_element(spec.doses.begin(), spec.doses.end());
    const std::size_t nn = aerials[0].data().size();
    long long in_union = 0;
    long long in_intersection = 0;
    for (std::size_t p = 0; p < nn; ++p) {
        bool any_outer = false;
        bool all_inner = true;
        for (const geo::Raster& aerial : aerials) {
            const float v = aerial.data()[p];
            any_outer = any_outer || pixel_prints(v, dose_hi, threshold);
            all_inner = all_inner && pixel_prints(v, dose_lo, threshold);
        }
        if (any_outer) ++in_union;
        if (all_inner) ++in_intersection;
    }
    wm.pv_band_exact_nm2 = static_cast<double>(in_union - in_intersection) * px2;

    // Legacy two-corner approximation when both standard planes are
    // present, over THIS window's dose extremes so the exact band above is
    // a pixelwise superset for any spec (on the standard window these are
    // cfg.dose_min/dose_max and the value equals SimMetrics::pvband_nm2).
    const int f_best = spec.find_focus(0.0);
    const int f_def = spec.find_focus(cfg.defocus_nm);
    if (f_best >= 0 && f_def >= 0) {
        wm.pv_band_two_corner_nm2 =
            pv_band_nm2(aerials[static_cast<std::size_t>(f_best)],
                        aerials[static_cast<std::size_t>(f_def)], threshold, dose_lo, dose_hi);
    }
    return wm;
}

}  // namespace camo::litho
