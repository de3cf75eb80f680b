#include "opc/ilt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"
#include "litho/aerial.hpp"
#include "litho/fft.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/process_window.hpp"

namespace camo::opc {
namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// One focus plane of the window loss: its kernel set, wrapped support
// addresses, and the per-iteration coherent fields / intensity shared by
// every dose corner at this plane.
struct Plane {
    std::shared_ptr<const litho::KernelApplicator> applicator;  ///< keeps kernels alive
    const litho::KernelSet* kernels = nullptr;
    std::vector<int> pos;
    std::vector<std::vector<litho::Complex>> fields;
    std::vector<double> intensity;
};

// A (dose, plane) corner of the objective.
struct CornerRef {
    int plane = 0;
    double dose = 1.0;
};

std::vector<int> wrapped_positions(const litho::KernelSet& kernels, int n) {
    std::vector<int> pos(kernels.support.size());
    for (std::size_t i = 0; i < kernels.support.size(); ++i) {
        const int row = ((kernels.support[i].ky % n) + n) % n;
        const int col = ((kernels.support[i].kx % n) + n) % n;
        pos[i] = row * n + col;
    }
    return pos;
}

}  // namespace

IltResult IltEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim) const {
    Timer timer;
    const auto& cfg = sim.config();
    const int n = cfg.grid;
    const std::size_t n2 = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    const double thr = sim.threshold();
    const bool windowed = opt_.objective != rl::RewardMode::kNominal;

    // Resolve the objective's planes and corners. Nominal mode is the legacy
    // single-corner loss: one plane (the nominal kernels), dose 1.0 — the
    // arithmetic below multiplies intensities by dose 1.0, so it reproduces
    // the pre-window loss bit for bit.
    litho::WindowSpec spec;
    if (windowed) {
        spec = opt_.window.resolved(cfg);
    } else {
        spec.doses = {1.0};
        spec.defocus_nm = {0.0};
    }

    std::vector<Plane> planes;
    planes.reserve(spec.defocus_nm.size());
    for (double f : spec.defocus_nm) {
        Plane p;
        if (windowed) {
            p.applicator = litho::acquire_focus_applicator(cfg, f);
            p.kernels = &p.applicator->kernels();
        } else {
            p.kernels = &sim.nominal_kernels();
        }
        p.pos = wrapped_positions(*p.kernels, n);
        p.fields.assign(p.kernels->coeffs.size(), std::vector<litho::Complex>(n2));
        p.intensity.assign(n2, 0.0);
        planes.push_back(std::move(p));
    }

    std::vector<CornerRef> corners;
    corners.reserve(static_cast<std::size_t>(spec.corner_count()));
    for (int i = 0; i < spec.corner_count(); ++i) {
        corners.push_back({i / spec.dose_count(), spec.corner(i).dose});
    }
    const double corner_count = static_cast<double>(corners.size());

    // Target image Z in the simulation frame.
    geo::Raster target(n, cfg.pixel_nm);
    const int off = sim.clip_offset_nm(layout.clip_size_nm());
    for (const geo::Polygon& p : layout.targets()) {
        std::vector<geo::Point> v = p.vertices();
        for (geo::Point& q : v) {
            q.x += off;
            q.y += off;
        }
        target.add_polygon(geo::Polygon(std::move(v)));
    }
    target.clamp01();

    // theta initialised from the target: inside -> +1, outside -> -1.
    std::vector<double> theta(n2);
    for (std::size_t i = 0; i < n2; ++i) theta[i] = target.data()[i] > 0.5F ? 1.0 : -1.0;

    IltResult res;
    res.mask = geo::Raster(n, cfg.pixel_nm);
    res.corner_loss.assign(corners.size(), 0.0);

    std::vector<litho::Complex> spectrum(n2);
    std::vector<litho::Complex> field(n2);
    std::vector<litho::Complex> back(n2);
    std::vector<double> corner_loss(corners.size(), 0.0);
    std::vector<double> corner_dl_scale(corners.size(), 0.0);

    for (int it = 0; it <= opt_.iterations; ++it) {
        // m = sigmoid(mask_steepness * theta)
        auto mval = res.mask.data();
        for (std::size_t i = 0; i < n2; ++i) {
            mval[i] = static_cast<float>(sigmoid(opt_.mask_steepness * theta[i]));
        }

        // One forward FFT; per plane, SOCS fields kept for the adjoint.
        for (std::size_t i = 0; i < n2; ++i) spectrum[i] = litho::Complex(mval[i], 0.0F);
        litho::fft2d_forward(spectrum, n);

        for (Plane& plane : planes) {
            std::fill(plane.intensity.begin(), plane.intensity.end(), 0.0);
            for (std::size_t k = 0; k < plane.kernels->coeffs.size(); ++k) {
                std::fill(field.begin(), field.end(), litho::Complex{});
                for (std::size_t i = 0; i < plane.pos.size(); ++i) {
                    field[static_cast<std::size_t>(plane.pos[i])] =
                        plane.kernels->coeffs[k][i] *
                        spectrum[static_cast<std::size_t>(plane.pos[i])];
                }
                litho::fft2d_inverse(field, n);
                const double lam = plane.kernels->eigenvalues[k];
                for (std::size_t i = 0; i < n2; ++i) {
                    plane.intensity[i] += lam * std::norm(field[i]);
                }
                plane.fields[k] = field;
            }
        }

        // Per-corner soft-resist losses L_c = sum (sigmoid(rs*(I*d-thr)) - Z)^2.
        for (std::size_t c = 0; c < corners.size(); ++c) {
            const Plane& plane = planes[static_cast<std::size_t>(corners[c].plane)];
            const double d = corners[c].dose;
            double loss = 0.0;
            for (std::size_t i = 0; i < n2; ++i) {
                const double s =
                    sigmoid(opt_.resist_steepness * (plane.intensity[i] * d - thr));
                const double diff = s - target.data()[i];
                loss += diff * diff;
            }
            corner_loss[c] = loss;
        }

        // The scalar objective and each corner's gradient weight. Worst mode
        // descends on the currently-worst corner only (subgradient of max).
        double loss = 0.0;
        std::fill(corner_dl_scale.begin(), corner_dl_scale.end(), 0.0);
        switch (opt_.objective) {
            case rl::RewardMode::kNominal:
                loss = corner_loss[0];
                corner_dl_scale[0] = 1.0;
                break;
            case rl::RewardMode::kWorstCorner: {
                const std::size_t worst = static_cast<std::size_t>(
                    std::max_element(corner_loss.begin(), corner_loss.end()) -
                    corner_loss.begin());
                loss = corner_loss[worst];
                corner_dl_scale[worst] = 1.0;
                break;
            }
            case rl::RewardMode::kWeightedCorner:
                for (const double corner : corner_loss) loss += corner;
                loss /= corner_count;
                std::fill(corner_dl_scale.begin(), corner_dl_scale.end(), 1.0 / corner_count);
                break;
        }
        res.loss_history.push_back(loss);
        if (it == 0) res.initial_loss = loss;
        res.final_loss = loss;
        res.corner_loss = corner_loss;
        if (it == opt_.iterations) break;

        // Adjoint per plane: dL/dI_f accumulates over this plane's dose
        // corners (chain rule through I*d adds a factor d), then
        // dL/dm = sum_k 2 lam Re{ C_k^H [ dL/dI .* f_k ] }.
        std::vector<double> grad(n2, 0.0);
        for (std::size_t f = 0; f < planes.size(); ++f) {
            const Plane& plane = planes[f];
            std::vector<double> dl_di(n2, 0.0);
            bool any = false;
            for (std::size_t c = 0; c < corners.size(); ++c) {
                if (corners[c].plane != static_cast<int>(f) || corner_dl_scale[c] == 0.0) {
                    continue;
                }
                any = true;
                const double d = corners[c].dose;
                const double scale = corner_dl_scale[c];
                for (std::size_t i = 0; i < n2; ++i) {
                    const double s =
                        sigmoid(opt_.resist_steepness * (plane.intensity[i] * d - thr));
                    const double diff = s - target.data()[i];
                    dl_di[i] +=
                        scale * 2.0 * diff * opt_.resist_steepness * s * (1.0 - s) * d;
                }
            }
            if (!any) continue;

            for (std::size_t k = 0; k < plane.kernels->coeffs.size(); ++k) {
                for (std::size_t i = 0; i < n2; ++i) {
                    back[i] = static_cast<float>(dl_di[i]) * plane.fields[k][i];
                }
                litho::fft2d_forward(back, n);
                std::vector<litho::Complex> filtered(n2);
                for (std::size_t i = 0; i < plane.pos.size(); ++i) {
                    const auto p = static_cast<std::size_t>(plane.pos[i]);
                    filtered[p] = std::conj(plane.kernels->coeffs[k][i]) * back[p];
                }
                litho::fft2d_inverse(filtered, n);
                const double lam = plane.kernels->eigenvalues[k];
                for (std::size_t i = 0; i < n2; ++i) grad[i] += 2.0 * lam * filtered[i].real();
            }
        }

        // Descend on theta through the mask sigmoid.
        for (std::size_t i = 0; i < n2; ++i) {
            const double m = mval[i];
            theta[i] -= opt_.step * grad[i] * opt_.mask_steepness * m * (1.0 - m);
        }
    }

    // EPE of the final mask at the layout's measure points (nominal corner),
    // plus the worst corner through the window in the window modes.
    const geo::Raster aerial = sim.aerial_nominal(res.mask);
    for (const geo::MeasurePoint& mp : layout.measure_points()) {
        const double epe = litho::measure_epe(aerial, thr, {mp.pos.x + off, mp.pos.y + off},
                                              mp.normal, cfg.epe_range_nm);
        res.sum_abs_epe += std::abs(epe);
    }
    if (windowed) {
        std::vector<geo::Raster> plane_aerials;
        plane_aerials.reserve(planes.size());
        for (const Plane& plane : planes) {
            plane_aerials.push_back(plane.applicator->apply(spectrum, cfg.pixel_nm));
        }
        for (const CornerRef& corner : corners) {
            const geo::Raster& corner_aerial =
                plane_aerials[static_cast<std::size_t>(corner.plane)];
            double sum = 0.0;
            for (const geo::MeasurePoint& mp : layout.measure_points()) {
                const double epe = litho::measure_epe(
                    corner_aerial, thr / corner.dose, {mp.pos.x + off, mp.pos.y + off},
                    mp.normal, cfg.epe_range_nm);
                sum += std::abs(epe);
            }
            res.worst_corner_epe = std::max(res.worst_corner_epe, sum);
        }
        if (opt_.evaluate_window) {
            res.final_window = litho::window_metrics_from_aerials(layout, spec, plane_aerials,
                                                                  thr, off, cfg);
        }
    } else if (opt_.evaluate_window) {
        // Nominal objective: the optimization never touched off-focus
        // kernels, so resolve the evaluation window now and image the final
        // spectrum once per focus plane.
        const litho::WindowSpec eval_spec = opt_.window.resolved(cfg);
        std::vector<geo::Raster> plane_aerials;
        plane_aerials.reserve(eval_spec.defocus_nm.size());
        for (double f : eval_spec.defocus_nm) {
            plane_aerials.push_back(
                litho::acquire_focus_applicator(cfg, f)->apply(spectrum, cfg.pixel_nm));
        }
        res.final_window = litho::window_metrics_from_aerials(layout, eval_spec, plane_aerials,
                                                              thr, off, cfg);
    }
    res.runtime_s = timer.seconds();
    return res;
}

}  // namespace camo::opc
