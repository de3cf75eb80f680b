// Dense SOCS reference for the litho tests: the aerial image as K
// full-grid inverse FFTs of the mask spectrum times each kernel, and
// LithoSim's two evaluations rebuilt on top of it from the shared
// rasterizer, mask spectrum and metric code. The simulator images through
// the band-limited KernelApplicator (litho/aerial.hpp) instead; the
// equivalence suites compare its primes and sparse updates against this
// straightforward computation within the incremental tolerances.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/aerial.hpp"
#include "litho/fft.hpp"
#include "litho/kernel_registry.hpp"
#include "litho/metrics.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"

namespace camo::litho::dense_reference {

/// I(x) = sum_k lambda_k |IFFT(Phi_k .* M)|^2 over a full n*n mask
/// spectrum, one row-sparse inverse FFT at n per kernel.
inline geo::Raster aerial(const KernelSet& kernels, int n, std::span<const Complex> spectrum,
                          double pixel_nm) {
    std::vector<int> pos;
    std::vector<std::uint8_t> row_nonzero(static_cast<std::size_t>(n), 0);
    for (const FreqIndex& f : kernels.support) {
        const int row = ((f.ky % n) + n) % n;
        const int col = ((f.kx % n) + n) % n;
        pos.push_back(row * n + col);
        row_nonzero[static_cast<std::size_t>(row)] = 1;
    }

    geo::Raster intensity(n, pixel_nm);
    std::vector<Complex> field(static_cast<std::size_t>(n) * n);
    for (int k = 0; k < kernels.count(); ++k) {
        const auto& coeff = kernels.coeffs[static_cast<std::size_t>(k)];
        std::fill(field.begin(), field.end(), Complex{});
        for (std::size_t i = 0; i < pos.size(); ++i) {
            field[static_cast<std::size_t>(pos[i])] =
                coeff[i] * spectrum[static_cast<std::size_t>(pos[i])];
        }
        fft2d_inverse_rowsparse(field, n, row_nonzero);

        const auto lambda = static_cast<float>(kernels.eigenvalues[static_cast<std::size_t>(k)]);
        auto out = intensity.data();
        for (std::size_t i = 0; i < field.size(); ++i) out[i] += lambda * std::norm(field[i]);
    }
    return intensity;
}

/// The mask spectrum of `layout` under `offsets`, rasterized as the
/// simulator frames it.
inline std::vector<Complex> spectrum(const LithoSim& sim, const geo::SegmentedLayout& layout,
                                     std::span<const int> offsets) {
    return mask_spectrum(sim.rasterize(layout.reconstruct_mask(offsets), layout.srafs(),
                                       layout.clip_size_nm()));
}

/// LithoSim::evaluate through the dense aerials, at the simulator's
/// threshold.
inline SimMetrics evaluate(const LithoSim& sim, const geo::SegmentedLayout& layout,
                           std::span<const int> offsets) {
    const LithoConfig& cfg = sim.config();
    const std::vector<Complex> spec = spectrum(sim, layout, offsets);
    const geo::Raster nom = aerial(sim.nominal_kernels(), cfg.grid, spec, cfg.pixel_nm);
    const geo::Raster def = aerial(sim.defocus_kernels(), cfg.grid, spec, cfg.pixel_nm);
    return compute_sim_metrics(layout, nom, def, sim.threshold(),
                               sim.clip_offset_nm(layout.clip_size_nm()), cfg.epe_range_nm,
                               cfg.dose_min, cfg.dose_max);
}

/// The window LithoSim::evaluate through the dense aerials: one per focus
/// plane, each plane's kernels from the registry.
inline WindowMetrics evaluate(const LithoSim& sim, const geo::SegmentedLayout& layout,
                              std::span<const int> offsets, const WindowSpec& window) {
    window.validate();
    const LithoConfig& cfg = sim.config();
    const std::vector<Complex> spec = spectrum(sim, layout, offsets);
    std::vector<geo::Raster> aerials;
    for (double f : window.defocus_nm) {
        aerials.push_back(
            aerial(acquire_focus_applicator(cfg, f)->kernels(), cfg.grid, spec, cfg.pixel_nm));
    }
    return window_metrics_from_aerials(layout, window, aerials, sim.threshold(),
                                       sim.clip_offset_nm(layout.clip_size_nm()), cfg);
}

}  // namespace camo::litho::dense_reference
