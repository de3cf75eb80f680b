// Aerial-image computation: applies a SOCS kernel set to a mask spectrum.
//
// KernelApplicator is the one SOCS applicator: every aerial image (the
// evaluations, threshold calibration, the window sweep, ILT's final images)
// comes from it. It reads the mask spectrum only at the kernel support and
// evaluates the SOCS sum on a small coarse grid m >= 4R+2 (R = support
// radius). The coherent fields are band-limited to R and the intensity to
// 2R, so the coarse intensity is an exact band-limited representation; the
// full-grid image comes from one band-limited upsample. Two planes share
// one packed upsample (apply_pair): both coarse intensities are real, so
// first + i*second goes through one forward FFT at m, one band scatter and
// one row-sparse inverse FFT at N, and each plane is read back from its own
// component (the band is symmetric, so each plane's truncated spectrum
// stays Hermitian). A lone plane runs the same routine with a zero
// imaginary part.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/raster.hpp"
#include "litho/config.hpp"
#include "litho/fft.hpp"
#include "litho/tcc.hpp"

namespace camo::litho {

/// Forward-FFT a coverage raster into a mask spectrum (row-major n*n).
std::vector<Complex> mask_spectrum(const geo::Raster& mask);

/// Rasterize mask + SRAF polygons (clip coordinates) onto cfg's simulation
/// grid, centring a clip of `clip_size_nm`.
geo::Raster rasterize_clip(const LithoConfig& cfg, std::span<const geo::Polygon> mask,
                           std::span<const geo::Polygon> srafs, int clip_size_nm);

/// Per-thread N x N complex scratch for the fine-grid transforms (the
/// upsample's inverse FFT and the incremental rebuild's pruned forward FFT).
/// Callers fill it before reading; only the allocation carries over.
std::span<Complex> fine_scratch(std::size_t size);

/// Applies one SOCS kernel set to mask spectra on a grid x grid frame.
class KernelApplicator {
public:
    KernelApplicator(KernelSet kernels, int grid);

    /// I(x) = sum_k lambda_k |IFFT(Phi_k .* M)|^2 from a full mask spectrum
    /// (row-major grid*grid): gathers the support values, then
    /// apply_support().
    [[nodiscard]] geo::Raster apply(std::span<const Complex> spectrum, double pixel_nm) const;

    /// The same image from support-sampled spectrum values (support_vals[i]
    /// is the mask spectrum at kernels().support[i]).
    [[nodiscard]] geo::Raster apply_support(std::span<const Complex> support_vals,
                                            double pixel_nm) const;

    /// Two planes through one packed upsample: this applicator's image of
    /// `support_vals` and `other`'s image of `other_vals`. Each equals its
    /// apply_support() to float rounding (the packed transform rounds
    /// differently), not bit for bit. Throws std::invalid_argument unless
    /// `other` images on the same fine and coarse grids through the same
    /// band.
    [[nodiscard]] std::pair<geo::Raster, geo::Raster> apply_pair(
        std::span<const Complex> support_vals, const KernelApplicator& other,
        std::span<const Complex> other_vals, double pixel_nm) const;

    [[nodiscard]] const KernelSet& kernels() const { return kernels_; }
    [[nodiscard]] int coarse_grid() const { return m_; }

private:
    /// The SOCS sum on the coarse grid (m*m, row-major).
    [[nodiscard]] std::vector<float> coarse_intensity(std::span<const Complex> support_vals) const;
    /// Band-limited upsample of re + i*im into `out_re` and, when `out_im`
    /// is given, `out_im` (im empty: a lone plane, zero imaginary part).
    void upsample(std::span<const float> re, std::span<const float> im, geo::Raster& out_re,
                  geo::Raster* out_im) const;

    KernelSet kernels_;
    int n_ = 0;  ///< fine (mask) grid
    int m_ = 0;  ///< coarse grid, smallest pow2 >= 4*radius + 2
    std::vector<int> pos_;                    ///< wrapped fine index per support entry
    std::vector<int> mpos_;                   ///< wrapped coarse index per support entry
    std::vector<std::uint8_t> mrow_nonzero_;  ///< occupied coarse rows
    // Band-limited upsample m -> n (unused when m_ == n_):
    std::vector<int> band_src_;               ///< coarse flat index per band frequency
    std::vector<int> band_dst_;               ///< fine flat index per band frequency
    std::vector<std::uint8_t> nrow_nonzero_;  ///< occupied fine rows (|ky| <= 2R)
    float upsample_scale_ = 1.0F;             ///< m^2 / n^2
};

}  // namespace camo::litho
