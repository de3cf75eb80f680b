// Incremental lithography evaluation.
//
// The full path re-rasterizes the whole clip and runs a dense 2D FFT on
// every call, yet the SOCS kernels read the mask spectrum only at their
// small frequency support, and consecutive OPC iterations move only the
// segments the policy acted on. The incremental path exploits both:
//
//   * The mask raster is cached as a double-precision coverage accumulator.
//     When segments move, only their owning polygons are re-rasterized,
//     restricted to their pixel footprint (geo::add_polygon_region), and
//     the old polygon's contribution is subtracted exactly — per-pixel
//     coverage is a pure function of (polygon, pixel), so the cache never
//     drifts from a from-scratch rasterization beyond double rounding.
//   * The mask spectrum is cached only at the kernel support frequencies and
//     updated with a sparse delta-DFT over the pixels whose clamped coverage
//     changed: O(|delta pixels| * |support|) instead of O(N^2 log N). Every
//     kernel set of a configuration, at any focus, shares one support, the
//     pupil disk tcc_support_freqs(cfg); the cache holds the spectrum in
//     that order and every focus plane reads it as is.
//   * Aerial images are produced by SupportApplicator, which evaluates the
//     SOCS sum on a small coarse grid m >= 4R+2 (R = support radius). The
//     coherent fields are band-limited to R and the intensity to 2R, so the
//     coarse intensity is an exact band-limited representation. This
//     replaces the K per-kernel N-grid inverse FFTs of the dense path with K
//     m-grid ones.
//   * The full-grid images come from one packed upsample per pair of focus
//     planes: both coarse intensities are real, so nominal + i*defocus goes
//     through one forward FFT at m, one band scatter and one row-sparse
//     inverse FFT at N, and each plane is read back from its own component
//     (the band is symmetric, so each plane's truncated spectrum stays
//     Hermitian). A lone plane runs the same routine with a zero imaginary
//     part. The N x N transform buffers (the upsample's and the rebuild's
//     forward FFT's) are per-thread scratch, not per-call allocations.
//
// Equivalence contract (tested in tests/test_litho_incremental.cpp): the
// incremental path is mathematically identical to LithoSim::evaluate but
// floats through a different (shorter) computation, so metrics agree to
// float rounding, not bit-for-bit:
//   * EPE per segment within kIncrementalEpeTolNm;
//   * PV band within kIncrementalPvbPixelSlack border pixels. The
//     epsilon-stable pixel_prints predicate (litho/metrics.hpp) removes the
//     exact-tie divergence — a pixel whose true intensity sits on
//     threshold * dose now prints on both paths — so the remaining slack
//     only covers pixels whose intensity the two float pipelines genuinely
//     place on opposite sides of the (epsilon-shifted) contour.
// What moved is found by comparing the offsets against the cached ones, so
// callers pass only the new offsets; with unchanged offsets the cached
// metrics are returned unchanged (exact).
#pragma once

#include <complex>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/config.hpp"
#include "litho/fft.hpp"
#include "litho/metrics.hpp"
#include "litho/process_window.hpp"
#include "litho/tcc.hpp"

namespace camo::litho {

/// Documented equivalence tolerances between the full and incremental paths.
inline constexpr double kIncrementalEpeTolNm = 1e-3;
inline constexpr double kIncrementalPvbPixelSlack = 4.0;  ///< border pixels that may flip

/// Content key of the incremental cache: FNV-1a over the segment count, the
/// clip size and every target and SRAF vertex. Two layouts with equal keys
/// rasterize alike, whatever their addresses.
[[nodiscard]] std::uint64_t layout_fingerprint(const geo::SegmentedLayout& layout);

/// Applies one SOCS kernel set to a mask spectrum sampled at the kernel
/// support only. Kernel coefficients are stored as one contiguous
/// kernel-major array so the per-kernel multiply is a flat vector complex
/// multiply over contiguous spans.
class SupportApplicator {
public:
    SupportApplicator(const KernelSet& kernels, int grid);

    /// I(x) from support-sampled spectrum values (support_vals[i] is the
    /// mask spectrum at kernels().support[i]); returned on the full grid.
    [[nodiscard]] geo::Raster apply(std::span<const Complex> support_vals,
                                    double pixel_nm) const;

    /// Two planes through one packed upsample: this applicator's image of
    /// `support_vals` and `other`'s image of `other_vals`. Each equals its
    /// apply() to float rounding (the packed transform rounds differently),
    /// not bit for bit. Throws std::invalid_argument unless `other` images
    /// on the same fine and coarse grids through the same band.
    [[nodiscard]] std::pair<geo::Raster, geo::Raster> apply_pair(
        std::span<const Complex> support_vals, const SupportApplicator& other,
        std::span<const Complex> other_vals, double pixel_nm) const;

    [[nodiscard]] int support_size() const { return static_cast<int>(mpos_.size()); }
    [[nodiscard]] int coarse_grid() const { return m_; }

private:
    /// The SOCS sum on the coarse grid (m*m, row-major).
    [[nodiscard]] std::vector<float> coarse_intensity(std::span<const Complex> support_vals) const;
    /// Band-limited upsample of re + i*im into `out_re` and, when `out_im`
    /// is given, `out_im` (im empty: a lone plane, zero imaginary part).
    void upsample(std::span<const float> re, std::span<const float> im, geo::Raster& out_re,
                  geo::Raster* out_im) const;

    int n_ = 0;        ///< fine (mask) grid
    int m_ = 0;        ///< coarse grid, smallest pow2 >= 4*radius + 2
    int kernels_ = 0;  ///< kernel count
    std::vector<float> eigenvalues_;
    std::vector<Complex> coeffs_;             ///< kernel-major [k * S + i]
    std::vector<int> mpos_;                   ///< wrapped coarse index per support entry
    std::vector<std::uint8_t> mrow_nonzero_;  ///< occupied coarse rows
    // Band-limited upsample m -> n (unused when m_ == n_):
    std::vector<int> band_src_;               ///< coarse flat index per band frequency
    std::vector<int> band_dst_;               ///< fine flat index per band frequency
    std::vector<std::uint8_t> nrow_nonzero_;  ///< occupied fine rows (|ky| <= 2R)
    float upsample_scale_ = 1.0F;             ///< m^2 / n^2
};

/// Per-clip incremental evaluation state. One instance per LithoSim; not
/// thread-safe (the batch runtime gives each worker its own simulator).
class IncrementalEvaluator {
public:
    /// Throws std::invalid_argument unless both kernel sets (and every extra
    /// focus plane acquired later) are supported on tcc_support_freqs(cfg).
    IncrementalEvaluator(const LithoConfig& cfg, double threshold, const KernelSet& nominal,
                         const KernelSet& defocus);

    /// Standard two-condition metrics of `offsets`. Refresh::kPrime rebuilds
    /// the cache; Refresh::kUpdate reuses it outright when nothing moved,
    /// applies a sparse delta-DFT for small moves, and rebuilds when the
    /// cache holds another layout or more than
    /// cfg.incremental_fallback_fraction of the segments moved.
    SimMetrics evaluate(const geo::SegmentedLayout& layout, std::span<const int> offsets,
                        Refresh refresh);

    /// Multi-corner window evaluation: the cache is refreshed as above, then
    /// ONE aerial per focus plane is produced from the cached support
    /// spectrum through per-focus SupportApplicators — no per-corner
    /// rasterization or forward FFT. Planes are imaged two at a time in spec
    /// order through SupportApplicator::apply_pair, so the standard window
    /// {0, defocus} pairs exactly as the nominal overload does. Extra focus planes acquire their kernel
    /// sets from the registry on first use and are cached on this evaluator.
    /// Metrics match the dense window LithoSim::evaluate within the
    /// incremental tolerances above. Refreshes the cached standard metrics,
    /// so interleaving with the nominal overload stays consistent.
    WindowMetrics evaluate(const geo::SegmentedLayout& layout, std::span<const int> offsets,
                           const WindowSpec& spec, Refresh refresh);

    /// The cached effective mask (clamped coverage, row-major n*n) and the
    /// cached mask spectrum, entry i at tcc_support_freqs(cfg)[i].
    [[nodiscard]] std::span<const float> cached_mask() const { return clamped_; }
    [[nodiscard]] std::span<const std::complex<double>> cached_spectrum() const {
        return spectrum_;
    }

    [[nodiscard]] long long incremental_count() const { return incremental_count_; }
    [[nodiscard]] long long full_count() const { return full_count_; }

private:
    struct PixelDelta {
        int row = 0;
        int col = 0;
        double d = 0.0;  ///< change of the clamped coverage value
    };

    /// The applicator of one focus plane.
    struct FocusPlane {
        double defocus_nm = 0.0;
        SupportApplicator applicator;
    };

    /// How refresh_cache() brought the cache up to date with `offsets`.
    enum class CacheUpdate { kUnchanged, kSparse, kRebuilt };

    CacheUpdate refresh_cache(const geo::SegmentedLayout& layout, std::span<const int> offsets,
                              Refresh refresh);
    /// Counts one evaluation as a hit (sparse or unchanged) or a full rebuild.
    void count(CacheUpdate update);
    void rebuild_cache(const geo::SegmentedLayout& layout, std::span<const int> offsets);
    void apply_polygon_delta(const geo::Polygon& old_poly, const geo::Polygon& new_poly,
                             std::vector<PixelDelta>& deltas);
    /// Returns the polygon's coverage rect, the only pixels it touched.
    geo::PixelRect accumulate_polygon(const geo::Polygon& poly, double weight,
                                      std::vector<float>& scratch);
    void update_spectrum(const std::vector<PixelDelta>& deltas);
    [[nodiscard]] SimMetrics metrics_from_cache(const geo::SegmentedLayout& layout) const;
    [[nodiscard]] geo::Polygon translated_polygon(const geo::SegmentedLayout& layout, int p,
                                                  std::span<const int> offsets) const;

    /// The applicator of the plane at `defocus_nm`: a plane already in
    /// planes_ (within kFocusMatchTolNm), or one acquired from the registry.
    [[nodiscard]] const SupportApplicator* plane_for(double defocus_nm);
    /// Appends a plane after checking that `kernels` share the cached support.
    void add_plane(double defocus_nm, const KernelSet& kernels);
    /// One aerial per plane from the cached support spectrum, imaged in
    /// consecutive pairs through apply_pair; the last of an odd count is
    /// imaged alone.
    [[nodiscard]] std::vector<geo::Raster> aerials_from_cache(
        std::span<const SupportApplicator* const> planes) const;

    LithoConfig cfg_;
    double threshold_ = 0.0;
    std::vector<FreqIndex> support_;  ///< tcc_support_freqs(cfg_)
    /// Nominal and cfg defocus first, then window sweep planes in order of
    /// first use; a deque, so the applicators never move.
    std::deque<FocusPlane> planes_;

    std::vector<int> freq_kx_;   ///< wrapped kx per support frequency
    std::vector<int> freq_ky_;   ///< wrapped ky per support frequency
    std::vector<int> freq_pos_;  ///< wrapped fine-grid flat index per support frequency
    std::vector<std::complex<double>> twiddle_;  ///< exp(-2*pi*i*t/n), t in [0, n)

    // Cache keyed on the layout's content fingerprint (targets + SRAFs +
    // clip size), never on its address: a destroyed layout's address can be
    // reused by a different clip with the same segment count.
    std::uint64_t layout_key_ = 0;
    bool cache_valid_ = false;
    int clip_size_nm_ = 0;
    int clip_offset_ = 0;
    std::vector<int> offsets_;
    std::vector<geo::Polygon> poly_cache_;  ///< translated mask polygon per target
    std::vector<double> acc_;               ///< unclamped signed coverage accumulator
    std::vector<float> clamped_;            ///< clamp01 of acc_, the effective mask
    std::vector<std::complex<double>> spectrum_;  ///< mask spectrum at support_
    SimMetrics metrics_;                          ///< metrics of the cached state

    long long incremental_count_ = 0;
    long long full_count_ = 0;
};

}  // namespace camo::litho
