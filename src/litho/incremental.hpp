// Incremental lithography evaluation: the one evaluation path.
//
// The SOCS kernels read the mask spectrum only at their small frequency
// support, and consecutive OPC iterations move only the segments the policy
// acted on. The evaluator exploits both; LithoSim::evaluate is a fresh
// evaluator primed once (Refresh::kPrime), evaluate_incremental keeps one
// per simulator:
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
//   * Every aerial image comes from the focus plane's shared
//     KernelApplicator (litho/aerial.hpp), which evaluates the SOCS sum on
//     a small coarse grid and upsamples it to the full grid, the two
//     standard planes through one packed upsample. The applicators are the
//     registry's (kernel_registry.hpp): every evaluator of a configuration
//     reads the same immutable objects.
//   * The N x N transform buffers (the upsample's and the rebuild's
//     forward FFT's) are per-thread scratch, not per-call allocations.
//
// Equivalence contract (tested in tests/test_litho_incremental.cpp and
// tests/test_litho_drift.cpp against the dense K-full-grid-FFT reference in
// tests/litho_dense_reference.hpp): a prime and every sparse update
// compute the same image as the dense SOCS sum, but float through a
// different (shorter) computation, so metrics agree to float rounding, not
// bit-for-bit:
//   * EPE per segment within kIncrementalEpeTolNm;
//   * PV band within kIncrementalPvbPixelSlack border pixels. The
//     epsilon-stable pixel_prints predicate (litho/metrics.hpp) removes the
//     exact-tie divergence — a pixel whose true intensity sits on
//     threshold * dose prints on both — so the remaining slack only covers
//     pixels whose intensity the two float pipelines genuinely place on
//     opposite sides of the (epsilon-shifted) contour.
// What moved is found by comparing the offsets against the cached ones, so
// callers pass only the new offsets; with unchanged offsets the cached
// metrics are returned unchanged (exact).
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/aerial.hpp"
#include "litho/config.hpp"
#include "litho/fft.hpp"
#include "litho/metrics.hpp"
#include "litho/process_window.hpp"
#include "litho/tcc.hpp"

namespace camo::litho {

/// Documented equivalence tolerances against the dense SOCS reference.
inline constexpr double kIncrementalEpeTolNm = 1e-3;
inline constexpr double kIncrementalPvbPixelSlack = 4.0;  ///< border pixels that may flip

/// Content key of the incremental cache: FNV-1a over the segment count, the
/// clip size and every target and SRAF vertex. Two layouts with equal keys
/// rasterize alike, whatever their addresses.
[[nodiscard]] std::uint64_t layout_fingerprint(const geo::SegmentedLayout& layout);

/// Per-clip incremental evaluation state. One instance per LithoSim; not
/// thread-safe (the batch runtime gives each worker its own simulator).
class IncrementalEvaluator {
public:
    /// Throws std::invalid_argument unless both applicators' kernel sets
    /// (and every extra focus plane acquired later) are supported on
    /// tcc_support_freqs(cfg).
    IncrementalEvaluator(const LithoConfig& cfg, double threshold,
                         std::shared_ptr<const KernelApplicator> nominal,
                         std::shared_ptr<const KernelApplicator> defocus);

    /// Standard two-condition metrics of `offsets`. Refresh::kPrime rebuilds
    /// the cache; Refresh::kUpdate reuses it outright when nothing moved,
    /// applies a sparse delta-DFT for small moves, and rebuilds when the
    /// cache holds another layout or more than
    /// cfg.incremental_fallback_fraction of the segments moved.
    SimMetrics evaluate(const geo::SegmentedLayout& layout, std::span<const int> offsets,
                        Refresh refresh);

    /// Multi-corner window evaluation: the cache is refreshed as above, then
    /// ONE aerial per focus plane is produced from the cached support
    /// spectrum through the plane's applicator — no per-corner
    /// rasterization or forward FFT. Planes are imaged two at a time in spec
    /// order through KernelApplicator::apply_pair, so the standard window
    /// {0, defocus} pairs exactly as the nominal overload does. Extra focus
    /// planes acquire their applicators from the registry on first use and
    /// are kept on this evaluator. Refreshes the cached standard metrics,
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

    /// One focus plane and its shared registry applicator.
    struct FocusPlane {
        double defocus_nm = 0.0;
        std::shared_ptr<const KernelApplicator> applicator;
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
    [[nodiscard]] const KernelApplicator* plane_for(double defocus_nm);
    /// Appends a plane after checking that its kernels share the cached
    /// support.
    void add_plane(double defocus_nm, std::shared_ptr<const KernelApplicator> applicator);
    /// One aerial per plane from the cached support spectrum, imaged in
    /// consecutive pairs through apply_pair; the last of an odd count is
    /// imaged alone.
    [[nodiscard]] std::vector<geo::Raster> aerials_from_cache(
        std::span<const KernelApplicator* const> planes) const;

    LithoConfig cfg_;
    double threshold_ = 0.0;
    std::vector<FreqIndex> support_;  ///< tcc_support_freqs(cfg_)
    /// Nominal and cfg defocus first, then window sweep planes in order of
    /// first use.
    std::vector<FocusPlane> planes_;

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
