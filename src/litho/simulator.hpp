// LithoSim: the facade every OPC engine talks to.
//
// Construction acquires (builds once per process, or loads from the disk
// cache) the SOCS kernel applicators for the nominal and defocus conditions
// and the auto-calibrated resist threshold via the shared kernel registry.
// One evaluation rasterizes the mask implied by per-segment offsets, images
// it at both focus conditions, and returns EPE per measure point / segment
// plus the PV band — exactly the quantities the paper's reward (Eq. 3) and
// result tables consume. Every evaluation runs through one path, the
// IncrementalEvaluator (litho/incremental.hpp): evaluate() primes a fresh
// one, evaluate_incremental() keeps one per simulator.
//
// Thread-safety contract, carried by the method names: evaluate() is const
// and touches only immutable shared kernel state, its own throwaway
// evaluator and an atomic call counter, so one LithoSim may be used from
// many threads concurrently. evaluate_incremental() mutates a per-instance
// cache and must not be called on one instance from two threads — the batch
// runtime gives each worker its own (cheap) copy, so per-worker caches and
// evaluation counts stay contention-free.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/aerial.hpp"
#include "litho/config.hpp"
#include "litho/metrics.hpp"
#include "litho/process_window.hpp"

namespace camo::litho {

class IncrementalEvaluator;

class LithoSim {
public:
    explicit LithoSim(LithoConfig cfg);

    /// Copies share the immutable kernel applicators (no rebuild, no disk
    /// I/O); only the evaluation counter is per-instance, starting at zero.
    LithoSim(const LithoSim& other);
    LithoSim& operator=(const LithoSim&) = delete;

    [[nodiscard]] const LithoConfig& config() const { return cfg_; }
    [[nodiscard]] double threshold() const { return threshold_; }

    /// Offset that centres a clip of `clip_size_nm` in the simulation frame.
    [[nodiscard]] int clip_offset_nm(int clip_size_nm) const;

    /// Rasterize mask polygons (clip coordinates) onto the simulation grid.
    [[nodiscard]] geo::Raster rasterize(std::span<const geo::Polygon> mask,
                                        std::span<const geo::Polygon> srafs,
                                        int clip_size_nm) const;

    /// Aerial images (intensity in open-frame units) of a rasterized mask.
    [[nodiscard]] geo::Raster aerial_nominal(const geo::Raster& mask) const;
    [[nodiscard]] geo::Raster aerial_defocus(const geo::Raster& mask) const;

    /// Full evaluation of a segmented layout under per-segment offsets: a
    /// fresh evaluator primed with the layout, bit-identical to
    /// evaluate_incremental(layout, offsets, Refresh::kPrime).
    [[nodiscard]] SimMetrics evaluate(const geo::SegmentedLayout& layout,
                                      std::span<const int> offsets) const;

    /// Multi-corner process-window evaluation, likewise bit-identical to
    /// the window evaluate_incremental with Refresh::kPrime: the spec is
    /// validated, the mask rasterized once, and one aerial image per focus
    /// plane (through acquire_focus_applicator) serves every dose at that
    /// focus. On the standard window the (dose 1.0, best focus) corner is
    /// bit-identical to evaluate().
    [[nodiscard]] WindowMetrics evaluate(const geo::SegmentedLayout& layout,
                                         std::span<const int> offsets,
                                         const WindowSpec& spec) const;

    /// Evaluation through the per-instance incremental cache. Refresh::kPrime
    /// rebuilds the cache for `layout` (call it for a clip's first
    /// evaluation); Refresh::kUpdate re-rasterizes only the polygons whose
    /// segments moved since the previous call and updates the cached
    /// support spectrum with a sparse delta-DFT, falling back to a rebuild
    /// when the cache holds another layout or too many segments moved
    /// (cfg.incremental_fallback_fraction). A sparse update matches
    /// evaluate() within the tolerances documented in litho/incremental.hpp.
    /// Not thread-safe on one instance.
    [[nodiscard]] SimMetrics evaluate_incremental(const geo::SegmentedLayout& layout,
                                                  std::span<const int> offsets, Refresh refresh);

    /// Window evaluation through the same cache: refreshed exactly as above,
    /// then every corner is imaged from the cached support spectrum — no
    /// rasterization or forward FFT. Not thread-safe on one instance.
    [[nodiscard]] WindowMetrics evaluate_incremental(const geo::SegmentedLayout& layout,
                                                     std::span<const int> offsets,
                                                     const WindowSpec& spec, Refresh refresh);

    /// Binary printed image at a dose, per the shared epsilon-stable
    /// pixel_prints predicate (litho/metrics.hpp).
    [[nodiscard]] geo::Raster printed(const geo::Raster& aerial, double dose = 1.0) const;

    /// Number of lithography evaluations performed (for runtime accounting).
    [[nodiscard]] long long evaluate_count() const {
        return evaluate_count_.load(std::memory_order_relaxed);
    }

    /// evaluate_incremental() calls served by the sparse delta path vs. by a
    /// full rebuild (Refresh::kPrime, a cache miss or too many moved segments).
    [[nodiscard]] long long incremental_hit_count() const;
    [[nodiscard]] long long incremental_full_count() const;

    /// Nominal-focus SOCS kernels (used by the ILT engine's adjoint).
    [[nodiscard]] const KernelSet& nominal_kernels() const { return nominal_->kernels(); }
    [[nodiscard]] const KernelSet& defocus_kernels() const { return defocus_->kernels(); }

    ~LithoSim();

private:
    LithoConfig cfg_;
    double threshold_ = 0.0;
    std::shared_ptr<const KernelApplicator> nominal_;
    std::shared_ptr<const KernelApplicator> defocus_;
    mutable std::atomic<long long> evaluate_count_{0};
    std::unique_ptr<IncrementalEvaluator> incremental_;  ///< lazily built, never copied

    /// Counts one evaluation and returns the incremental evaluator, building
    /// it on first use.
    IncrementalEvaluator& cache();
};

}  // namespace camo::litho
