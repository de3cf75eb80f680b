#include "litho/simulator.hpp"

#include <stdexcept>

#include "litho/incremental.hpp"
#include "litho/kernel_registry.hpp"
#include "obs/trace.hpp"

namespace camo::litho {
namespace {

// Telemetry handles for the evaluation facade. `litho.evaluations` counts
// every evaluate / evaluate_incremental call — the same events as the
// per-instance evaluate_count_, so the registry total equals the sum over
// simulators (what BatchResult::litho_evaluations reports per batch).
obs::MetricId eval_counter() {
    static const obs::MetricId id = obs::register_counter("litho.evaluations");
    return id;
}
obs::MetricId eval_hist() {
    static const obs::MetricId id = obs::register_histogram("litho.evaluate.ns");
    return id;
}
obs::MetricId eval_incremental_hist() {
    static const obs::MetricId id = obs::register_histogram("litho.evaluate_incremental.ns");
    return id;
}
obs::MetricId window_hist() {
    static const obs::MetricId id = obs::register_histogram("litho.evaluate_window.ns");
    return id;
}
// Registry mirrors of the per-instance hit/full counters, added once per
// evaluate_incremental call, so the registry totals equal the sums over
// simulators that BatchResult reports. evaluate()'s throwaway evaluator
// counts in neither.
obs::MetricId hits_counter() {
    static const obs::MetricId id = obs::register_counter("litho.incremental.hits");
    return id;
}
obs::MetricId fulls_counter() {
    static const obs::MetricId id = obs::register_counter("litho.incremental.fulls");
    return id;
}

void count_evaluation(std::atomic<long long>& count) {
    count.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add(eval_counter());
}

// One evaluate_incremental call on `inc`, mirrored into the registry as a
// hit or a full rebuild.
template <typename Eval>
auto counted(IncrementalEvaluator& inc, const Eval& eval) {
    const long long fulls = inc.full_count();
    auto result = eval(inc);
    obs::counter_add(inc.full_count() > fulls ? fulls_counter() : hits_counter());
    return result;
}

}  // namespace

LithoSim::LithoSim(LithoConfig cfg) : cfg_(std::move(cfg)) {
    if (!is_pow2(cfg_.grid)) throw std::invalid_argument("LithoSim: grid must be a power of two");

    const SharedKernels kernels = acquire_kernels(cfg_);
    nominal_ = kernels.nominal;
    defocus_ = kernels.defocus;
    threshold_ = cfg_.threshold > 0.0 ? cfg_.threshold : kernels.threshold;
}

LithoSim::LithoSim(const LithoSim& other)
    : cfg_(other.cfg_),
      threshold_(other.threshold_),
      nominal_(other.nominal_),
      defocus_(other.defocus_) {}

LithoSim::~LithoSim() = default;

int LithoSim::clip_offset_nm(int clip_size_nm) const {
    return cfg_.clip_frame_offset_nm(clip_size_nm);
}

geo::Raster LithoSim::rasterize(std::span<const geo::Polygon> mask,
                                std::span<const geo::Polygon> srafs,
                                int clip_size_nm) const {
    return rasterize_clip(cfg_, mask, srafs, clip_size_nm);
}

geo::Raster LithoSim::aerial_nominal(const geo::Raster& mask) const {
    return nominal_->apply(mask_spectrum(mask), cfg_.pixel_nm);
}

geo::Raster LithoSim::aerial_defocus(const geo::Raster& mask) const {
    return defocus_->apply(mask_spectrum(mask), cfg_.pixel_nm);
}

SimMetrics LithoSim::evaluate(const geo::SegmentedLayout& layout,
                              std::span<const int> offsets) const {
    const obs::Span span("litho.evaluate", eval_hist());
    count_evaluation(evaluate_count_);
    return IncrementalEvaluator(cfg_, threshold_, nominal_, defocus_)
        .evaluate(layout, offsets, Refresh::kPrime);
}

WindowMetrics LithoSim::evaluate(const geo::SegmentedLayout& layout,
                                 std::span<const int> offsets, const WindowSpec& spec) const {
    const obs::Span span("litho.evaluate_window", window_hist());
    count_evaluation(evaluate_count_);
    return IncrementalEvaluator(cfg_, threshold_, nominal_, defocus_)
        .evaluate(layout, offsets, spec, Refresh::kPrime);
}

IncrementalEvaluator& LithoSim::cache() {
    count_evaluation(evaluate_count_);
    if (!incremental_) {
        incremental_ = std::make_unique<IncrementalEvaluator>(cfg_, threshold_, nominal_, defocus_);
    }
    return *incremental_;
}

SimMetrics LithoSim::evaluate_incremental(const geo::SegmentedLayout& layout,
                                          std::span<const int> offsets, Refresh refresh) {
    const obs::Span span("litho.evaluate_incremental", eval_incremental_hist());
    return counted(cache(), [&](IncrementalEvaluator& inc) {
        return inc.evaluate(layout, offsets, refresh);
    });
}

WindowMetrics LithoSim::evaluate_incremental(const geo::SegmentedLayout& layout,
                                             std::span<const int> offsets,
                                             const WindowSpec& spec, Refresh refresh) {
    const obs::Span span("litho.evaluate_window", window_hist());
    return counted(cache(), [&](IncrementalEvaluator& inc) {
        return inc.evaluate(layout, offsets, spec, refresh);
    });
}

long long LithoSim::incremental_hit_count() const {
    return incremental_ ? incremental_->incremental_count() : 0;
}

long long LithoSim::incremental_full_count() const {
    return incremental_ ? incremental_->full_count() : 0;
}

geo::Raster LithoSim::printed(const geo::Raster& aerial, double dose) const {
    geo::Raster out(aerial.n(), aerial.pixel_nm());
    const auto src = aerial.data();
    auto dst = out.data();
    for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = pixel_prints(src[i], dose, threshold_) ? 1.0F : 0.0F;
    }
    return out;
}

}  // namespace camo::litho
