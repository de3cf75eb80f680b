#include "litho/kernel_registry.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/logging.hpp"
#include "geometry/polygon.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/tcc.hpp"
#include "obs/trace.hpp"

namespace camo::litho {
namespace {

obs::MetricId kernel_build_counter() {
    static const obs::MetricId id = obs::register_counter("kernels.builds");
    return id;
}
obs::MetricId kernel_build_hist() {
    static const obs::MetricId id = obs::register_histogram("kernels.build.ns");
    return id;
}

// Build-once map: the first get() of a key runs `build` while concurrent
// callers of that key block on its future; later calls return the stored
// value. A failed build reaches every waiter and drops the entry, so a later
// get() retries.
template <typename Key, typename Value>
class BuildOnce {
public:
    template <typename Build>
    Value get(const Key& key, const Build& build) {
        std::promise<Value> promise;
        std::shared_future<Value> future;
        bool is_builder = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                future = it->second;
            } else {
                is_builder = true;
                future = promise.get_future().share();
                entries_.emplace(key, future);
            }
        }
        if (is_builder) {
            try {
                promise.set_value(build());
            } catch (...) {
                promise.set_exception(std::current_exception());
                std::lock_guard<std::mutex> lock(mu_);
                entries_.erase(key);  // waiters still observe the exception
            }
        }
        return future.get();
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
    }

private:
    std::mutex mu_;
    std::map<Key, std::shared_future<Value>> entries_;
};

// Keyed on (physics hash, cache_dir): cache_dir does not change the kernels,
// but it does change the disk side effect (which cache file gets written), so
// configurations pointing at different cache directories stay distinct.
BuildOnce<std::pair<std::uint64_t, std::string>, SharedKernels> g_kernels;

// Extra focus planes (process-window sweeps beyond the two standard
// conditions), keyed on (physics hash, defocus quantized to 1e-3 nm). These
// never touch the disk cache, so cache_dir is not part of the key.
BuildOnce<std::pair<std::uint64_t, long long>, std::shared_ptr<const KernelApplicator>>
    g_focus_planes;

// Threshold = aerial intensity at the edge midpoint of a large isolated
// square, so large features print at size and small ones under-print.
double calibrate_threshold(const LithoConfig& cfg, const KernelApplicator& nominal) {
    const double span = cfg.clip_span_nm();
    const int feat = cfg.calibration_feature_nm;
    const int lo = static_cast<int>(span / 2) - feat / 2;
    const int hi = lo + feat;

    geo::Raster mask(cfg.grid, cfg.pixel_nm);
    mask.add_polygon(geo::Polygon::from_rect({lo, lo, hi, hi}));
    mask.clamp01();

    const geo::Raster aerial = nominal.apply(mask_spectrum(mask), cfg.pixel_nm);
    const double threshold = cfg.calibration_fraction * aerial.sample(lo, span / 2.0);
    log_info("calibrated resist threshold = " + std::to_string(threshold));
    return threshold;
}

SharedKernels build_kernels(const LithoConfig& cfg) {
    const obs::Span span("kernels.build", kernel_build_hist());
    obs::counter_add(kernel_build_counter());
    SharedKernels sk;
    if (auto cached = load_kernel_cache(cfg)) {
        sk.nominal =
            std::make_shared<const KernelApplicator>(std::move(cached->nominal), cfg.grid);
        sk.defocus =
            std::make_shared<const KernelApplicator>(std::move(cached->defocus), cfg.grid);
        sk.threshold = cached->threshold;
        return sk;
    }

    log_info("building SOCS kernels (one-time, shared in-process and cached on disk)");
    KernelSet nom = compute_socs_kernels(cfg, 0.0, cfg.kernels_nominal);
    KernelSet def = compute_socs_kernels(cfg, cfg.defocus_nm, cfg.kernels_defocus);
    sk.nominal = std::make_shared<const KernelApplicator>(std::move(nom), cfg.grid);
    sk.defocus = std::make_shared<const KernelApplicator>(std::move(def), cfg.grid);
    sk.threshold =
        cfg.threshold > 0.0 ? cfg.threshold : calibrate_threshold(cfg, *sk.nominal);
    store_kernel_cache(cfg, {sk.nominal->kernels(), sk.defocus->kernels(), sk.threshold});
    return sk;
}

}  // namespace

SharedKernels acquire_kernels(const LithoConfig& cfg) {
    return g_kernels.get({cfg.physics_hash(), cfg.cache_dir},
                         [&cfg] { return build_kernels(cfg); });
}

int interpolated_kernel_count(const LithoConfig& cfg, double defocus_nm) {
    const double t = cfg.defocus_nm > 0.0
                         ? std::clamp(std::abs(defocus_nm) / cfg.defocus_nm, 0.0, 1.0)
                         : 1.0;
    const double count = cfg.kernels_nominal + t * (cfg.kernels_defocus - cfg.kernels_nominal);
    return std::max(1, static_cast<int>(std::lround(count)));
}

std::shared_ptr<const KernelApplicator> acquire_focus_applicator(const LithoConfig& cfg,
                                                                 double defocus_nm) {
    if (!std::isfinite(defocus_nm)) {
        throw std::invalid_argument("acquire_focus_applicator: defocus must be finite");
    }
    // Standard planes: reuse the acquire_kernels sets (already built or
    // loaded from disk); nothing new is computed.
    if (std::abs(defocus_nm) < kFocusMatchTolNm) return acquire_kernels(cfg).nominal;
    if (std::abs(defocus_nm - cfg.defocus_nm) < kFocusMatchTolNm) {
        return acquire_kernels(cfg).defocus;
    }

    // The plane is built at its key's defocus, not the caller's, so its
    // kernels do not depend on which caller within the key came first.
    const long long key = std::llround(defocus_nm * 1e3);
    return g_focus_planes.get({cfg.physics_hash(), key}, [&cfg, key] {
        const double plane_nm = static_cast<double>(key) / 1e3;
        const obs::Span span("kernels.build", kernel_build_hist());
        obs::counter_add(kernel_build_counter());
        log_info("building SOCS kernels for focus plane " + std::to_string(plane_nm) +
                 " nm (one-time, shared in-process)");
        KernelSet ks =
            compute_socs_kernels(cfg, plane_nm, interpolated_kernel_count(cfg, plane_nm));
        return std::make_shared<const KernelApplicator>(std::move(ks), cfg.grid);
    });
}

void clear_kernel_registry() {
    g_kernels.clear();
    g_focus_planes.clear();
}

}  // namespace camo::litho
