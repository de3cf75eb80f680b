#include "litho/incremental.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/file_io.hpp"
#include "litho/aerial.hpp"
#include "litho/kernel_registry.hpp"
#include "obs/trace.hpp"

namespace camo::litho {
namespace {

int wrap(int k, int n) { return ((k % n) + n) % n; }

obs::MetricId delta_dft_hist() {
    static const obs::MetricId id = obs::register_histogram("litho.delta_dft.ns");
    return id;
}
obs::MetricId rebuild_hist() {
    static const obs::MetricId id = obs::register_histogram("litho.incremental.rebuild.ns");
    return id;
}

}  // namespace

// O(total vertices) per evaluation: noise next to the evaluation itself.
std::uint64_t layout_fingerprint(const geo::SegmentedLayout& layout) {
    std::uint64_t h = kFnv1aBasis;
    const auto mix = [&h](std::uint64_t v) { h = fnv1a(h, &v, sizeof v); };
    mix(static_cast<std::uint64_t>(layout.num_segments()));
    mix(static_cast<std::uint64_t>(layout.clip_size_nm()));
    auto mix_polys = [&](const std::vector<geo::Polygon>& polys) {
        mix(polys.size());
        for (const geo::Polygon& p : polys) {
            mix(p.vertices().size());
            for (const geo::Point& v : p.vertices()) {
                mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.x)));
                mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.y)));
            }
        }
    };
    mix_polys(layout.targets());
    mix_polys(layout.srafs());
    return h;
}

// ---- IncrementalEvaluator --------------------------------------------------

IncrementalEvaluator::IncrementalEvaluator(const LithoConfig& cfg, double threshold,
                                           std::shared_ptr<const KernelApplicator> nominal,
                                           std::shared_ptr<const KernelApplicator> defocus)
    : cfg_(cfg), threshold_(threshold), support_(tcc_support_freqs(cfg)) {
    const int n = cfg_.grid;
    add_plane(0.0, std::move(nominal));
    add_plane(cfg_.defocus_nm, std::move(defocus));

    for (const FreqIndex& f : support_) {
        freq_kx_.push_back(wrap(f.kx, n));
        freq_ky_.push_back(wrap(f.ky, n));
        freq_pos_.push_back(wrap(f.ky, n) * n + wrap(f.kx, n));
    }
    twiddle_.resize(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        const double ang = -2.0 * std::numbers::pi * t / n;
        twiddle_[static_cast<std::size_t>(t)] = {std::cos(ang), std::sin(ang)};
    }
    spectrum_.assign(support_.size(), {});
}

void IncrementalEvaluator::add_plane(double defocus_nm,
                                     std::shared_ptr<const KernelApplicator> applicator) {
    const auto same = [](const FreqIndex& a, const FreqIndex& b) {
        return a.kx == b.kx && a.ky == b.ky;
    };
    if (!std::ranges::equal(applicator->kernels().support, support_, same)) {
        throw std::invalid_argument(
            "IncrementalEvaluator: kernel support differs from tcc_support_freqs(cfg)");
    }
    planes_.push_back({defocus_nm, std::move(applicator)});
}

geo::Polygon IncrementalEvaluator::translated_polygon(const geo::SegmentedLayout& layout, int p,
                                                      std::span<const int> offsets) const {
    geo::Polygon poly = layout.reconstruct_polygon(p, offsets);
    std::vector<geo::Point> verts = poly.vertices();
    for (geo::Point& v : verts) {
        v.x += clip_offset_;
        v.y += clip_offset_;
    }
    return geo::Polygon(std::move(verts));
}

// Adds `weight` times the polygon's coverage into acc_, restricted to the
// polygon's own coverage rect. Using the polygon's own rect both here and in
// the delta path is what makes subtraction an exact reversal: the per-pixel
// contribution is a pure function of (polygon, pixel), so (-1) undoes (+1)
// bit for bit in the double accumulator, for any pixel pitch.
geo::PixelRect IncrementalEvaluator::accumulate_polygon(const geo::Polygon& poly, double weight,
                                                        std::vector<float>& scratch) {
    const int n = cfg_.grid;
    const geo::PixelRect region = geo::polygon_coverage_rect(poly, cfg_.pixel_nm, n);
    if (region.empty()) return region;
    scratch.assign(region.area(), 0.0F);
    geo::add_polygon_region(scratch, region, poly, cfg_.pixel_nm, n);
    std::size_t b = 0;
    for (int r = region.r0; r < region.r1; ++r) {
        double* row = acc_.data() + static_cast<std::size_t>(r) * n;
        for (int c = region.c0; c < region.c1; ++c, ++b) {
            row[c] += weight * static_cast<double>(scratch[b]);
        }
    }
    return region;
}

void IncrementalEvaluator::rebuild_cache(const geo::SegmentedLayout& layout,
                                         std::span<const int> offsets) {
    const obs::Span span("litho.incremental.rebuild", rebuild_hist());
    const int n = cfg_.grid;
    const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);

    layout_key_ = layout_fingerprint(layout);
    cache_valid_ = true;
    clip_size_nm_ = layout.clip_size_nm();
    clip_offset_ = cfg_.clip_frame_offset_nm(clip_size_nm_);
    offsets_.assign(offsets.begin(), offsets.end());

    acc_.assign(nn, 0.0);

    // Rows outside `covered` (the rows the coverage rects span) keep acc_ at
    // exactly +0.0.
    std::vector<float> scratch;
    geo::PixelRect covered;
    poly_cache_.clear();
    poly_cache_.reserve(layout.targets().size());
    for (int p = 0; p < static_cast<int>(layout.targets().size()); ++p) {
        poly_cache_.push_back(translated_polygon(layout, p, offsets));
        covered = geo::unite(covered, accumulate_polygon(poly_cache_.back(), 1.0, scratch));
    }
    for (const geo::Polygon& sraf : layout.srafs()) {
        std::vector<geo::Point> verts = sraf.vertices();
        for (geo::Point& v : verts) {
            v.x += clip_offset_;
            v.y += clip_offset_;
        }
        covered = geo::unite(covered,
                             accumulate_polygon(geo::Polygon(std::move(verts)), 1.0, scratch));
    }

    // Clamp, fill the FFT input and flag occupied rows in one pass over the
    // covered rows; every other row clamps to +0.0 and is zeroed directly.
    // A row is empty only when every value is +0.0: std::clamp passes -0.0
    // through, and a row holding -0.0 does not transform to all +0.0.
    const std::span<Complex> grid = fine_scratch(nn);
    std::vector<std::uint8_t> row_nonzero(static_cast<std::size_t>(n), 0);
    const auto len = static_cast<std::size_t>(n);
    const std::size_t lo = covered.empty() ? 0 : static_cast<std::size_t>(covered.r0) * len;
    const std::size_t hi = covered.empty() ? 0 : static_cast<std::size_t>(covered.r1) * len;
    clamped_.resize(nn);
    std::fill(clamped_.begin(), clamped_.begin() + static_cast<std::ptrdiff_t>(lo), 0.0F);
    std::fill(clamped_.begin() + static_cast<std::ptrdiff_t>(hi), clamped_.end(), 0.0F);
    std::fill(grid.begin(), grid.begin() + static_cast<std::ptrdiff_t>(lo), Complex{});
    std::fill(grid.begin() + static_cast<std::ptrdiff_t>(hi), grid.end(), Complex{});
    for (std::size_t row = lo; row < hi; row += len) {
        std::uint32_t bits = 0;
        for (std::size_t i = row; i < row + len; ++i) {
            const float v = static_cast<float>(std::clamp(acc_[i], 0.0, 1.0));
            clamped_[i] = v;
            grid[i] = Complex(v, 0.0F);
            bits |= std::bit_cast<std::uint32_t>(v);
        }
        row_nonzero[row / len] = bits != 0 ? 1 : 0;
    }

    // Prime the support spectrum from one forward FFT pruned to the rows the
    // mask occupies and the columns the support reads; the entries read
    // below equal a dense fft2d_forward bit for bit.
    std::vector<std::uint8_t> col_needed(static_cast<std::size_t>(n), 0);
    for (const int kx : freq_kx_) col_needed[static_cast<std::size_t>(kx)] = 1;
    fft2d_forward_pruned(grid, n, row_nonzero, col_needed);
    for (std::size_t j = 0; j < freq_pos_.size(); ++j) {
        const Complex v = grid[static_cast<std::size_t>(freq_pos_[j])];
        spectrum_[j] = {static_cast<double>(v.real()), static_cast<double>(v.imag())};
    }
}

void IncrementalEvaluator::apply_polygon_delta(const geo::Polygon& old_poly,
                                               const geo::Polygon& new_poly,
                                               std::vector<PixelDelta>& deltas) {
    const int n = cfg_.grid;
    const geo::PixelRect old_rect = geo::polygon_coverage_rect(old_poly, cfg_.pixel_nm, n);
    const geo::PixelRect new_rect = geo::polygon_coverage_rect(new_poly, cfg_.pixel_nm, n);
    const geo::PixelRect region = geo::unite(old_rect, new_rect);
    if (region.empty()) return;

    // Subtract the old polygon over its own rect (the exact reversal of how
    // rebuild_cache / earlier deltas added it) and add the new one over its.
    std::vector<float> scratch;
    accumulate_polygon(old_poly, -1.0, scratch);
    accumulate_polygon(new_poly, 1.0, scratch);

    // Re-clamp over the union and record every pixel whose effective (mask)
    // value changed for the sparse delta-DFT.
    for (int r = region.r0; r < region.r1; ++r) {
        for (int c = region.c0; c < region.c1; ++c) {
            const std::size_t idx = static_cast<std::size_t>(r) * n + static_cast<std::size_t>(c);
            const float clamped = static_cast<float>(std::clamp(acc_[idx], 0.0, 1.0));
            const double dc =
                static_cast<double>(clamped) - static_cast<double>(clamped_[idx]);
            if (dc != 0.0) {
                clamped_[idx] = clamped;
                deltas.push_back({r, c, dc});
            }
        }
    }
}

void IncrementalEvaluator::update_spectrum(const std::vector<PixelDelta>& deltas) {
    const obs::Span span("litho.delta_dft", delta_dft_hist());
    const int n = cfg_.grid;
    const std::size_t freqs = freq_kx_.size();
    const int* kx = freq_kx_.data();
    const int* ky = freq_ky_.data();
    std::complex<double>* spec = spectrum_.data();
    for (const PixelDelta& p : deltas) {
        // S[kx, ky] += d * exp(-2*pi*i*(kx*col + ky*row)/n), the same sign
        // convention as fft2d_forward.
        for (std::size_t j = 0; j < freqs; ++j) {
            const int t = (kx[j] * p.col + ky[j] * p.row) % n;
            spec[j] += p.d * twiddle_[static_cast<std::size_t>(t)];
        }
    }
}

std::vector<geo::Raster> IncrementalEvaluator::aerials_from_cache(
    std::span<const KernelApplicator* const> planes) const {
    // Every plane reads the spectrum as cached: one float conversion serves
    // them all.
    std::vector<Complex> vals(spectrum_.size());
    for (std::size_t i = 0; i < vals.size(); ++i) {
        vals[i] = {static_cast<float>(spectrum_[i].real()),
                   static_cast<float>(spectrum_[i].imag())};
    }
    std::vector<geo::Raster> aerials;
    aerials.reserve(planes.size());
    for (std::size_t i = 0; i + 1 < planes.size(); i += 2) {
        auto [first, second] = planes[i]->apply_pair(vals, *planes[i + 1], vals, cfg_.pixel_nm);
        aerials.push_back(std::move(first));
        aerials.push_back(std::move(second));
    }
    if (planes.size() % 2 != 0) {
        aerials.push_back(planes.back()->apply_support(vals, cfg_.pixel_nm));
    }
    return aerials;
}

SimMetrics IncrementalEvaluator::metrics_from_cache(const geo::SegmentedLayout& layout) const {
    const std::array<const KernelApplicator*, 2> planes{planes_[0].applicator.get(),
                                                        planes_[1].applicator.get()};
    const std::vector<geo::Raster> aerials = aerials_from_cache(planes);
    return compute_sim_metrics(layout, aerials[0], aerials[1], threshold_, clip_offset_,
                               cfg_.epe_range_nm, cfg_.dose_min, cfg_.dose_max);
}

const KernelApplicator* IncrementalEvaluator::plane_for(double defocus_nm) {
    for (const FocusPlane& plane : planes_) {
        if (std::abs(plane.defocus_nm - defocus_nm) < kFocusMatchTolNm) {
            return plane.applicator.get();
        }
    }
    add_plane(defocus_nm, acquire_focus_applicator(cfg_, defocus_nm));
    return planes_.back().applicator.get();
}

IncrementalEvaluator::CacheUpdate IncrementalEvaluator::refresh_cache(
    const geo::SegmentedLayout& layout, std::span<const int> offsets, Refresh refresh) {
    const int segments = layout.num_segments();
    if (static_cast<int>(offsets.size()) != segments) {
        throw std::invalid_argument("IncrementalEvaluator: offsets size mismatch");
    }
    const bool cache_ok = refresh == Refresh::kUpdate && cache_valid_ &&
                          static_cast<int>(offsets_.size()) == segments &&
                          layout_key_ == layout_fingerprint(layout);
    if (!cache_ok) {
        rebuild_cache(layout, offsets);
        return CacheUpdate::kRebuilt;
    }

    // What moved is whatever differs from the cached offsets.
    std::vector<int> changed;
    for (int i = 0; i < segments; ++i) {
        if (offsets[i] != offsets_[static_cast<std::size_t>(i)]) changed.push_back(i);
    }
    if (changed.empty()) return CacheUpdate::kUnchanged;

    if (static_cast<double>(changed.size()) >
        cfg_.incremental_fallback_fraction * static_cast<double>(segments)) {
        rebuild_cache(layout, offsets);
        return CacheUpdate::kRebuilt;
    }

    // A segment's move affects exactly its owning polygon.
    std::vector<int> polys;
    for (int i : changed) {
        const int p = layout.segments()[static_cast<std::size_t>(i)].poly;
        if (std::find(polys.begin(), polys.end(), p) == polys.end()) polys.push_back(p);
    }

    std::vector<PixelDelta> deltas;
    for (int p : polys) {
        geo::Polygon new_poly = translated_polygon(layout, p, offsets);
        apply_polygon_delta(poly_cache_[static_cast<std::size_t>(p)], new_poly, deltas);
        poly_cache_[static_cast<std::size_t>(p)] = std::move(new_poly);
    }
    offsets_.assign(offsets.begin(), offsets.end());
    update_spectrum(deltas);
    return CacheUpdate::kSparse;
}

void IncrementalEvaluator::count(CacheUpdate update) {
    if (update == CacheUpdate::kRebuilt) {
        ++full_count_;
    } else {
        ++incremental_count_;
    }
}

SimMetrics IncrementalEvaluator::evaluate(const geo::SegmentedLayout& layout,
                                          std::span<const int> offsets, Refresh refresh) {
    const CacheUpdate update = refresh_cache(layout, offsets, refresh);
    // Nothing moved: the cached metrics are exact.
    if (update != CacheUpdate::kUnchanged) metrics_ = metrics_from_cache(layout);
    count(update);
    return metrics_;
}

WindowMetrics IncrementalEvaluator::evaluate(const geo::SegmentedLayout& layout,
                                             std::span<const int> offsets,
                                             const WindowSpec& spec, Refresh refresh) {
    spec.validate();
    const CacheUpdate update = refresh_cache(layout, offsets, refresh);

    // One aerial per focus plane from the cached support spectrum, in pairs.
    std::vector<const KernelApplicator*> planes;
    planes.reserve(spec.defocus_nm.size());
    for (double f : spec.defocus_nm) planes.push_back(plane_for(f));
    const std::vector<geo::Raster> aerials = aerials_from_cache(planes);

    const WindowMetrics wm = window_metrics_from_aerials(layout, spec, aerials, threshold_,
                                                         clip_offset_, cfg_);

    // Keep the cached standard metrics consistent with the (possibly
    // updated) cache so a later nominal evaluation with unchanged offsets
    // can still return them outright. When the window's first pair is
    // (best focus, cfg defocus), its two aerials are the bits
    // metrics_from_cache would image (same applicators, same pair). On the
    // standard doses the aggregation above already produced the metrics
    // with identical arguments — the dose-1.0 corner's EPE profile
    // (threshold / 1.0 on the best-focus aerial) and the two-corner band
    // over dose extremes equal to cfg's — so reuse those outright;
    // otherwise recompute from those two aerials. Any other window images
    // the standard pair afresh.
    if (update != CacheUpdate::kUnchanged) {
        const CornerResult* nominal = wm.nominal_corner();
        const auto [lo_it, hi_it] = std::minmax_element(spec.doses.begin(), spec.doses.end());
        if (spec.find_focus(0.0) != 0 || spec.find_focus(cfg_.defocus_nm) != 1) {
            metrics_ = metrics_from_cache(layout);
        } else if (nominal != nullptr && wm.pv_band_two_corner_nm2 >= 0.0 &&
                   *lo_it == cfg_.dose_min && *hi_it == cfg_.dose_max) {
            metrics_ = nominal->metrics;
            metrics_.pvband_nm2 = wm.pv_band_two_corner_nm2;
        } else {
            metrics_ = compute_sim_metrics(layout, aerials[0], aerials[1], threshold_,
                                           clip_offset_, cfg_.epe_range_nm, cfg_.dose_min,
                                           cfg_.dose_max);
        }
    }
    count(update);
    return wm;
}

}  // namespace camo::litho
