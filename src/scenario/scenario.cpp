#include "scenario/scenario.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "layout/metal_gen.hpp"
#include "layout/pattern_gen.hpp"
#include "layout/shard.hpp"

namespace camo::scenario {

const char* style_name(Style style) {
    switch (style) {
        case Style::kVia: return "via";
        case Style::kMetal: return "metal";
    }
    return "unknown";
}

litho::LithoConfig quick_litho() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "";  // the matrix never touches the on-disk kernel cache
    return cfg;
}

std::vector<layout::Clip> Scenario::clips(int count) const {
    if (!generate) throw std::invalid_argument("scenario '" + name + "' has no generator");
    std::vector<layout::Clip> out;
    out.reserve(static_cast<std::size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i) {
        Rng rng(derive_seed(seed, static_cast<std::uint64_t>(i)));
        layout::Clip clip;
        clip.name = name + "_" + std::to_string(i);
        clip.targets = generate(rng);
        clip.clip_nm = clip_nm;
        out.push_back(std::move(clip));
    }
    return out;
}

std::vector<geo::SegmentedLayout> Scenario::layouts(int count) const {
    const std::vector<layout::Clip> cs = clips(count);
    return style == Style::kVia ? core::fragment_via_clips(cs) : core::fragment_metal_clips(cs);
}

std::vector<geo::Polygon> chip_polygons(const Scenario& sc, int cols, int rows, int pitch_nm) {
    if (cols < 1 || rows < 1) {
        throw std::invalid_argument("chip_polygons: grid must be at least 1x1");
    }
    const int pitch = pitch_nm > 0 ? pitch_nm : sc.clip_nm;
    // The cell count and the chip extent (cell offset plus the cell's own
    // clip) are ints downstream; reject a grid whose product overflows.
    const long long cell_count = static_cast<long long>(cols) * rows;
    const long long extent =
        static_cast<long long>(std::max(cols, rows)) * std::max(pitch, sc.clip_nm);
    if (cell_count > std::numeric_limits<int>::max() ||
        extent > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("chip_polygons: " + std::to_string(cols) + "x" +
                                    std::to_string(rows) + " grid at " + std::to_string(pitch) +
                                    " nm pitch exceeds the int range");
    }
    const std::vector<layout::Clip> cells = sc.clips(static_cast<int>(cell_count));
    std::vector<geo::Polygon> chip;
    for (int cy = 0; cy < rows; ++cy) {
        for (int cx = 0; cx < cols; ++cx) {
            const layout::Clip& cell = cells[static_cast<std::size_t>(cy * cols + cx)];
            for (const geo::Polygon& poly : cell.targets) {
                chip.push_back(layout::translated(poly, cx * pitch, cy * pitch));
            }
        }
    }
    return chip;
}

namespace {

// The eight builtin scenarios. All run on the quick-scale frame with a
// 1000 nm clip; a few vary the litho/window to exercise config plumbing
// (wider dose range, deeper defocus, a three-plane focus ladder).
std::vector<Scenario> builtin_scenarios() {
    std::vector<Scenario> out;

    {
        Scenario s;
        s.name = "via3";
        s.description = "paper-style random via clips (2-4 vias, SRAF-assisted)";
        s.style = Style::kVia;
        s.seed = 101;
        s.generate = [](Rng& rng) {
            layout::ViaGenOptions opt;
            opt.clip_nm = 1000;
            opt.margin_nm = 200;
            opt.min_spacing_nm = 120;
            // 2-4 vias: rejection placement stays reliable in the 600 nm of
            // usable room (5+ can exhaust the attempt budget).
            const int vias = rng.uniform_int(2, 4);
            return layout::generate_via_clip(vias, rng, opt);
        };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "metal24";
        s.description = "paper-style random metal clips (24 measure points)";
        s.style = Style::kMetal;
        s.seed = 102;
        s.generate = [](Rng& rng) {
            layout::MetalGenOptions opt;
            opt.clip_nm = 1000;
            return layout::generate_metal_clip(24, rng, opt);
        };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "via-pairs";
        s.description = "double-patterning via pairs at near-minimum gap";
        s.style = Style::kVia;
        s.seed = 103;
        s.generate = [](Rng& rng) { return layout::generate_via_pair_array(rng); };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "contact-grid";
        s.description = "uniform contact grid, 3x3..4x4 at one random pitch";
        s.style = Style::kVia;
        s.seed = 104;
        s.generate = [](Rng& rng) { return layout::generate_contact_grid(rng); };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "grating-jog";
        s.description = "line-space grating with probabilistic mid-line jogs";
        s.style = Style::kMetal;
        s.seed = 105;
        s.generate = [](Rng& rng) { return layout::generate_grating_jog(rng); };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "iso-dense";
        s.description = "dense line cluster + isolated line, wide dose window";
        s.style = Style::kMetal;
        s.seed = 106;
        s.litho.dose_min = 0.96;  // iso/dense bias splits grow with dose range
        s.litho.dose_max = 1.04;
        s.generate = [](Rng& rng) { return layout::generate_iso_dense(rng); };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "sram-cell";
        s.description = "SRAM-like mirrored 3-polygon cells, deep defocus corner";
        s.style = Style::kMetal;
        s.seed = 107;
        s.litho.defocus_nm = 30.0;
        s.window.doses = {0.98, 1.0, 1.02};
        s.window.defocus_nm = {0.0, 30.0};
        s.generate = [](Rng& rng) { return layout::generate_sram_cell(rng); };
        out.push_back(std::move(s));
    }
    {
        Scenario s;
        s.name = "multi-pitch";
        s.description = "stacked fine/mid/coarse pitch bands, 3-plane focus ladder";
        s.style = Style::kMetal;
        s.seed = 108;
        s.window.defocus_nm = {0.0, 12.5, 25.0};  // doses resolve from config
        s.generate = [](Rng& rng) { return layout::generate_multi_pitch(rng); };
        out.push_back(std::move(s));
    }
    return out;
}

}  // namespace

Registry& Registry::instance() {
    static Registry* reg = new Registry();  // leaked: usable during exit
    return *reg;
}

Registry::Registry() { entries_ = builtin_scenarios(); }

void Registry::add(Scenario s) {
    if (s.name.empty()) throw std::invalid_argument("scenario name must be non-empty");
    if (!s.generate) {
        throw std::invalid_argument("scenario '" + s.name + "' needs a generator");
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const Scenario& e : entries_) {
        if (e.name == s.name) {
            throw std::invalid_argument("scenario '" + s.name + "' already registered");
        }
    }
    entries_.push_back(std::move(s));
}

Scenario Registry::get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Scenario& e : entries_) {
        if (e.name == name) return e;
    }
    std::string known;
    for (const Scenario& e : entries_) {
        if (!known.empty()) known += ", ";
        known += e.name;
    }
    throw std::out_of_range("unknown scenario '" + name + "' (registered: " + known + ")");
}

bool Registry::contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Scenario& e : entries_) {
        if (e.name == name) return true;
    }
    return false;
}

std::vector<std::string> Registry::names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Scenario& e : entries_) out.push_back(e.name);
    std::sort(out.begin(), out.end());
    return out;
}

bool Registry::remove(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->name == name) {
            entries_.erase(it);
            return true;
        }
    }
    return false;
}

}  // namespace camo::scenario
