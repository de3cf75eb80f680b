#include "layout/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace camo::layout {

namespace {

obs::MetricId tiles_counter() {
    static const obs::MetricId id = obs::register_counter("shard.tiles");
    return id;
}

obs::MetricId cut_hist() {
    static const obs::MetricId id = obs::register_histogram("shard.cut.ns");
    return id;
}

obs::MetricId stitch_hist() {
    static const obs::MetricId id = obs::register_histogram("shard.stitch.ns");
    return id;
}

/// Tile grid cell of a coordinate: floor((c - origin) / tile), clamped into
/// [0, count). Floor (not truncating) division so polygons left of the
/// origin still map deterministically. 64-bit, so doubled coordinates and
/// their differences cannot overflow.
int grid_cell(long long c, long long origin, long long tile, int count) {
    const long long rel = c - origin;
    long long cell = rel / tile;
    if (rel < 0 && rel % tile != 0) --cell;
    return static_cast<int>(std::clamp<long long>(cell, 0, count - 1));
}

bool out_of_range(int c) {
    return c < -ShardOptions::kMaxCoordNm || c > ShardOptions::kMaxCoordNm;
}

std::string coord_limit() {
    return "+-" + std::to_string(ShardOptions::kMaxCoordNm) + " nm (2^29)";
}

}  // namespace

geo::Polygon translated(const geo::Polygon& poly, int dx, int dy) {
    std::vector<geo::Point> v = poly.vertices();
    for (auto& p : v) {
        p.x += dx;
        p.y += dy;
    }
    return geo::Polygon(std::move(v));
}

void ShardOptions::validate(const litho::LithoConfig& litho) const {
    if (tile_nm < 1) {
        throw std::invalid_argument("ShardOptions: tile_nm must be at least 1, got " +
                                    std::to_string(tile_nm));
    }
    const int radius = litho::interaction_radius_nm(litho);
    if (halo_nm < radius) {
        throw std::invalid_argument(
            "ShardOptions: halo_nm " + std::to_string(halo_nm) +
            " is below the optical interaction radius " + std::to_string(radius) +
            " nm; seam segments would lose context and stitch would not match a "
            "monolithic run");
    }
    if (window_nm() > static_cast<int>(litho.clip_span_nm())) {
        throw std::invalid_argument(
            "ShardOptions: tile window " + std::to_string(window_nm()) +
            " nm exceeds the simulation frame " +
            std::to_string(static_cast<int>(litho.clip_span_nm())) +
            " nm; shrink tile_nm/halo_nm or enlarge the litho grid");
    }
    if (!auto_origin && (out_of_range(origin.x) || out_of_range(origin.y))) {
        throw std::invalid_argument("ShardOptions: origin (" + std::to_string(origin.x) + ", " +
                                    std::to_string(origin.y) + ") lies beyond the " +
                                    coord_limit() + " coordinate limit");
    }
}

int Tile::owned_count() const {
    return static_cast<int>(std::count(owned.begin(), owned.end(), true));
}

std::string Tile::name() const {
    // Appended: GCC 12 flags "t" + std::string&& with a -Wrestrict false
    // positive.
    std::string s = "t";
    s += std::to_string(tx);
    s += 'x';
    s += std::to_string(ty);
    return s;
}

TileSharder::TileSharder(std::vector<geo::Polygon> chip, ShardOptions opt,
                         const litho::LithoConfig& litho)
    : chip_(std::move(chip)), opt_(std::move(opt)) {
    opt_.validate(litho);
    obs::Span span("shard.cut", cut_hist());
    owner_.assign(chip_.size(), -1);
    if (chip_.empty()) return;

    std::vector<geo::Rect> bboxes;
    bboxes.reserve(chip_.size());
    geo::Rect extent = chip_.front().bbox();
    for (std::size_t p = 0; p < chip_.size(); ++p) {
        const geo::Rect bb = chip_[p].bbox();
        if (out_of_range(bb.xlo) || out_of_range(bb.ylo) || out_of_range(bb.xhi) ||
            out_of_range(bb.yhi)) {
            throw std::invalid_argument("TileSharder: polygon " + std::to_string(p) +
                                        " has a vertex beyond the " + coord_limit() +
                                        " coordinate limit");
        }
        bboxes.push_back(bb);
        extent.xlo = std::min(extent.xlo, bb.xlo);
        extent.ylo = std::min(extent.ylo, bb.ylo);
        extent.xhi = std::max(extent.xhi, bb.xhi);
        extent.yhi = std::max(extent.yhi, bb.yhi);
    }

    const geo::Point origin =
        opt_.auto_origin ? geo::Point{extent.xlo, extent.ylo} : opt_.origin;
    const int tile = opt_.tile_nm;
    const int nx = grid_cell(extent.xhi, origin.x, tile, 1 << 30) + 1;
    const int ny = grid_cell(extent.yhi, origin.y, tile, 1 << 30) + 1;

    // Ownership: the tile whose core contains the polygon's bbox center.
    // Centers may land on half-nm, so work in doubled coordinates; a center
    // exactly on a cut line gets floor'd into the upper tile consistently.
    // Cells are (ty, tx) so that sorting them gives row-major order.
    std::vector<std::pair<int, int>> owner_cell(chip_.size());
    for (std::size_t p = 0; p < chip_.size(); ++p) {
        const geo::Rect& bb = bboxes[p];
        owner_cell[p] = {grid_cell(bb.ylo + bb.yhi, 2LL * origin.y, 2LL * tile, ny),
                         grid_cell(bb.xlo + bb.xhi, 2LL * origin.x, 2LL * tile, nx)};
    }

    // Build tiles row-major over the cells that own a polygon only: the
    // grid over a sparse chip's bounding box can hold billions of empty cells.
    std::vector<std::pair<int, int>> cells = owner_cell;
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    for (const auto& [ty, tx] : cells) {
        const geo::Rect core{origin.x + tx * tile, origin.y + ty * tile,
                             origin.x + (tx + 1) * tile, origin.y + (ty + 1) * tile};
        const geo::Rect window = core.expanded(opt_.halo_nm);

        Tile t;
        t.tx = tx;
        t.ty = ty;
        t.core = core;
        t.window = window;
        for (std::size_t p = 0; p < chip_.size(); ++p) {
            const bool owns = owner_cell[p] == std::pair<int, int>{ty, tx};
            if (owns || bboxes[p].intersects(window)) {
                t.members.push_back(static_cast<int>(p));
                t.owned.push_back(owns);
            }
        }

        const int dx = -window.xlo;
        const int dy = -window.ylo;
        std::vector<geo::Polygon> local;
        local.reserve(t.members.size());
        for (const int p : t.members) local.push_back(translated(chip_[p], dx, dy));
        std::vector<geo::Polygon> srafs;
        if (opt_.sraf_gen) srafs = opt_.sraf_gen(local);
        t.layout = geo::SegmentedLayout(std::move(local), opt_.fragment, std::move(srafs),
                                        opt_.window_nm());

        const int tile_index = static_cast<int>(tiles_.size());
        for (std::size_t k = 0; k < t.members.size(); ++k) {
            if (t.owned[k]) owner_[t.members[k]] = tile_index;
        }
        tiles_.push_back(std::move(t));
    }
    obs::counter_add(tiles_counter(), static_cast<long long>(tiles_.size()));
}

std::vector<geo::SegmentedLayout> TileSharder::tile_layouts() const {
    std::vector<geo::SegmentedLayout> out;
    out.reserve(tiles_.size());
    for (const auto& t : tiles_) out.push_back(t.layout);
    return out;
}

std::vector<std::string> TileSharder::tile_names() const {
    std::vector<std::string> out;
    out.reserve(tiles_.size());
    for (const auto& t : tiles_) out.push_back(t.name());
    return out;
}

geo::SegmentedLayout TileSharder::chip_layout() const {
    std::vector<geo::Polygon> srafs;
    if (opt_.sraf_gen) srafs = opt_.sraf_gen(chip_);
    return geo::SegmentedLayout(chip_, opt_.fragment, std::move(srafs), opt_.window_nm());
}

int TileSharder::total_owned_segments() const {
    int total = 0;
    for (const auto& t : tiles_) {
        for (std::size_t k = 0; k < t.members.size(); ++k) {
            if (!t.owned[k]) continue;
            const auto [b, e] = t.layout.polygon_segment_range(static_cast<int>(k));
            total += e - b;
        }
    }
    return total;
}

StitchResult stitch(const TileSharder& sharder, const geo::SegmentedLayout& chip_layout,
                    const std::vector<std::vector<int>>& tile_offsets) {
    obs::Span span("shard.stitch", stitch_hist());
    const auto& tiles = sharder.tiles();
    if (tile_offsets.size() != tiles.size()) {
        throw std::invalid_argument(
            "stitch: got " + std::to_string(tile_offsets.size()) + " offset vectors for " +
            std::to_string(tiles.size()) + " tiles");
    }
    if (static_cast<std::size_t>(chip_layout.num_segments()) == 0 && !sharder.chip().empty()) {
        throw std::invalid_argument("stitch: chip layout has no segments");
    }

    StitchResult out;
    out.offsets.assign(chip_layout.num_segments(), 0);
    std::vector<bool> filled(sharder.chip().size(), false);

    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const Tile& t = tiles[i];
        if (static_cast<int>(tile_offsets[i].size()) != t.layout.num_segments()) {
            throw std::invalid_argument(
                "stitch: tile " + t.name() + " offsets size " +
                std::to_string(tile_offsets[i].size()) + " != layout segments " +
                std::to_string(t.layout.num_segments()));
        }
        for (std::size_t k = 0; k < t.members.size(); ++k) {
            if (!t.owned[k]) continue;
            const int p = t.members[k];
            const auto [tb, te] = t.layout.polygon_segment_range(static_cast<int>(k));
            const auto [cb, ce] = chip_layout.polygon_segment_range(p);
            if (te - tb != ce - cb) {
                // Fragmentation is translation-invariant, so a count mismatch
                // means chip_layout was built with different options.
                throw std::invalid_argument(
                    "stitch: polygon " + std::to_string(p) + " has " +
                    std::to_string(te - tb) + " segments in tile " + t.name() + " but " +
                    std::to_string(ce - cb) + " in the chip layout");
            }
            std::copy(tile_offsets[i].begin() + tb, tile_offsets[i].begin() + te,
                      out.offsets.begin() + cb);
            filled[p] = true;
        }
    }

    for (std::size_t p = 0; p < filled.size(); ++p) {
        if (!filled[p]) {
            throw std::invalid_argument("stitch: polygon " + std::to_string(p) +
                                        " has no owner tile result");
        }
    }

    out.mask = chip_layout.reconstruct_mask(out.offsets);
    return out;
}

}  // namespace camo::layout
