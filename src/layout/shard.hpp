// Full-chip tile sharder: cut a chip-scale layout into overlapping
// halo-padded tiles, and stitch per-tile OPC results back into one mask.
//
// Geometry. The chip plane is covered by a grid of `tile_nm` x `tile_nm`
// *core* rectangles; every tile is optimized over its core expanded by
// `halo_nm` on each side (the *window*):
//
//         +-----------------------------+
//         |        halo (context)       |
//         |   +---------------------+   |
//         |   |                     |   |
//         |   |     core (owned)    |   |      window = core + 2*halo
//         |   |                     |   |
//         |   +---------------------+   |
//         |                             |
//         +-----------------------------+
//
// Every chip polygon is *owned* by exactly one tile — the tile whose core
// contains its bounding-box center (a deterministic assignment; centers
// exactly on a cut line belong to the upper tile) — and additionally rides
// along as *context* in every other tile whose window its bounding box
// reaches. Context polygons give seam segments the optical neighbourhood
// they would have had in a monolithic run; their per-segment results are
// computed and then discarded.
//
// Stitching lets the halo-context result win at every seam: for each chip
// polygon, the stitched offsets are taken from its owner tile — the one run
// in which the polygon sat in the core with a full halo of context around
// it — and the copies other tiles computed at the seam (where the same
// polygon had context on one side only) are dropped.
//
// Correctness contract (tests/test_layout_shard.cpp): fragmentation is
// translation-invariant, so tile-local segments map 1:1 onto chip-level
// segments, and for any polygon whose optical context window (halo radius)
// lies entirely inside one tile the shard -> optimize -> stitch result is
// bit-identical to optimizing that neighbourhood as a standalone clip, at
// any thread count and any tile visit order. ShardOptions::validate rejects
// halos below litho::interaction_radius_nm — a halo that cannot contain the
// optical context would silently produce seam artifacts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "geometry/fragment.hpp"
#include "geometry/layout.hpp"
#include "geometry/polygon.hpp"
#include "litho/config.hpp"

namespace camo::layout {

/// `poly` with every vertex moved by (dx, dy).
[[nodiscard]] geo::Polygon translated(const geo::Polygon& poly, int dx, int dy);

/// SRAF inserter applied per tile to the (owned + context) targets in
/// tile-local coordinates. Kept as a callback so the layout layer does not
/// depend on opc; via-style callers pass opc::insert_srafs.
using SrafGenerator = std::function<std::vector<geo::Polygon>(const std::vector<geo::Polygon>&)>;

struct ShardOptions {
    /// Largest |coordinate| the sharder accepts, for chip vertices and a
    /// pinned origin: doubled coordinates must fit an int. 2^29 nm is about
    /// 537 mm, far beyond any reticle (<= 33 mm).
    static constexpr int kMaxCoordNm = 1 << 29;

    int tile_nm = 512;  ///< core tile edge
    int halo_nm = 256;  ///< context margin added on every side of the core

    geo::FragmentOptions fragment{};  ///< fragmentation of tile (and chip) layouts
    SrafGenerator sraf_gen;           ///< null = no SRAFs

    /// Tile grid anchor. By default the grid is anchored at the chip
    /// bounding box's lower-left corner; set auto_origin = false to pin the
    /// cut lines to `origin` (chipgen-produced chips use (0, 0) so tile
    /// boundaries land on the placement pitch).
    bool auto_origin = true;
    geo::Point origin{0, 0};

    [[nodiscard]] int window_nm() const { return tile_nm + 2 * halo_nm; }

    /// Throws std::invalid_argument when the geometry cannot work: a
    /// non-positive tile, a halo below litho::interaction_radius_nm(litho)
    /// (seam segments would lose optical context), a window that does
    /// not fit the simulation frame, or a pinned origin beyond kMaxCoordNm.
    void validate(const litho::LithoConfig& litho) const;
};

/// One halo-padded tile. `members` lists the chip polygon indices present
/// in the window (ascending chip order, which is also the polygon order of
/// `layout`); `owned[k]` says whether members[k]'s results are kept at
/// stitch time.
struct Tile {
    int tx = 0;  ///< tile grid column
    int ty = 0;  ///< tile grid row
    geo::Rect core{};    ///< owned region, chip coordinates
    geo::Rect window{};  ///< core expanded by the halo, chip coordinates
    std::vector<int> members;
    std::vector<bool> owned;
    geo::SegmentedLayout layout;  ///< window contents in tile-local coordinates

    [[nodiscard]] int owned_count() const;
    [[nodiscard]] std::string name() const;  ///< "t<tx>x<ty>"
};

/// Cuts a full-chip polygon set into tiles at construction. Tiles whose
/// core owns no polygon are skipped (their results would be discarded
/// whole); tiles() is ordered row-major (ty, then tx), which is the
/// canonical tile-job order the streaming runtime consumes.
class TileSharder {
public:
    /// Validates `opt` against `litho` (see ShardOptions::validate), then
    /// shards. An empty chip yields zero tiles. Throws std::invalid_argument
    /// when a chip vertex lies beyond ShardOptions::kMaxCoordNm.
    TileSharder(std::vector<geo::Polygon> chip, ShardOptions opt,
                const litho::LithoConfig& litho);

    [[nodiscard]] const std::vector<Tile>& tiles() const { return tiles_; }
    [[nodiscard]] const std::vector<geo::Polygon>& chip() const { return chip_; }
    [[nodiscard]] const ShardOptions& options() const { return opt_; }

    /// Owner tile index (into tiles()) of each chip polygon.
    [[nodiscard]] const std::vector<int>& owner() const { return owner_; }

    /// Per-tile layouts in tiles() order — the clip vector the batch
    /// runtime optimizes.
    [[nodiscard]] std::vector<geo::SegmentedLayout> tile_layouts() const;

    /// Tile names in tiles() order (for per-clip reporting).
    [[nodiscard]] std::vector<std::string> tile_names() const;

    /// The whole chip fragmented with the same options, in chip
    /// coordinates: the frame stitched offsets live on. Fragmentation is
    /// translation-invariant, so polygon p's segment range here corresponds
    /// 1:1 to p's range inside its tiles.
    [[nodiscard]] geo::SegmentedLayout chip_layout() const;

    [[nodiscard]] int total_owned_segments() const;

private:
    std::vector<geo::Polygon> chip_;
    ShardOptions opt_;
    std::vector<Tile> tiles_;
    std::vector<int> owner_;
};

/// Stitched full-chip result: per-segment offsets on the sharder's
/// chip_layout() plus the reconstructed mask polygons.
struct StitchResult {
    std::vector<int> offsets;
    std::vector<geo::Polygon> mask;
};

/// Reassemble per-tile offsets (tile_offsets[i] belongs to
/// sharder.tiles()[i].layout) into chip-level offsets, owner tile winning
/// at every seam. Throws std::invalid_argument on a size mismatch — a tile
/// result vector that does not match its layout, or a chip layout that was
/// not fragmented like the tiles.
StitchResult stitch(const TileSharder& sharder, const geo::SegmentedLayout& chip_layout,
                    const std::vector<std::vector<int>>& tile_offsets);

}  // namespace camo::layout
