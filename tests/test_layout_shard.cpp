// Tile sharder + stitch: the full-chip correctness contract.
//
// The load-bearing tests here are IsolatedClustersMatchIndependentClipsBitwise
// — a synthetic chip whose via clusters are farther apart than the halo, so
// every tile window contains exactly one cluster and the shard -> stream ->
// stitch pipeline must reproduce, byte for byte at 1/2/8 workers, the
// offsets of optimizing each cluster as a standalone clip — and
// ScenarioChipStreamedStitchMatchesBarrier, the same stitch over a dense
// scenario chip whose tiles share seams, against the barrier runtime.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "geometry/layout.hpp"
#include "layout/shard.hpp"
#include "layout/via_gen.hpp"
#include "litho/config.hpp"
#include "opc/rule_engine.hpp"
#include "opc/sraf.hpp"
#include "runtime/batch.hpp"
#include "scenario/scenario.hpp"

namespace camo::layout {
namespace {

litho::LithoConfig quick_litho() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;  // 1024 nm span = one 512 nm tile + 2 x 256 nm halo
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "";
    return cfg;
}

ShardOptions shard_options() {
    ShardOptions opt;
    opt.tile_nm = 512;
    opt.halo_nm = 256;
    opt.fragment.style = geo::FragmentStyle::kVia;
    opt.sraf_gen = [](const std::vector<geo::Polygon>& t) { return opc::insert_srafs(t); };
    opt.auto_origin = false;
    opt.origin = {0, 0};
    return opt;
}

/// Synthetic chip with via clusters on cells (0,0), (2,0), (0,2), (2,2) of a
/// 3x3 grid at 512 nm pitch. The empty cells between clusters put every
/// foreign polygon >= 712 nm away — outside any 256 nm-halo tile window —
/// so each occupied tile sees exactly its own cluster.
struct ClusterChip {
    std::vector<geo::Polygon> chip;                    // chip coordinates
    std::vector<std::pair<int, int>> cells;            // occupied (cx, cy), row-major
    std::vector<std::vector<geo::Polygon>> clusters;   // per cell, chip coordinates
};

ClusterChip isolated_cluster_chip() {
    ViaGenOptions gen;
    gen.clip_nm = 512;
    gen.margin_nm = 60;        // cluster content stays in [60, 452] of its cell
    gen.min_spacing_nm = 80;
    ClusterChip out;
    out.cells = {{0, 0}, {2, 0}, {0, 2}, {2, 2}};  // row-major = tiles() order
    int i = 0;
    for (const auto& [cx, cy] : out.cells) {
        Rng rng(derive_seed(33, static_cast<std::uint64_t>(i++)));
        const std::vector<geo::Polygon> local = generate_via_clip(2, rng, gen);
        std::vector<geo::Polygon> placed;
        placed.reserve(local.size());
        for (const geo::Polygon& p : local) placed.push_back(translated(p, cx * 512, cy * 512));
        out.chip.insert(out.chip.end(), placed.begin(), placed.end());
        out.clusters.push_back(std::move(placed));
    }
    return out;
}

/// The standalone reference clip of one cluster: the cluster translated into
/// the coordinates its tile window uses, fragmented and SRAF'd exactly the
/// way TileSharder builds tile layouts.
geo::SegmentedLayout reference_clip(const std::vector<geo::Polygon>& cluster, int cx, int cy,
                                    const ShardOptions& opt) {
    const int wx = cx * opt.tile_nm - opt.halo_nm;
    const int wy = cy * opt.tile_nm - opt.halo_nm;
    std::vector<geo::Polygon> local;
    local.reserve(cluster.size());
    for (const geo::Polygon& p : cluster) local.push_back(translated(p, -wx, -wy));
    std::vector<geo::Polygon> srafs = opc::insert_srafs(local);
    return geo::SegmentedLayout(std::move(local), opt.fragment, std::move(srafs),
                                opt.window_nm());
}

TEST(Shard, TranslatedMovesEveryVertex) {
    const geo::Polygon p({{10, 20}, {50, 20}, {50, 60}, {10, 60}});
    const geo::Polygon q = translated(p, 7, -3);
    ASSERT_EQ(q.size(), p.size());
    for (int i = 0; i < p.size(); ++i) {
        EXPECT_EQ(q.vertices()[static_cast<std::size_t>(i)].x,
                  p.vertices()[static_cast<std::size_t>(i)].x + 7);
        EXPECT_EQ(q.vertices()[static_cast<std::size_t>(i)].y,
                  p.vertices()[static_cast<std::size_t>(i)].y - 3);
    }
}

TEST(Shard, OptionsValidateRejectsBadGeometry) {
    const litho::LithoConfig litho = quick_litho();
    // Default litho frame: 193 nm / 1.35 NA -> interaction radius 215 nm.
    EXPECT_EQ(litho::interaction_radius_nm(litho), 215);

    ShardOptions ok = shard_options();
    EXPECT_NO_THROW(ok.validate(litho));

    ShardOptions bad_tile = shard_options();
    bad_tile.tile_nm = 0;
    EXPECT_THROW(bad_tile.validate(litho), std::invalid_argument);

    // A halo below the interaction radius would silently lose seam context.
    ShardOptions thin_halo = shard_options();
    thin_halo.halo_nm = litho::interaction_radius_nm(litho) - 1;
    EXPECT_THROW(thin_halo.validate(litho), std::invalid_argument);
    thin_halo.halo_nm = litho::interaction_radius_nm(litho);
    thin_halo.tile_nm = 1024 - 2 * thin_halo.halo_nm;  // window == frame span
    EXPECT_NO_THROW(thin_halo.validate(litho));

    // Window larger than the simulation frame.
    ShardOptions wide = shard_options();
    wide.tile_nm = 600;  // 600 + 2*256 = 1112 > 1024
    EXPECT_THROW(wide.validate(litho), std::invalid_argument);

    // The constructor enforces the same contract.
    EXPECT_THROW(TileSharder({}, wide, litho), std::invalid_argument);
}

TEST(Shard, EmptyChipYieldsZeroTiles) {
    const TileSharder sharder({}, shard_options(), quick_litho());
    EXPECT_TRUE(sharder.tiles().empty());
    EXPECT_TRUE(sharder.owner().empty());
    EXPECT_EQ(sharder.total_owned_segments(), 0);
    const geo::SegmentedLayout chip = sharder.chip_layout();
    EXPECT_EQ(chip.num_segments(), 0);
    const StitchResult stitched = stitch(sharder, chip, {});
    EXPECT_TRUE(stitched.offsets.empty());
    EXPECT_TRUE(stitched.mask.empty());
}

TEST(Shard, OwnershipAndMembershipInvariants) {
    // A denser chip from the scenario generator: 2x2 via3 cells at 512 nm
    // pitch so polygons land near (and across) tile cut lines.
    scenario::Scenario sc = scenario::Registry::instance().get("via3");
    sc.generate = [](Rng& rng) {
        ViaGenOptions gen;
        gen.clip_nm = 512;
        gen.margin_nm = 100;
        gen.min_spacing_nm = 80;
        return generate_via_clip(2, rng, gen);
    };
    sc.clip_nm = 512;
    const std::vector<geo::Polygon> chip = scenario::chip_polygons(sc, 2, 2, 512);
    ASSERT_EQ(chip.size(), 8U);

    const ShardOptions opt = shard_options();
    const TileSharder sharder(chip, opt, quick_litho());
    ASSERT_FALSE(sharder.tiles().empty());
    ASSERT_EQ(sharder.owner().size(), chip.size());

    int owned_total = 0;
    for (std::size_t t = 0; t < sharder.tiles().size(); ++t) {
        const Tile& tile = sharder.tiles()[t];
        ASSERT_EQ(tile.members.size(), tile.owned.size());
        EXPECT_GT(tile.owned_count(), 0) << "ownerless tiles must be skipped";
        EXPECT_EQ(tile.window.width(), opt.window_nm());
        EXPECT_EQ(tile.core.xlo, tile.tx * opt.tile_nm);
        EXPECT_EQ(tile.core.ylo, tile.ty * opt.tile_nm);
        int prev = -1;
        for (std::size_t k = 0; k < tile.members.size(); ++k) {
            const int m = tile.members[k];
            EXPECT_GT(m, prev) << "members must be ascending chip indices";
            prev = m;
            const geo::Rect bb = chip[static_cast<std::size_t>(m)].bbox();
            // Membership: the bbox reaches the window.
            EXPECT_LT(bb.xlo, tile.window.xhi);
            EXPECT_GT(bb.xhi, tile.window.xlo);
            if (tile.owned[k]) {
                EXPECT_EQ(sharder.owner()[static_cast<std::size_t>(m)], static_cast<int>(t));
                ++owned_total;
                // Ownership: bbox center inside the core (doubled coords
                // avoid half-nm rounding).
                const int cx2 = bb.xlo + bb.xhi;
                const int cy2 = bb.ylo + bb.yhi;
                EXPECT_GE(cx2, 2 * tile.core.xlo);
                EXPECT_LT(cx2, 2 * tile.core.xhi);
                EXPECT_GE(cy2, 2 * tile.core.ylo);
                EXPECT_LT(cy2, 2 * tile.core.yhi);
            } else {
                EXPECT_NE(sharder.owner()[static_cast<std::size_t>(m)], static_cast<int>(t));
            }
        }
        // Tile layout carries exactly the member polygons, in member order,
        // translated into window-local coordinates.
        ASSERT_EQ(tile.layout.targets().size(), tile.members.size());
        for (std::size_t k = 0; k < tile.members.size(); ++k) {
            const geo::Polygon expect = translated(chip[static_cast<std::size_t>(tile.members[k])],
                                                   -tile.window.xlo, -tile.window.ylo);
            EXPECT_EQ(tile.layout.targets()[k].vertices(), expect.vertices());
        }
    }
    EXPECT_EQ(owned_total, static_cast<int>(chip.size()));
}

TEST(Shard, CenterOnCutLineBelongsToUpperTile) {
    // Bbox center of the second via sits exactly on the x = 512 cut line.
    const std::vector<geo::Polygon> chip = {
        geo::Polygon({{10, 10}, {50, 10}, {50, 50}, {10, 50}}),
        geo::Polygon({{492, 100}, {532, 100}, {532, 140}, {492, 140}}),
    };
    const TileSharder sharder(chip, shard_options(), quick_litho());
    ASSERT_EQ(sharder.tiles().size(), 2U);
    EXPECT_EQ(sharder.tiles()[0].tx, 0);
    EXPECT_EQ(sharder.tiles()[1].tx, 1);
    EXPECT_EQ(sharder.owner()[0], 0);
    EXPECT_EQ(sharder.owner()[1], 1);  // on the line -> upper tile
    // The straddler rides along as context in tile 0 but is owned elsewhere.
    ASSERT_EQ(sharder.tiles()[0].members.size(), 2U);
    EXPECT_TRUE(sharder.tiles()[0].owned[0]);
    EXPECT_FALSE(sharder.tiles()[0].owned[1]);
}

// A chip whose cells sit 20 mm apart has a bounding box of ~1.5e9 empty
// 512 nm tile cells; the sharder must visit only the cells that own a
// polygon, still in row-major order.
TEST(Shard, SparseChipVisitsOnlyOwningCells) {
    const scenario::Scenario sc = scenario::Registry::instance().get("via3");
    const std::vector<geo::Polygon> chip = scenario::chip_polygons(sc, 2, 2, 20000000);
    ShardOptions opt = shard_options();
    opt.auto_origin = true;
    const TileSharder sharder(chip, opt, sc.litho);

    ASSERT_EQ(sharder.owner().size(), chip.size());
    for (std::size_t p = 0; p < chip.size(); ++p) {
        const int owner = sharder.owner()[p];
        ASSERT_GE(owner, 0) << "polygon " << p << " has no owner tile";
        const Tile& tile = sharder.tiles()[static_cast<std::size_t>(owner)];
        const geo::Rect bb = chip[p].bbox();
        EXPECT_GE(bb.xlo + bb.xhi, 2 * tile.core.xlo);
        EXPECT_LT(bb.xlo + bb.xhi, 2 * tile.core.xhi);
        EXPECT_GE(bb.ylo + bb.yhi, 2 * tile.core.ylo);
        EXPECT_LT(bb.ylo + bb.yhi, 2 * tile.core.yhi);
    }
    for (std::size_t t = 0; t < sharder.tiles().size(); ++t) {
        const Tile& tile = sharder.tiles()[t];
        EXPECT_GT(tile.owned_count(), 0);
        if (t == 0) continue;
        const Tile& prev = sharder.tiles()[t - 1];
        EXPECT_LT(std::make_pair(prev.ty, prev.tx), std::make_pair(tile.ty, tile.tx))
            << "tiles must be in row-major order";
    }
}

// Doubled coordinates must fit an int: chip vertices (and a pinned origin)
// beyond +-2^29 nm are rejected up front, and the extremes of the accepted
// range shard without overflow.
TEST(Shard, RejectsCoordinatesBeyondLimit) {
    const litho::LithoConfig litho = quick_litho();
    ShardOptions opt = shard_options();
    opt.auto_origin = true;
    const int far = 1500000000;
    const std::vector<geo::Polygon> chip = {
        geo::Polygon({{10, 10}, {50, 10}, {50, 50}, {10, 50}}),
        geo::Polygon({{far, 0}, {far + 40, 0}, {far + 40, 40}, {far, 40}}),
    };
    try {
        const TileSharder sharder(chip, opt, litho);
        ADD_FAILURE() << "a vertex at x = 1.5e9 was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("536870912"), std::string::npos) << e.what();
    }

    ShardOptions pinned = shard_options();
    pinned.origin = {-far, 0};
    EXPECT_THROW(pinned.validate(litho), std::invalid_argument);

    const int m = ShardOptions::kMaxCoordNm;
    const std::vector<geo::Polygon> extremes = {
        geo::Polygon({{-m, -m}, {-m + 40, -m}, {-m + 40, -m + 40}, {-m, -m + 40}}),
        geo::Polygon({{m - 40, m - 40}, {m, m - 40}, {m, m}, {m - 40, m}}),
    };
    const TileSharder sharder(extremes, opt, litho);
    ASSERT_EQ(sharder.tiles().size(), 2U);
    EXPECT_EQ(sharder.owner()[0], 0);
    EXPECT_EQ(sharder.owner()[1], 1);
    EXPECT_EQ(sharder.tiles()[1].core.xhi, m);  // the grid is anchored at -m
}

TEST(Shard, StitchRejectsSizeMismatch) {
    const ClusterChip cc = isolated_cluster_chip();
    const TileSharder sharder(cc.chip, shard_options(), quick_litho());
    const geo::SegmentedLayout chip_layout = sharder.chip_layout();
    ASSERT_EQ(sharder.tiles().size(), 4U);

    // Wrong tile count.
    EXPECT_THROW(stitch(sharder, chip_layout, {}), std::invalid_argument);

    // Right tile count, wrong per-tile offset length.
    std::vector<std::vector<int>> offs;
    for (const Tile& t : sharder.tiles()) {
        offs.emplace_back(static_cast<std::size_t>(t.layout.num_segments()), 0);
    }
    offs.back().pop_back();
    EXPECT_THROW(stitch(sharder, chip_layout, offs), std::invalid_argument);
}

TEST(Shard, IsolatedClustersMatchIndependentClipsBitwise) {
    const ClusterChip cc = isolated_cluster_chip();
    const ShardOptions opt = shard_options();
    const litho::LithoConfig litho = quick_litho();
    const TileSharder sharder(cc.chip, opt, litho);

    // Isolation premise: exactly one tile per cluster, everything owned.
    ASSERT_EQ(sharder.tiles().size(), cc.cells.size());
    for (std::size_t t = 0; t < sharder.tiles().size(); ++t) {
        const Tile& tile = sharder.tiles()[t];
        EXPECT_EQ(tile.tx, cc.cells[t].first);
        EXPECT_EQ(tile.ty, cc.cells[t].second);
        ASSERT_EQ(tile.members.size(), 2U) << "foreign polygon leaked into tile window";
        EXPECT_EQ(tile.owned_count(), 2);
    }

    // Standalone reference clips, built exactly like the tile layouts.
    std::vector<geo::SegmentedLayout> refs;
    for (std::size_t t = 0; t < cc.cells.size(); ++t) {
        refs.push_back(reference_clip(cc.clusters[t], cc.cells[t].first, cc.cells[t].second,
                                      opt));
    }

    runtime::BatchOptions bopt;
    bopt.threads = 1;
    bopt.seed = 7;
    bopt.opc.max_iterations = 3;
    bopt.opc.initial_bias_nm = 3;
    runtime::BatchScheduler ref_sched(litho, bopt);
    const runtime::BatchResult ref = ref_sched.run_rule(refs);
    ASSERT_EQ(ref.failed, 0);

    const std::vector<geo::SegmentedLayout> tile_layouts = sharder.tile_layouts();
    const geo::SegmentedLayout chip_layout = sharder.chip_layout();

    std::vector<int> golden;  // stitched offsets at 1 worker
    for (const int threads : {1, 2, 8}) {
        runtime::BatchOptions topt = bopt;
        topt.threads = threads;
        runtime::BatchScheduler sched(litho, topt);
        std::vector<std::vector<int>> tile_offsets(tile_layouts.size());
        const runtime::StreamStats stats = sched.run_streaming(
            tile_layouts,
            [](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
               const opc::OpcOptions& o, std::uint64_t) {
                opc::RuleEngine engine;
                return engine.optimize(layout, sim, o);
            },
            [&tile_offsets](runtime::ClipResult&& r) {
                ASSERT_TRUE(r.error.empty()) << r.error;
                tile_offsets[static_cast<std::size_t>(r.index)] = std::move(r.offsets);
            },
            sharder.tile_names());
        ASSERT_EQ(stats.delivered, static_cast<int>(tile_layouts.size()));
        ASSERT_EQ(stats.failed, 0);

        // Contract: every tile result equals its standalone reference clip,
        // bit for bit.
        for (std::size_t t = 0; t < tile_offsets.size(); ++t) {
            EXPECT_EQ(tile_offsets[t], ref.clips[t].offsets)
                << "tile " << sharder.tiles()[t].name() << " @ " << threads << " workers";
        }

        const StitchResult stitched = stitch(sharder, chip_layout, tile_offsets);
        ASSERT_EQ(static_cast<int>(stitched.offsets.size()), chip_layout.num_segments());
        EXPECT_EQ(stitched.mask.size(), cc.chip.size());

        // Chip-level offsets of each polygon match the reference clip's
        // segment range for that polygon (fragmentation is translation-
        // invariant, so ranges correspond 1:1).
        for (std::size_t p = 0; p < cc.chip.size(); ++p) {
            const int owner = sharder.owner()[p];
            const Tile& tile = sharder.tiles()[static_cast<std::size_t>(owner)];
            int local = -1;
            for (std::size_t k = 0; k < tile.members.size(); ++k) {
                if (tile.members[k] == static_cast<int>(p)) local = static_cast<int>(k);
            }
            ASSERT_GE(local, 0);
            const auto [cb, ce] = chip_layout.polygon_segment_range(static_cast<int>(p));
            const auto [rb, re] = refs[static_cast<std::size_t>(owner)]
                                      .polygon_segment_range(local);
            ASSERT_EQ(ce - cb, re - rb);
            for (int s = 0; s < ce - cb; ++s) {
                EXPECT_EQ(stitched.offsets[static_cast<std::size_t>(cb + s)],
                          ref.clips[static_cast<std::size_t>(owner)]
                              .offsets[static_cast<std::size_t>(rb + s)])
                    << "polygon " << p << " segment " << s << " @ " << threads << " workers";
            }
        }

        if (threads == 1) {
            golden = stitched.offsets;
        } else {
            EXPECT_EQ(stitched.offsets, golden) << threads << " workers diverged from 1";
        }
    }
}

// The full-chip contract end to end: a dense via3 chip (seam-sharing tiles,
// SRAFs, the scenario's production litho) streamed through the rule engine
// at 1, 2 and 8 workers stitches to the same offsets and mask, bit for bit,
// as the barrier run() over the same tiles.
TEST(Shard, ScenarioChipStreamedStitchMatchesBarrier) {
    const scenario::Scenario sc = scenario::Registry::instance().get("via3");
    ShardOptions opt;
    opt.tile_nm = 512;
    opt.halo_nm = 256;
    opt.fragment.style = geo::FragmentStyle::kVia;
    opt.sraf_gen = [](const std::vector<geo::Polygon>& t) { return opc::insert_srafs(t); };
    const TileSharder sharder(scenario::chip_polygons(sc, 3, 3, 0), opt, sc.litho);
    ASSERT_GT(sharder.tiles().size(), 9U) << "cells should spill across tile seams";

    const std::vector<geo::SegmentedLayout> layouts = sharder.tile_layouts();
    const std::vector<std::string> names = sharder.tile_names();
    const geo::SegmentedLayout chip_layout = sharder.chip_layout();
    const runtime::ClipOptimizer rule = [](const geo::SegmentedLayout& layout,
                                           litho::LithoSim& sim, const opc::OpcOptions& o,
                                           std::uint64_t) {
        opc::RuleEngine engine;
        return engine.optimize(layout, sim, o);
    };
    runtime::BatchOptions bopt;
    bopt.threads = 2;
    bopt.opc.max_iterations = 3;
    bopt.opc.initial_bias_nm = 3;

    runtime::BatchScheduler barrier(sc.litho, bopt);
    const runtime::BatchResult ref = barrier.run(layouts, rule, names);
    ASSERT_EQ(ref.failed, 0);
    std::vector<std::vector<int>> ref_offsets(layouts.size());
    for (const runtime::ClipResult& c : ref.clips) {
        ref_offsets[static_cast<std::size_t>(c.index)] = c.offsets;
    }
    const StitchResult golden = stitch(sharder, chip_layout, ref_offsets);

    for (const int threads : {1, 2, 8}) {
        runtime::BatchOptions topt = bopt;
        topt.threads = threads;
        runtime::BatchScheduler sched(sc.litho, topt);
        std::vector<std::vector<int>> tile_offsets(layouts.size());
        const runtime::StreamStats stats = sched.run_streaming(
            layouts, rule,
            [&tile_offsets](runtime::ClipResult&& r) {
                ASSERT_TRUE(r.error.empty()) << r.error;
                tile_offsets[static_cast<std::size_t>(r.index)] = std::move(r.offsets);
            },
            names);
        ASSERT_EQ(stats.failed, 0);
        const StitchResult got = stitch(sharder, chip_layout, tile_offsets);
        EXPECT_EQ(got.offsets, golden.offsets) << threads << " workers";
        EXPECT_EQ(got.mask, golden.mask) << threads << " workers";
    }
}

}  // namespace
}  // namespace camo::layout
