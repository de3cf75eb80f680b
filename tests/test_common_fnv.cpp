// Every cache key, seed and file name hashed with FNV-1a goes through
// camo::fnv1a (common/file_io). These values were computed by the
// hand-rolled loops each site used before; a change to any of them would
// silently miss the on-disk caches (kernels, weights), reseed the
// comparison matrix or reject existing trajectory stores, so they are
// pinned here. (The trajectory-store dataset tag is pinned through the CLI
// in tests/test_cli_robustness.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "core/experiment.hpp"
#include "geometry/layout.hpp"
#include "litho/config.hpp"
#include "litho/incremental.hpp"
#include "scenario/comparer.hpp"

namespace camo {
namespace {

TEST(Fnv1a, StandardVectors) {
    EXPECT_EQ(fnv1a(kFnv1aBasis, nullptr, 0), kFnv1aBasis);
    EXPECT_EQ(fnv1a(kFnv1aBasis, "a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a(kFnv1aBasis, "foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, PhysicsHashPinned) {
    litho::LithoConfig cfg;
    EXPECT_EQ(cfg.physics_hash(), 16330224863417922947ULL);
    cfg.grid = 256;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    EXPECT_EQ(cfg.physics_hash(), 275032819560076263ULL);
}

TEST(Fnv1a, LayoutFingerprintPinned) {
    const std::vector<geo::Polygon> targets = {
        geo::Polygon::from_rect({100, 120, 180, 200}),
        geo::Polygon::from_rect({-40, 300, 60, 420}),  // negative x: the uint32 cast
    };
    const std::vector<geo::Polygon> srafs = {geo::Polygon::from_rect({250, 100, 270, 200})};
    const geo::SegmentedLayout with_sraf(targets, {geo::FragmentStyle::kVia, 60}, srafs, 1000);
    const geo::SegmentedLayout bare(targets, {geo::FragmentStyle::kMetal, 40}, {}, 800);
    EXPECT_EQ(litho::layout_fingerprint(with_sraf), 7218410375049255479ULL);
    EXPECT_EQ(litho::layout_fingerprint(bare), 17548070165735654282ULL);
}

TEST(Fnv1a, ScenarioBatchSeedPinned) {
    EXPECT_EQ(scenario::scenario_batch_seed(42, "via3"), 17747236462537669298ULL);
    EXPECT_EQ(scenario::scenario_batch_seed(7, "metal24"), 1550752840742884048ULL);
}

TEST(Fnv1a, WeightsPathPinned) {
    const core::CamoConfig cfg;
    EXPECT_EQ(core::Experiment::weights_path(cfg, "via"),
              "data/weights_camo_via_12940464376430276773.bin");
    EXPECT_EQ(core::Experiment::weights_path(cfg, "metal", rl::RewardMode::kWorstCorner),
              "data/weights_camo_metal-worst-corner_14689333708446871160.bin");
}

}  // namespace
}  // namespace camo
