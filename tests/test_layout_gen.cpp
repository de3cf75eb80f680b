#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "common/file_io.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"

namespace camo::layout {
namespace {

TEST(ViaGen, CountAndSize) {
    Rng rng(1);
    const auto vias = generate_via_clip(4, rng);
    ASSERT_EQ(vias.size(), 4U);
    for (const auto& v : vias) {
        const geo::Rect bb = v.bbox();
        EXPECT_EQ(bb.width(), 70);
        EXPECT_EQ(bb.height(), 70);
    }
}

TEST(ViaGen, RespectsMarginAndSpacing) {
    ViaGenOptions opt;
    Rng rng(7);
    const auto vias = generate_via_clip(6, rng, opt);
    for (std::size_t i = 0; i < vias.size(); ++i) {
        const geo::Rect a = vias[i].bbox();
        EXPECT_GE(a.xlo, opt.margin_nm);
        EXPECT_GE(a.ylo, opt.margin_nm);
        EXPECT_LE(a.xhi, opt.clip_nm - opt.margin_nm);
        EXPECT_LE(a.yhi, opt.clip_nm - opt.margin_nm);
        for (std::size_t j = i + 1; j < vias.size(); ++j) {
            EXPECT_GE(geo::rect_gap(a, vias[j].bbox()), opt.min_spacing_nm);
        }
    }
}

TEST(ViaGen, TrainingSetMatchesPaper) {
    const auto train = via_training_set(42);
    ASSERT_EQ(train.size(), 11U);  // paper: 11 clips, 2-5 vias
    for (const auto& clip : train) {
        EXPECT_GE(clip.targets.size(), 2U);
        EXPECT_LE(clip.targets.size(), 5U);
    }
}

TEST(ViaGen, TestSetMatchesPaperCounts) {
    const auto test = via_test_set(42);
    ASSERT_EQ(test.size(), 13U);
    const int expected[] = {2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6};
    for (int i = 0; i < 13; ++i) {
        EXPECT_EQ(static_cast<int>(test[static_cast<std::size_t>(i)].targets.size()), expected[i])
            << test[static_cast<std::size_t>(i)].name;
        EXPECT_EQ(test[static_cast<std::size_t>(i)].name, "V" + std::to_string(i + 1));
    }
}

TEST(ViaGen, DeterministicBySeed) {
    const auto a = via_test_set(42);
    const auto b = via_test_set(42);
    const auto c = via_test_set(43);
    EXPECT_EQ(a[0].targets[0], b[0].targets[0]);
    EXPECT_FALSE(a[0].targets[0] == c[0].targets[0]);
}

TEST(ViaGen, ImpossiblePlacementThrows) {
    ViaGenOptions opt;
    opt.min_spacing_nm = 3000;  // cannot fit two vias
    Rng rng(1);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(generate_via_clip(5, rng, opt), std::runtime_error);
    // Every restart round spends its whole attempt budget here; the rounds
    // are bounded, so giving up stays cheap.
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

// A frame where greedy placement of 3 vias can box itself in: before the
// generator restarted after a dead end, 34 of seeds 0..199 threw here.
TEST(ViaGen, DeadEndRestarts) {
    ViaGenOptions opt;
    opt.clip_nm = 1000;
    opt.margin_nm = 250;
    opt.min_spacing_nm = 200;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(seed);
        const auto vias = generate_via_clip(3, rng, opt);
        ASSERT_EQ(vias.size(), 3U) << "seed " << seed;
        for (std::size_t i = 0; i < vias.size(); ++i) {
            for (std::size_t j = i + 1; j < vias.size(); ++j) {
                EXPECT_GE(geo::rect_gap(vias[i].bbox(), vias[j].bbox()), opt.min_spacing_nm)
                    << "seed " << seed;
            }
        }
    }
}

// FNV-1a over a clip set's names and vertex coordinates.
std::uint64_t clip_set_hash(const std::vector<Clip>& clips) {
    std::uint64_t h = kFnv1aBasis;
    for (const Clip& clip : clips) {
        h = fnv1a(h, clip.name.data(), clip.name.size());
        for (const geo::Polygon& poly : clip.targets) {
            for (const geo::Point& v : poly.vertices()) {
                const std::int32_t xy[2] = {v.x, v.y};
                h = fnv1a(h, xy, sizeof xy);
            }
        }
    }
    return h;
}

// Values of the generator before it restarted: a seed whose first round
// places every via must keep its vias, or every seeded dataset and
// benchmark clip would move.
TEST(ViaGen, PlaceableSeedsKeepTheirVias) {
    ViaGenOptions quick;  // the quick-scale frame of the scenarios and the benchmark
    quick.clip_nm = 1000;
    quick.margin_nm = 200;
    quick.min_spacing_nm = 120;
    EXPECT_EQ(clip_set_hash(via_training_set(42)), 8770389557847519271ULL);
    EXPECT_EQ(clip_set_hash(via_test_set(42)), 9008590941995371620ULL);
    EXPECT_EQ(clip_set_hash(via_test_set(7)), 1268853427369767892ULL);
    EXPECT_EQ(clip_set_hash(via_batch_set(42, 16)), 7486818024912313334ULL);
    EXPECT_EQ(clip_set_hash(via_batch_set(1, 16, quick)), 14554532715358495274ULL);
    EXPECT_EQ(clip_set_hash(via_batch_set(7, 16, quick)), 13973491313494420298ULL);
    // Seed 42 hit a dead end in that frame; it places now.
    EXPECT_EQ(via_batch_set(42, 16, quick).size(), 16U);
}

struct QuotaCase {
    int quota;
};

class MetalQuotaSweep : public ::testing::TestWithParam<QuotaCase> {};

TEST_P(MetalQuotaSweep, ExactMeasurePointCount) {
    Rng rng(11);
    MetalGenOptions opt;
    const auto polys = generate_metal_clip(GetParam().quota, rng, opt);
    EXPECT_EQ(count_measure_points(polys, opt.measure_pitch_nm), GetParam().quota);
}

INSTANTIATE_TEST_SUITE_P(Quotas, MetalQuotaSweep,
                         ::testing::Values(QuotaCase{24}, QuotaCase{64}, QuotaCase{88},
                                           QuotaCase{106}, QuotaCase{120}));

TEST(MetalGen, RegularClipExactCount) {
    Rng rng(3);
    MetalGenOptions opt;
    const auto polys = generate_regular_metal_clip(24, rng, opt);
    EXPECT_EQ(count_measure_points(polys, opt.measure_pitch_nm), 24);
    // Regular pattern: all wires share x-start and width.
    for (std::size_t i = 1; i < polys.size(); ++i) {
        EXPECT_EQ(polys[i].bbox().xlo, polys[0].bbox().xlo);
        EXPECT_EQ(polys[i].bbox().height(), polys[0].bbox().height());
    }
}

TEST(MetalGen, TestSetMatchesPaperCounts) {
    const auto set = metal_test_set(42);
    ASSERT_EQ(set.size(), 10U);
    const int expected[] = {64, 84, 88, 100, 106, 112, 116, 24, 72, 120};
    MetalGenOptions opt;
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(count_measure_points(set[static_cast<std::size_t>(i)].targets,
                                       opt.measure_pitch_nm),
                  expected[i])
            << set[static_cast<std::size_t>(i)].name;
    }
}

TEST(MetalGen, WiresInsideClipWithMargins) {
    const auto set = metal_test_set(42);
    MetalGenOptions opt;
    for (const auto& clip : set) {
        for (const auto& w : clip.targets) {
            const geo::Rect bb = w.bbox();
            EXPECT_GE(bb.xlo, opt.margin_nm);
            EXPECT_LE(bb.xhi, opt.clip_nm - opt.margin_nm);
            EXPECT_GE(bb.ylo, opt.margin_nm);
            EXPECT_LE(bb.yhi, opt.clip_nm - opt.margin_nm);
        }
    }
}

TEST(MetalGen, WiresDoNotOverlap) {
    const auto set = metal_test_set(42);
    for (const auto& clip : set) {
        for (std::size_t i = 0; i < clip.targets.size(); ++i) {
            for (std::size_t j = i + 1; j < clip.targets.size(); ++j) {
                EXPECT_FALSE(clip.targets[i].bbox().intersects(clip.targets[j].bbox()))
                    << clip.name;
            }
        }
    }
}

TEST(MetalGen, OddQuotaRejected) {
    Rng rng(1);
    EXPECT_THROW(generate_metal_clip(25, rng), std::invalid_argument);
    EXPECT_THROW(generate_regular_metal_clip(7, rng), std::invalid_argument);
}

TEST(MetalGen, TrainingSetDisjointFromTest) {
    const auto train = metal_training_set(42, 6);
    EXPECT_EQ(train.size(), 6U);
    MetalGenOptions opt;
    for (const auto& clip : train) {
        EXPECT_GT(count_measure_points(clip.targets, opt.measure_pitch_nm), 0);
    }
}

}  // namespace
}  // namespace camo::layout
