// Tier-1 quality gate for the scenario matrix + policy comparer.
//
//   * Registry properties: builtins present, duplicate/unknown handling.
//   * Seed determinism: every registered generator produces byte-identical
//     clips for equal seeds, serially and under parallel generation
//     (extends the PR-1/PR-5 determinism contract to scenarios).
//   * Golden regression bounds: the full engine x scenario x reward matrix
//     stays within tests/golden/scenario_matrix.json (the same file the CI
//     compare job gates on). Regenerate with
//       ./build/camo_cli compare --clips 1 --threads 2 \
//           --write-golden tests/golden/scenario_matrix.json
//   * Worker-count determinism: the comparer fingerprint is byte-identical
//     at 1 / 2 / 8 batch workers.
//   * Degenerate scenarios: empty, single-polygon and segment-free clips
//     run through every engine and reward mode without NaN or crash.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/json_mini.hpp"
#include "litho/simulator.hpp"
#include "opc/ilt.hpp"
#include "opc/rule_engine.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/comparer.hpp"
#include "scenario/scenario.hpp"

#ifndef CAMO_GOLDEN_DIR
#define CAMO_GOLDEN_DIR "tests/golden"
#endif

namespace camo::scenario {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void expect_cell_finite(const CellResult& c) {
    EXPECT_TRUE(std::isfinite(c.epe)) << c.scenario << "/" << c.engine << "/" << c.reward;
    EXPECT_TRUE(std::isfinite(c.worst_epe)) << c.scenario << "/" << c.engine;
    EXPECT_TRUE(std::isfinite(c.pvb_exact_nm2)) << c.scenario << "/" << c.engine;
    EXPECT_TRUE(std::isfinite(c.epe_l2)) << c.scenario << "/" << c.engine;
    EXPECT_TRUE(std::isfinite(c.hit_rate)) << c.scenario << "/" << c.engine;
    EXPECT_GE(c.hit_rate, 0.0);
    EXPECT_LE(c.hit_rate, 1.0);
}

/// Registers a scenario for the lifetime of one test.
class ScopedScenario {
  public:
    explicit ScopedScenario(Scenario s) : name_(s.name) {
        Registry::instance().add(std::move(s));
    }
    ~ScopedScenario() { Registry::instance().remove(name_); }

  private:
    std::string name_;
};

TEST(ScenarioRegistry, BuiltinsRegistered) {
    Registry& reg = Registry::instance();
    const std::vector<std::string> names = reg.names();
    EXPECT_GE(names.size(), 8U);
    for (const char* expected : {"via3", "metal24", "via-pairs", "contact-grid", "grating-jog",
                                 "iso-dense", "sram-cell", "multi-pitch"}) {
        EXPECT_TRUE(reg.contains(expected)) << expected;
    }
    // names() is sorted.
    for (std::size_t i = 1; i < names.size(); ++i) EXPECT_LT(names[i - 1], names[i]);
}

TEST(ScenarioRegistry, BuiltinScenariosProduceValidClips) {
    Registry& reg = Registry::instance();
    for (const std::string& name : reg.names()) {
        const Scenario sc = reg.get(name);
        EXPECT_FALSE(sc.description.empty()) << name;
        const auto clips = sc.clips(2);
        ASSERT_EQ(clips.size(), 2U) << name;
        for (const layout::Clip& clip : clips) {
            EXPECT_EQ(clip.clip_nm, sc.clip_nm);
            EXPECT_FALSE(clip.targets.empty()) << name;
            for (const geo::Polygon& p : clip.targets) {
                const geo::Rect bb = p.bbox();
                EXPECT_GE(bb.xlo, 0) << name;
                EXPECT_GE(bb.ylo, 0) << name;
                EXPECT_LE(bb.xhi, sc.clip_nm) << name;
                EXPECT_LE(bb.yhi, sc.clip_nm) << name;
            }
        }
        // The resolved window is valid and covers the nominal corner.
        const litho::WindowSpec spec = sc.window.resolved(sc.litho);
        EXPECT_NO_THROW(spec.validate()) << name;
        EXPECT_GE(spec.corner_count(), 2) << name;
        // Fragmentation works and yields measurable layouts.
        const auto layouts = sc.layouts(1);
        ASSERT_EQ(layouts.size(), 1U) << name;
        EXPECT_GT(layouts[0].num_segments(), 0) << name;
    }
}

TEST(ScenarioRegistry, EnginesResolveAPartialWindowLikeTheScenario) {
    // multi-pitch sets only its focus planes. Handed to the engines as an
    // OpcOptions / IltOptions window, the empty dose axis resolves exactly
    // as the scenario's does: the standard doses of its litho config.
    const Scenario sc = Registry::instance().get("multi-pitch");
    ASSERT_TRUE(sc.window.doses.empty());
    ASSERT_FALSE(sc.window.defocus_nm.empty());
    const litho::WindowSpec spec = sc.window.resolved(sc.litho);
    const std::vector<double> standard_doses = {sc.litho.dose_min, 1.0, sc.litho.dose_max};
    EXPECT_EQ(spec.doses, standard_doses);
    EXPECT_EQ(spec.defocus_nm, sc.window.defocus_nm);

    const geo::SegmentedLayout layout = sc.layouts(1).front();
    litho::LithoSim sim(sc.litho);
    opc::OpcOptions opt;
    opt.max_iterations = 1;
    opt.objective = rl::RewardMode::kWorstCorner;
    opt.window = sc.window;
    const opc::EngineResult res = opc::RuleEngine().optimize(layout, sim, opt);
    ASSERT_TRUE(res.final_window.has_value());
    ASSERT_EQ(res.final_window->corners.size(), static_cast<std::size_t>(spec.corner_count()));
    for (int i = 0; i < spec.corner_count(); ++i) {
        const litho::Corner& got = res.final_window->corners[static_cast<std::size_t>(i)].corner;
        EXPECT_EQ(got.dose, spec.corner(i).dose) << "corner " << i;
        EXPECT_EQ(got.defocus_nm, spec.corner(i).defocus_nm) << "corner " << i;
    }

    opc::IltOptions io;
    io.iterations = 1;
    io.objective = rl::RewardMode::kWorstCorner;
    io.window = sc.window;
    io.evaluate_window = true;
    const opc::IltResult ilt = opc::IltEngine(io).optimize(layout, sim);
    EXPECT_EQ(ilt.corner_loss.size(), static_cast<std::size_t>(spec.corner_count()));
    ASSERT_TRUE(ilt.final_window.has_value());
    EXPECT_EQ(ilt.final_window->corners.size(), static_cast<std::size_t>(spec.corner_count()));
}

TEST(ScenarioRegistry, UnknownAndDuplicateHandling) {
    Registry& reg = Registry::instance();
    EXPECT_FALSE(reg.contains("no-such-scenario"));
    EXPECT_THROW(reg.get("no-such-scenario"), std::out_of_range);

    Scenario dup = reg.get("via3");
    EXPECT_THROW(reg.add(dup), std::invalid_argument);

    Scenario unnamed;
    unnamed.generate = [](Rng&) { return std::vector<geo::Polygon>{}; };
    EXPECT_THROW(reg.add(unnamed), std::invalid_argument);

    Scenario nogen;
    nogen.name = "no-generator";
    EXPECT_THROW(reg.add(std::move(nogen)), std::invalid_argument);

    EXPECT_FALSE(reg.remove("no-such-scenario"));
}

// Satellite: every registered generator is seed-deterministic — equal seeds
// produce byte-identical clips, whether generated serially or with one
// thread per clip (any sub-range independently).
TEST(ScenarioDeterminism, CloneAndParallelGenerationBitIdentical) {
    Registry& reg = Registry::instance();
    constexpr int kClips = 3;
    for (const std::string& name : reg.names()) {
        const Scenario sc = reg.get(name);
        const std::vector<layout::Clip> serial_a = sc.clips(kClips);
        const std::vector<layout::Clip> serial_b = sc.clips(kClips);
        ASSERT_EQ(serial_a.size(), serial_b.size()) << name;
        for (int i = 0; i < kClips; ++i) {
            EXPECT_EQ(serial_a[static_cast<std::size_t>(i)].targets,
                      serial_b[static_cast<std::size_t>(i)].targets)
                << name << " clip " << i << ": serial regeneration differs";
        }

        // Parallel: each clip index generated on its own pool task.
        std::vector<std::vector<geo::Polygon>> parallel(kClips);
        runtime::ThreadPool pool(4);
        pool.for_each_index(kClips, [&](int i) {
            Rng rng(derive_seed(sc.seed, static_cast<std::uint64_t>(i)));
            parallel[static_cast<std::size_t>(i)] = sc.generate(rng);
        });
        for (int i = 0; i < kClips; ++i) {
            EXPECT_EQ(parallel[static_cast<std::size_t>(i)],
                      serial_a[static_cast<std::size_t>(i)].targets)
                << name << " clip " << i << ": parallel generation differs";
        }
    }
}

// The top-level quality gate: the full matrix stays inside the golden
// bounds, at the exact protocol the CI compare job runs (clips 1,
// threads 2, default budgets).
TEST(ScenarioMatrix, FullMatrixWithinGoldenBounds) {
    CompareOptions opt;
    opt.clips = 1;
    opt.threads = 2;
    PolicyComparer comparer(opt);
    const CompareResult result = comparer.run();

    const std::size_t scenarios = Registry::instance().names().size();
    ASSERT_EQ(result.cells.size(), scenarios * opt.engines.size() * opt.rewards.size());
    for (const CellResult& c : result.cells) {
        expect_cell_finite(c);
        EXPECT_EQ(c.failed, 0) << c.scenario << "/" << c.engine << "/" << c.reward;
        EXPECT_GE(c.rank, 1);
        EXPECT_LE(c.rank, static_cast<int>(opt.engines.size()));
    }

    const std::string golden_path = std::string(CAMO_GOLDEN_DIR) + "/scenario_matrix.json";
    const std::vector<CellBound> bounds = read_bounds(read_file(golden_path));
    EXPECT_EQ(bounds.size(), result.cells.size());
    const std::vector<std::string> violations = check_bounds(result, bounds);
    for (const std::string& v : violations) ADD_FAILURE() << "golden bound regression: " << v;

    // The emitted JSON parses back with the expected shape.
    const json::Value doc = json::parse(result.to_json(true));
    EXPECT_EQ(doc.at("schema").string, "camo-compare-v1");
    EXPECT_EQ(doc.at("cells").array.size(), result.cells.size());

    // Round-trip: bounds generated from this result admit this result, and
    // a tightened bound is caught.
    std::vector<CellBound> self = read_bounds(bounds_json(result));
    EXPECT_TRUE(check_bounds(result, self).empty());
    ASSERT_FALSE(self.empty());
    self[0].max_worst_epe = 1e-9;
    EXPECT_FALSE(check_bounds(result, self).empty());
    CellBound missing;
    missing.scenario = "no-such-scenario";
    missing.engine = "rule";
    missing.reward = "nominal";
    EXPECT_EQ(check_bounds(result, {missing}).size(), 1U);
}

// The matrix fingerprint (ranked table minus wall-clock fields) is
// byte-identical at 1 / 2 / 8 batch workers. One comparer serves all three
// runs so the learned engines are trained once and shared.
TEST(ScenarioMatrix, FingerprintIndependentOfWorkerCount) {
    CompareOptions opt;
    opt.scenarios = {"via3", "metal24"};
    opt.engines = {"rule", "camo", "ilt"};
    opt.rewards = {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner};
    opt.clips = 2;
    opt.train_clips = 1;
    opt.phase1_epochs = 2;
    PolicyComparer comparer(opt);

    const std::string fp1 = comparer.run(1).fingerprint();
    const std::string fp2 = comparer.run(2).fingerprint();
    const std::string fp8 = comparer.run(8).fingerprint();
    EXPECT_EQ(fp1, fp2);
    EXPECT_EQ(fp1, fp8);
    EXPECT_NE(fp1.find("\"schema\": \"camo-compare-v1\""), std::string::npos);
    EXPECT_EQ(fp1.find("wall_s"), std::string::npos);
}

TEST(ScenarioMatrix, UnknownScenarioAndEngineThrow) {
    CompareOptions opt;
    opt.scenarios = {"no-such-scenario"};
    opt.engines = {"rule"};
    opt.rewards = {rl::RewardMode::kNominal};
    opt.clips = 1;
    EXPECT_THROW(PolicyComparer(opt).run(), std::out_of_range);

    CompareOptions bad_engine;
    bad_engine.scenarios = {"via3"};
    bad_engine.engines = {"quantum"};
    bad_engine.rewards = {rl::RewardMode::kNominal};
    bad_engine.clips = 1;
    EXPECT_THROW(PolicyComparer(bad_engine).run(), std::invalid_argument);
}

// A chip grid whose cell count or nm extent overflows int is rejected up
// front; the overflowed count used to index an empty clip vector.
TEST(ScenarioChip, OversizedGridThrows) {
    const Scenario sc = Registry::instance().get("via3");
    EXPECT_THROW((void)chip_polygons(sc, 50000, 50000), std::invalid_argument);
    EXPECT_THROW((void)chip_polygons(sc, 65536, 32768), std::invalid_argument);  // 2^31 cells
    EXPECT_THROW((void)chip_polygons(sc, 2, 1, 2000000000), std::invalid_argument);
    EXPECT_THROW((void)chip_polygons(sc, 3, 1, 0x40000000), std::invalid_argument);
    EXPECT_EQ(chip_polygons(sc, 2, 1, 1000000).size(), chip_polygons(sc, 2, 1).size());
}

// Satellite: degenerate clips — empty (and therefore segment-free),
// single-polygon, and a sub-resolution sliver that never prints — flow
// through every engine and reward mode with finite metrics.
TEST(ScenarioDegenerate, EmptySingleAndSliverClips) {
    Scenario empty;
    empty.name = "deg-empty";
    empty.description = "no polygons: a zero-segment layout";
    empty.style = Style::kVia;
    empty.seed = 901;
    empty.generate = [](Rng&) { return std::vector<geo::Polygon>{}; };

    Scenario single;
    single.name = "deg-single";
    single.description = "one isolated via";
    single.style = Style::kVia;
    single.seed = 902;
    single.generate = [](Rng&) {
        return std::vector<geo::Polygon>{geo::Polygon::from_rect({460, 460, 530, 530})};
    };

    Scenario sliver;
    sliver.name = "deg-sliver";
    sliver.description = "4 nm sub-resolution sliver: prints nothing anywhere";
    sliver.style = Style::kMetal;
    sliver.seed = 903;
    sliver.generate = [](Rng&) {
        return std::vector<geo::Polygon>{geo::Polygon::from_rect({400, 400, 404, 600})};
    };

    const ScopedScenario g1(empty);
    const ScopedScenario g2(single);
    const ScopedScenario g3(sliver);

    CompareOptions opt;
    opt.scenarios = {"deg-empty", "deg-single", "deg-sliver"};
    opt.rewards = {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner,
                   rl::RewardMode::kWeightedCorner};
    opt.clips = 1;
    opt.threads = 2;
    opt.max_iterations = 2;
    opt.ilt_iterations = 1;
    opt.train_clips = 1;
    opt.phase1_epochs = 1;

    PolicyComparer comparer(opt);
    CompareResult result;
    ASSERT_NO_THROW(result = comparer.run());
    ASSERT_EQ(result.cells.size(), 3U * opt.engines.size() * opt.rewards.size());
    for (const CellResult& c : result.cells) {
        expect_cell_finite(c);
        EXPECT_EQ(c.failed, 0) << c.scenario << "/" << c.engine << "/" << c.reward
                               << ": degenerate clip crashed the engine";
    }
}

TEST(JsonMini, ParsesScalarsArraysObjectsAndEscapes) {
    const json::Value v = json::parse(
        R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"A", "nested": {"k": -2e3}})");
    EXPECT_DOUBLE_EQ(v.at("a").number, 1.5);
    ASSERT_EQ(v.at("b").array.size(), 3U);
    EXPECT_TRUE(v.at("b").array[0].boolean);
    EXPECT_TRUE(v.at("b").array[2].is_null());
    EXPECT_EQ(v.at("s").string, "x\n\"A");
    EXPECT_DOUBLE_EQ(v.at("nested").at("k").number, -2000.0);
    EXPECT_EQ(v.find("zzz"), nullptr);
    EXPECT_THROW(json::parse("{"), std::runtime_error);
    EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(json::parse("{\"a\": 1} trailing"), std::runtime_error);
    EXPECT_THROW(v.at("zzz"), std::runtime_error);
}

}  // namespace
}  // namespace camo::scenario
