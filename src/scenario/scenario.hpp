// Named-scenario registry: the quality-gate's workload catalogue.
//
// A Scenario binds a seed-deterministic layout generator to the litho
// config, process window and fragmentation style it should be judged under
// — the (layout, litho, WindowSpec, seed) tuple the ROADMAP calls for. The
// process-wide Registry maps names to scenarios so the CLI
// (`camo_cli compare --scenarios ...`), the PolicyComparer and the tier-1
// scenario-matrix tests all draw from one catalogue; registering a new
// workload is one Registry::add call (see README "Scenario matrix").
//
// Determinism contract (extends PR-1/PR-5): clip i of a scenario is
// generated from derive_seed(scenario.seed, i), so any sub-range of the
// clip stream can be produced independently — and in parallel — with
// byte-identical polygons at any thread count. tests/test_scenario_matrix.cpp
// locks this down for every registered generator.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geometry/layout.hpp"
#include "layout/via_gen.hpp"  // layout::Clip
#include "litho/config.hpp"
#include "litho/process_window.hpp"

namespace camo::scenario {

/// Fragmentation family: vias get SRAF insertion + kVia fragmentation,
/// wire-like patterns get kMetal fragmentation with 60 nm measure pitch
/// (the same pipelines Experiment uses for the paper benchmarks).
enum class Style { kVia, kMetal };

const char* style_name(Style style);

/// Quick-scale litho config every builtin scenario runs on: 256 x 4 nm
/// frame, reduced kernel counts, no on-disk kernel cache — the same scale
/// the runtime/batch tests use, small enough for the full engine x scenario
/// x reward matrix to fit in a tier-1 test budget.
litho::LithoConfig quick_litho();

struct Scenario {
    std::string name;
    std::string description;
    Style style = Style::kVia;

    litho::LithoConfig litho = quick_litho();

    /// Process window the scenario is scored on, as
    /// window.resolved(litho) (litho::WindowSpec::resolved).
    litho::WindowSpec window;

    std::uint64_t seed = 1;  ///< base seed of the clip stream
    int default_clips = 2;   ///< clips per comparer cell unless overridden
    int clip_nm = 1000;      ///< clip frame passed to fragmentation

    /// One clip's target polygons from a derived-seed Rng. Must be a pure
    /// function of the Rng stream (no globals, no time) — that is what the
    /// determinism contract above rests on.
    std::function<std::vector<geo::Polygon>(Rng&)> generate;

    /// Clips [0, count) of the stream; clip i uses derive_seed(seed, i).
    [[nodiscard]] std::vector<layout::Clip> clips(int count) const;

    /// clips(count) fragmented per `style` (kVia adds SRAFs).
    [[nodiscard]] std::vector<geo::SegmentedLayout> layouts(int count) const;
};

/// Synthetic full chip for the sharding/streaming paths: clips
/// [0, cols*rows) of the scenario's deterministic stream placed row-major
/// on a cols x rows grid with `pitch_nm` cell spacing (cell (cx, cy)
/// translated by (cx * pitch, cy * pitch); pitch_nm <= 0 uses the
/// scenario's clip_nm, so cells never overlap). The result is one flat
/// chip-coordinate polygon set, the input shape layout::TileSharder cuts.
/// Throws std::invalid_argument on a grid below 1x1, or one whose cell count
/// or extent in nm does not fit an int.
[[nodiscard]] std::vector<geo::Polygon> chip_polygons(const Scenario& sc, int cols, int rows,
                                                      int pitch_nm = 0);

/// Thread-safe process-wide name -> Scenario catalogue. instance() registers
/// the builtin scenarios on first use; tests may add/remove their own.
class Registry {
  public:
    static Registry& instance();

    /// Throws std::invalid_argument on an empty name, a null generator, or
    /// a name already registered.
    void add(Scenario s);

    /// Copy of the named scenario; throws std::out_of_range with the name
    /// and the registered names when absent.
    [[nodiscard]] Scenario get(const std::string& name) const;

    [[nodiscard]] bool contains(const std::string& name) const;

    /// All registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const;

    /// Removes a scenario (test hook); returns whether it existed.
    bool remove(const std::string& name);

  private:
    Registry();

    mutable std::mutex mu_;
    std::vector<Scenario> entries_;  ///< small catalogue: linear scan is fine
};

}  // namespace camo::scenario
