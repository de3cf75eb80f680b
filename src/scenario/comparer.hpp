// PolicyComparer: the engine x scenario x reward quality gate.
//
// Runs every requested OPC engine over every registered scenario under
// every reward mode through the batch runtime and reduces each
// (scenario, engine, reward) cell to one scorecard row: nominal EPE,
// worst-corner EPE, exact PV band, the worst corner's EPE L2 norm, runtime
// and the incremental-evaluation hit rate. Rows are ranked per
// (scenario, reward) group so the table answers "which engine wins where"
// directly; the JSON form feeds CI artifacts and the golden-bound
// regression check in tests/golden/scenario_matrix.json.
//
// Every engine is scored on the SAME WindowMetrics sweep of its final mask
// (the scenario's window, resolved once per batch by the scheduler), so
// segment engines and the pixel ILT engine are comparable even though their
// in-loop objectives differ.
//
// Determinism: cell metrics inherit the batch runtime's contract — results
// are bit-identical at any worker count — and learned engines are trained
// once per (engine, style) with train_workers = 1 and cached inside the
// comparer, so fingerprint() is byte-identical across run(1)/run(2)/run(8).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rl/reward.hpp"
#include "scenario/scenario.hpp"

namespace camo::core {
class CamoEngine;
}
namespace camo::opc {
struct OpcOptions;
}

namespace camo::scenario {

struct CompareOptions {
    /// Scenario names to run; empty = every registered scenario.
    std::vector<std::string> scenarios;

    /// Engine column set. Known names: rule, oneshot, camo, rlopc, ilt.
    std::vector<std::string> engines = {"rule", "oneshot", "camo", "rlopc", "ilt"};

    std::vector<rl::RewardMode> rewards = {rl::RewardMode::kNominal,
                                           rl::RewardMode::kWorstCorner,
                                           rl::RewardMode::kWeightedCorner};

    int clips = 2;            ///< clips per cell; <= 0 uses each scenario's default
    int threads = 0;          ///< batch workers; <= 0 = hardware threads
    std::uint64_t seed = 42;  ///< base seed for per-scenario batch seeds

    int max_iterations = 4;   ///< segment-engine iteration budget per clip
    int ilt_iterations = 3;   ///< pixel-engine gradient steps per clip
    int train_clips = 2;      ///< training-set size for camo / rlopc
    int phase1_epochs = 4;    ///< imitation epochs for camo / rlopc
};

/// Batch seed of every cell of scenario `name`: derive_seed(base, FNV-1a of
/// the name), so a cell's results do not shift when other scenarios are
/// added to or removed from the run.
[[nodiscard]] std::uint64_t scenario_batch_seed(std::uint64_t base, const std::string& name);

/// One (scenario, engine, reward) cell of the matrix. All EPE/PVB metrics
/// read the WindowMetrics of each clip's final mask over the scenario's
/// resolved window and are averaged over successful clips; a cell whose
/// clips all failed reports zero metrics and ok() == 0.
struct CellResult {
    std::string scenario;
    std::string engine;
    std::string reward;  ///< rl::reward_mode_name

    int clips = 0;
    int failed = 0;
    int segments = 0;  ///< summed over clips

    double epe = 0.0;           ///< avg nominal-corner sum |EPE|
    double worst_epe = 0.0;     ///< avg worst-corner sum |EPE|
    double pvb_exact_nm2 = 0.0; ///< avg exact PV band
    double epe_l2 = 0.0;        ///< avg L2 norm of the worst corner's EPE profile
    double hit_rate = 0.0;      ///< incremental-evaluation hit rate of the cell's batch

    double wall_s = 0.0;           ///< cell batch wall time (timing: excluded from fingerprint)
    double clip_runtime_s = 0.0;   ///< summed per-clip engine time (timing)

    int rank = 0;  ///< 1-based rank within the (scenario, reward) group

    [[nodiscard]] int ok() const { return clips - failed; }
};

struct CompareResult {
    std::vector<CellResult> cells;  ///< grouped scenario-major, reward, rank order

    int threads = 0;
    double wall_s = 0.0;

    /// "camo-compare-v1" JSON document. include_timing = false drops every
    /// wall-clock field (and the thread count), leaving only the
    /// deterministic payload.
    [[nodiscard]] std::string to_json(bool include_timing = true) const;

    /// Byte-stable digest of the deterministic payload: equal across worker
    /// counts by the batch determinism contract.
    [[nodiscard]] std::string fingerprint() const { return to_json(false); }

    /// Human-readable ranked table (one block per scenario x reward).
    [[nodiscard]] std::string table() const;
};

/// One cell's golden regression bounds: upper limits on the quality metrics
/// (a metric <= 0 disables that check).
struct CellBound {
    std::string scenario;
    std::string engine;
    std::string reward;
    double max_epe = 0.0;
    double max_worst_epe = 0.0;
    double max_pvb_exact_nm2 = 0.0;
    double max_epe_l2 = 0.0;
};

/// Parse a golden-bounds document ("camo-compare-bounds-v1"). Throws
/// std::runtime_error on malformed JSON or a wrong schema tag.
std::vector<CellBound> read_bounds(const std::string& json_text);

/// Check a result against bounds. Returns one human-readable violation per
/// breach: a bounded cell missing from the result, a cell with failed
/// clips, or a metric above its bound. Empty = gate passed.
std::vector<std::string> check_bounds(const CompareResult& result,
                                      const std::vector<CellBound>& bounds);

/// Render bounds for the current result: each metric's bound is
/// value * (1 + rel_slack) + abs_slack (PV band uses 100x the absolute
/// slack — it is an area). Used by `camo_cli compare --write-golden`.
std::string bounds_json(const CompareResult& result, double rel_slack = 0.25,
                        double abs_slack = 2.0);

/// The warm-policy recipe of the comparer's learned engines and the
/// streaming CLI paths: a tiny CAMO policy that regenerates from seeds
/// alone. It imitates the rule teacher (seed 7, teacher biases {3, 0},
/// 3 teacher steps) for `epochs` phase-1 epochs on `clips` generated clips
/// of `style` (clip i from derive_seed(0xC0FFEE, i)), with no phase 2, one
/// trainer worker and no weight cache, so the weights cannot depend on
/// worker count. `rlopc` strips the policy to the RL-OPC baseline
/// (core::make_rlopc_config).
std::unique_ptr<core::CamoEngine> train_warm_policy(const std::string& name, Style style,
                                                    int clips, int epochs,
                                                    const litho::LithoConfig& litho,
                                                    const opc::OpcOptions& opt,
                                                    bool rlopc = false);

class PolicyComparer {
  public:
    explicit PolicyComparer(CompareOptions opt = {});
    ~PolicyComparer();

    /// Run the full matrix. `threads_override` > 0 replaces
    /// CompareOptions::threads for this run (the trained-engine cache is
    /// shared across calls, so re-running at another worker count reuses the
    /// same weights — the determinism test depends on this).
    CompareResult run(int threads_override = 0);

    [[nodiscard]] const CompareOptions& options() const { return opt_; }

  private:
    core::CamoEngine& trained_engine(const std::string& engine, Style style);

    CompareOptions opt_;
    std::map<std::string, std::unique_ptr<core::CamoEngine>> trained_;
};

}  // namespace camo::scenario
