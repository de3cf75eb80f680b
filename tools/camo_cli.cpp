// camo_cli: command-line OPC driver.
//
//   camo_cli --in layout.gds --out result.gds [options]
//   camo_cli batch [batch options]
//   camo_cli sweep [batch options] [--doses a,b,..] [--focuses a,b,..]
//   camo_cli compare [compare options]
//   camo_cli chipgen --out chip.gds [--scenario S] [--cols N] [--rows N] [--pitch NM]
//   camo_cli shard [--in chip.gds | --scenario S --cols N --rows N] [--tile NM]
//                  [--halo NM] [shard options]
//   camo_cli serve [--requests N] [--clips N] [--queue-capacity N] [serve options]
//   camo_cli collect --out store.ctrj [--style S] [--clips N] [collect options]
//   camo_cli train --from-store store.ctrj --weights out.bin [train options]
//   camo_cli pretrain [--train-workers N] [telemetry options]
//   camo_cli --list-scenarios
//
// Every mode parses its arguments against one flag table (name, value name,
// checked setter); the same table generates the usage line printed on a bad
// invocation, so the usage text cannot drift from what the parser accepts.
//
// pretrain trains the CAMO and RL-OPC policies for both layers and stores
// the weights under data/, where the table benches load them; run it once
// after changing the training configuration. Its --train-workers, like every
// other mode's, only changes wall time: the weights are bit-identical at any
// value, which is why the cache path does not encode it.
//
// collect / train split teacher-data collection from phase-1 imitation
// training through the packed trajectory store (src/rl/trajstore.hpp), the
// file format of the teacher dataset: collect gathers the dataset, appends
// it and flushes; train loads the store once into the same in-memory
// dataset (every sample in RAM, as in the collecting process) and runs the
// one epoch loop over it, with no lithography simulator at all. The store's
// canonical append order makes the trained weights byte-identical to
// in-memory training at any --train-workers value (TrajStoreDeterminism in
// tests/test_rl_trajstore.cpp).
//
// The streaming trio covers the full-chip path: chipgen writes a synthetic
// multi-tile chip from a registered scenario generator, shard cuts it into
// halo-padded tiles and streams them through the batch runtime before
// stitching one chip mask (bit-identical to the barrier path at any worker
// count: tests/test_layout_shard.cpp), and serve runs a
// long-lived request queue — priority scheduling, soft deadlines, and
// admission control that rejects with a reason when the queue is full —
// over one warm scheduler (kernels, simulators, policy shared across
// requests).
//
// An unknown subcommand prints the top-level usage and exits 2; every
// subcommand likewise exits 2 on unknown flags.
//
// Single-clip mode reads target polygons from a GDSII file (layer 1 by
// default), runs the selected OPC engine against the lithography simulator,
// and writes a GDSII file with targets (layer 1), SRAFs (layer 2, via style
// only) and the optimized mask (layer 10).
//
// Options:
//   --engine rule|oneshot|camo   engine selection        [rule]
//   --style via|metal            fragmentation style     [via]
//   --layer N                    input layer number      [1]
//   --clip N                     clip size in nm         [2000]
//   --iterations N               max OPC iterations      [style default]
//   --reward-mode M              nominal|worst|weighted: which corner(s) of
//                                the process window the engine optimizes
//                                [nominal]
//   --train-workers N            data-parallel trainer width on a
//                                cached-weights miss; <= 0 = all hardware
//                                threads. Trained weights are bit-identical
//                                at any value                [1]
//   --window                     evaluate the final mask through the
//                                standard process window and print the
//                                worst-corner |EPE| / exact PV band
//   --quiet                      suppress progress logs
//   --log-level L                quiet|info|debug (overrides --quiet)
//   --metrics-json PATH          enable the metrics registry and write its
//                                snapshot to PATH on exit
//   --trace PATH                 enable span tracing and write a Chrome
//                                trace-event file (Perfetto-loadable)
//
// Telemetry is observational only: all numeric outputs, GDS bytes, and
// trained weights are bit-identical with the flags on or off.
//
// Batch mode runs the parallel runtime over a generated via-clip stream and
// prints per-clip results plus aggregate throughput. --batched (camo engine
// only) routes the batch through the lockstep batched inference path: every
// wave issues one policy forward over all clips awaiting actions instead of
// one forward per clip. Results are identical to the threaded path on the
// same backend.
//
// Sweep mode (= batch --window) is batch mode plus a multi-corner
// process-window evaluation of every corrected mask (defaults to the
// standard {dose_min, 1, dose_max} x {0, defocus} window; the sweep-only
// --doses/--focuses set an arbitrary grid).
//
// Compare mode runs the scenario-matrix quality gate — every engine x
// registered scenario x reward mode through the batch runtime — prints the
// ranked table, and optionally writes the table as JSON, checks it against
// golden regression bounds (exit 1 on a violation), or regenerates the
// golden file.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/file_io.hpp"
#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/experiment.hpp"
#include "layout/gdsii.hpp"
#include "layout/metal_gen.hpp"
#include "layout/shard.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "opc/one_shot.hpp"
#include "opc/rule_engine.hpp"
#include "opc/sraf.hpp"
#include "rl/trajstore.hpp"
#include "runtime/batch.hpp"
#include "scenario/comparer.hpp"
#include "scenario/scenario.hpp"
#include "service/server.hpp"

namespace {

using namespace camo;

// ---- Flag tables ------------------------------------------------------------
// Every numeric flag goes through common/parse.hpp: the whole value must be a
// well-formed, in-range number (no trailing garbage, no overflow, no
// exceptions) and range violations get a flag-specific diagnostic before the
// caller prints usage and exits 2. The std::sto* family this replaces
// TERMINATED the process on "--threads foo" and silently read "1e99" as 1.

/// One command-line flag. `meta` names the value in the usage line (empty
/// for a switch, which takes no value); `set` validates and stores a value,
/// printing a flag-specific diagnostic and returning false on a bad one.
struct Flag {
    std::string name;
    std::string meta;
    std::function<bool(const std::string&)> set;
    bool required = false;  ///< must be given a non-empty value
};

Flag required(Flag f) {
    f.required = true;
    return f;
}

Flag on(const char* name, bool& dst) {
    return {name, "", [&dst](const std::string&) {
                dst = true;
                return true;
            }};
}

Flag text(const char* name, const char* meta, std::string& dst) {
    return {name, meta, [&dst](const std::string& v) {
                dst = v;
                return true;
            }};
}

/// One of `options`; the usage line lists them as "a|b|c".
Flag choice(const char* name, const std::vector<std::string>& options, std::string& dst) {
    std::string meta;
    std::string expected;
    for (std::size_t i = 0; i < options.size(); ++i) {
        meta += (i == 0 ? "" : "|") + options[i];
        expected += (i == 0 ? "" : i + 1 == options.size() ? " or " : ", ") + options[i];
    }
    return {name, meta, [name, options, expected, &dst](const std::string& v) {
                if (std::find(options.begin(), options.end(), v) == options.end()) {
                    std::fprintf(stderr, "%s: expected %s, got '%s'\n", name, expected.c_str(),
                                 v.c_str());
                    return false;
                }
                dst = v;
                return true;
            }};
}

Flag integer(const char* name, const char* meta, int& dst,
             int min = std::numeric_limits<int>::min()) {
    return {name, meta, [name, min, &dst](const std::string& v) {
                int x = 0;
                if (!parse_int(v, x)) {
                    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", name, v.c_str());
                    return false;
                }
                if (x < min) {
                    std::fprintf(stderr, "%s: must be >= %d, got %d\n", name, min, x);
                    return false;
                }
                dst = x;
                return true;
            }};
}

Flag u64(const char* name, const char* meta, std::uint64_t& dst) {
    return {name, meta, [name, &dst](const std::string& v) {
                if (!parse_u64(v, dst)) {
                    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", name,
                                 v.c_str());
                    return false;
                }
                return true;
            }};
}

Flag real(const char* name, const char* meta, double min, double& dst) {
    return {name, meta, [name, min, &dst](const std::string& v) {
                double x = 0.0;
                if (!parse_double(v, x)) {
                    std::fprintf(stderr, "%s: expected a number, got '%s'\n", name, v.c_str());
                    return false;
                }
                if (x < min) {
                    std::fprintf(stderr, "%s: must be >= %g, got %g\n", name, min, x);
                    return false;
                }
                dst = x;
                return true;
            }};
}

Flag doubles(const char* name, std::vector<double>& dst) {
    return {name, "a,b,..", [name, &dst](const std::string& v) {
                if (!parse_double_list(v, dst)) {
                    std::fprintf(stderr,
                                 "%s: expected a comma-separated list of numbers (e.g. "
                                 "0.96,1.0,1.04), got '%s'\n",
                                 name, v.c_str());
                    return false;
                }
                return true;
            }};
}

// "a,b,c" -> {"a","b","c"}; empty pieces are dropped.
std::vector<std::string> split_list(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > pos) out.push_back(s.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

/// A comma-separated list of names; a value with no items is rejected.
Flag name_list(const char* name, const char* meta, std::vector<std::string>& dst) {
    return {name, meta, [name, &dst](const std::string& v) {
                std::vector<std::string> items = split_list(v);
                if (items.empty()) {
                    std::fprintf(stderr, "%s: expected a comma-separated list, got '%s'\n", name,
                                 v.c_str());
                    return false;
                }
                dst = std::move(items);
                return true;
            }};
}

Flag reward(const char* name, rl::RewardMode& dst) {
    return {name, "nominal|worst|weighted", [&dst](const std::string& v) {
                if (!rl::parse_reward_mode(v, dst)) {
                    std::fprintf(stderr, "unknown reward mode: %s\n", v.c_str());
                    return false;
                }
                return true;
            }};
}

/// Parses argv[first..argc) against `flags`. Returns false after a
/// diagnostic on an unknown flag, a missing or bad value, or a required flag
/// that was not given.
bool parse_flags(int argc, char** argv, int first, const std::vector<Flag>& flags) {
    std::vector<bool> given(flags.size(), false);
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        const auto f = std::find_if(flags.begin(), flags.end(),
                                    [&a](const Flag& flag) { return flag.name == a; });
        const bool takes_value = f != flags.end() && !f->meta.empty();
        if (f == flags.end() || (takes_value && i + 1 >= argc)) {
            std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
            return false;
        }
        const std::string v = takes_value ? argv[++i] : "";
        if (!f->set(v)) return false;
        if (!v.empty()) given[static_cast<std::size_t>(f - flags.begin())] = true;
    }
    for (std::size_t k = 0; k < flags.size(); ++k) {
        if (flags[k].required && !given[k]) {
            std::fprintf(stderr, "missing required flag: %s %s\n", flags[k].name.c_str(),
                         flags[k].meta.c_str());
            return false;
        }
    }
    return true;
}

/// Prints `camo_cli <command>`'s usage line, generated from its flag table,
/// and returns the usage exit code 2.
int print_flags_usage(const std::string& command, const std::vector<Flag>& flags) {
    std::string usage = "usage: camo_cli" + (command.empty() ? "" : " " + command);
    const std::size_t indent = usage.size();
    std::size_t width = indent;
    for (const Flag& f : flags) {
        std::string item = f.meta.empty() ? f.name : f.name + " " + f.meta;
        if (!f.required) item = "[" + item + "]";
        if (width + 1 + item.size() > 80) {
            usage += "\n" + std::string(indent, ' ');
            width = indent;
        }
        usage += " " + item;
        width += 1 + item.size();
    }
    std::fprintf(stderr, "%s\n", usage.c_str());
    return 2;
}

// Shared telemetry/logging switches (--quiet / --log-level / --metrics-json /
// --trace).
struct ObsCliOptions {
    std::string metrics_json;  ///< empty = metrics registry disabled
    std::string trace;         ///< empty = span tracing disabled
    std::string log_level;     ///< empty = derived from --quiet
    bool quiet = false;        ///< suppress progress logs
};

/// `flags` followed by the shared --log-level/--metrics-json/--trace group.
std::vector<Flag> with_obs(std::vector<Flag> flags, ObsCliOptions& o) {
    flags.push_back(choice("--log-level", {"quiet", "info", "debug"}, o.log_level));
    flags.push_back(text("--metrics-json", "PATH", o.metrics_json));
    flags.push_back(text("--trace", "PATH", o.trace));
    return flags;
}

void apply_obs_options(const ObsCliOptions& o) {
    LogLevel lvl = o.quiet ? LogLevel::kQuiet : LogLevel::kInfo;
    if (o.log_level == "quiet") lvl = LogLevel::kQuiet;
    if (o.log_level == "info") lvl = LogLevel::kInfo;
    if (o.log_level == "debug") lvl = LogLevel::kDebug;
    set_log_level(lvl);
    if (!o.metrics_json.empty()) obs::set_metrics_enabled(true);
    if (!o.trace.empty()) obs::set_tracing_enabled(true);
}

void write_obs_reports(const ObsCliOptions& o) {
    try {
        if (!o.metrics_json.empty()) obs::write_metrics_json(o.metrics_json);
        if (!o.trace.empty()) obs::write_trace_json(o.trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "telemetry export failed: %s\n", e.what());
    }
}

struct CliOptions {
    std::string in;
    std::string out;
    std::string engine = "rule";
    std::string style = "via";
    int layer = 1;
    int clip_nm = 2000;
    int iterations = -1;
    int train_workers = 1;  // data-parallel trainer width; <= 0 = all threads
    rl::RewardMode reward_mode = rl::RewardMode::kNominal;
    bool window = false;
    ObsCliOptions obs;
};

struct BatchCliOptions {
    int clips = 32;
    int threads = 0;  // 0 = all hardware threads
    std::string engine = "rule";
    std::uint64_t seed = core::Experiment::kDatasetSeed;
    int iterations = -1;
    int train_workers = 1;  // data-parallel trainer width; <= 0 = all threads
    rl::RewardMode reward_mode = rl::RewardMode::kNominal;
    ObsCliOptions obs;
    bool window = false;             // sweep mode / batch --window
    bool batched = false;            // camo: lockstep batched policy inference
    std::vector<double> doses;       // empty = standard window (sweep only)
    std::vector<double> focuses_nm;  // empty = standard window (sweep only)
};

/// batch and sweep share one table; only sweep takes an explicit window grid.
std::vector<Flag> batch_flags(BatchCliOptions& o, bool sweep) {
    std::vector<Flag> flags = {
        integer("--clips", "N", o.clips, 1), integer("--threads", "N", o.threads, 1),
        choice("--engine", {"rule", "camo"}, o.engine), on("--batched", o.batched),
        u64("--seed", "S", o.seed), integer("--iterations", "N", o.iterations, 1),
        integer("--train-workers", "N", o.train_workers),
        reward("--reward-mode", o.reward_mode), on("--window", o.window),
        on("--quiet", o.obs.quiet)};
    if (sweep) {
        flags.push_back(doubles("--doses", o.doses));
        flags.push_back(doubles("--focuses", o.focuses_nm));
    }
    return with_obs(std::move(flags), o.obs);
}

int batch_main(int argc, char** argv, bool sweep) {
    BatchCliOptions cli;
    cli.window = sweep;
    const std::vector<Flag> flags = batch_flags(cli, sweep);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage(argv[1], flags);
    if (cli.batched && cli.engine != "camo") {
        std::fprintf(stderr, "--batched requires --engine camo\n");
        return print_flags_usage(argv[1], flags);
    }
    apply_obs_options(cli.obs);

    const std::vector<layout::Clip> raw = layout::via_batch_set(cli.seed, cli.clips);
    const std::vector<geo::SegmentedLayout> clips = core::fragment_via_clips(raw);
    std::vector<std::string> names;
    names.reserve(raw.size());
    for (const layout::Clip& c : raw) names.push_back(c.name);

    runtime::BatchOptions opt;
    opt.threads = cli.threads;
    opt.seed = cli.seed;
    opt.opc = core::Experiment::via_options();
    if (cli.iterations > 0) opt.opc.max_iterations = cli.iterations;
    opt.opc.objective = cli.reward_mode;
    opt.window = cli.window;
    // One window for the sweep report and the reward-mode objective, so
    // the engines optimize the same corners the report evaluates.
    try {
        opt.opc.window = litho::WindowSpec{cli.doses, cli.focuses_nm}.resolved(
            core::Experiment::litho_config());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bad window spec: %s\n", e.what());
        return 2;
    }

    runtime::BatchScheduler scheduler(core::Experiment::litho_config(), opt);

    runtime::BatchResult res;
    if (cli.engine == "rule") {
        res = scheduler.run_rule(clips, {}, names);
    } else {
        core::CamoConfig cfg = core::Experiment::via_camo_config();
        // Trainer width on a cached-weights miss. Deliberately not part of
        // the weight-cache key: results are bit-identical at any value.
        cfg.train_workers = cli.train_workers;
        core::CamoEngine engine(cfg);
        litho::LithoSim train_sim(core::Experiment::litho_config());
        const auto train = core::fragment_via_clips(
            layout::via_training_set(core::Experiment::kDatasetSeed));
        core::ensure_trained(engine, train, train_sim, opt.opc,
                             core::Experiment::weights_path(cfg, "via", cli.reward_mode));
        res = cli.batched ? scheduler.run_camo_batched(clips, engine, names)
                          : scheduler.run_camo(clips, engine, names);
    }

    if (cli.window || cli.reward_mode != rl::RewardMode::kNominal) {
        const litho::WindowSpec& spec = scheduler.options().opc.window;
        std::printf("process window: %d doses x %d focus planes = %d corners (reward %s)\n",
                    spec.dose_count(), spec.focus_count(), spec.corner_count(),
                    rl::reward_mode_name(cli.reward_mode));
        std::printf("%-6s %6s %6s %10s %10s %10s %10s %12s\n", "Clip", "Segs", "Iters", "EPE",
                    "WorstEPE", "PVBexact", "PVB2c", "CDrange");
        for (const runtime::ClipResult& c : res.clips) {
            if (!c.error.empty()) {
                std::printf("%-6s FAILED: %s\n", c.name.c_str(), c.error.c_str());
                continue;
            }
            if (!c.window) continue;
            const litho::WindowMetrics& w = *c.window;
            char two_corner[32] = "n/a";  // window lacks the standard planes
            if (w.pv_band_two_corner_nm2 >= 0.0) {
                std::snprintf(two_corner, sizeof two_corner, "%.0f", w.pv_band_two_corner_nm2);
            }
            std::printf("%-6s %6d %6d %10.1f %10.1f %10.0f %10s %12.0f\n", c.name.c_str(),
                        c.segments, c.iterations, c.final_epe, w.worst_epe,
                        w.pv_band_exact_nm2, two_corner, w.cd_range_nm2());
        }
    } else {
        std::printf("%-6s %6s %6s %10s %10s %10s %6s\n", "Clip", "Segs", "Iters", "EPE0",
                    "EPE", "PVB", "RT");
        for (const runtime::ClipResult& c : res.clips) {
            if (!c.error.empty()) {
                std::printf("%-6s FAILED: %s\n", c.name.c_str(), c.error.c_str());
                continue;
            }
            std::printf("%-6s %6d %6d %10.1f %10.1f %10.0f %6.2f\n", c.name.c_str(), c.segments,
                        c.iterations, c.initial_epe, c.final_epe, c.pvband_nm2, c.runtime_s);
        }
    }
    std::printf("%s\n", res.summary().c_str());
    write_obs_reports(cli.obs);
    return res.failed == 0 ? 0 : 1;
}

void print_scenarios() {
    const scenario::Registry& reg = scenario::Registry::instance();
    for (const std::string& name : reg.names()) {
        const scenario::Scenario sc = reg.get(name);
        std::printf("%-14s %-6s %s\n", name.c_str(), scenario::style_name(sc.style),
                    sc.description.c_str());
    }
}

int compare_main(int argc, char** argv) {
    scenario::CompareOptions cmp;
    std::vector<std::string> rewards;  // empty = the comparer's default set
    std::string json_path;
    std::string golden_path;
    std::string write_golden_path;
    double slack = 0.25;
    bool list = false;
    ObsCliOptions obs;
    const std::vector<Flag> flags = with_obs(
        {name_list("--scenarios", "a,b,..", cmp.scenarios),
         name_list("--engines", "rule,oneshot,camo,rlopc,ilt", cmp.engines),
         name_list("--rewards", "nominal,worst,weighted", rewards),
         integer("--clips", "N", cmp.clips, 1), integer("--threads", "N", cmp.threads, 1),
         u64("--seed", "S", cmp.seed), integer("--iterations", "N", cmp.max_iterations, 1),
         integer("--ilt-iterations", "N", cmp.ilt_iterations, 1),
         integer("--train-clips", "N", cmp.train_clips, 1), text("--json", "PATH", json_path),
         text("--golden", "PATH", golden_path), text("--write-golden", "PATH", write_golden_path),
         real("--slack", "X", 0.0, slack), on("--list-scenarios", list),
         on("--quiet", obs.quiet)},
        obs);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("compare", flags);
    if (!rewards.empty()) cmp.rewards.clear();
    for (const std::string& r : rewards) {
        rl::RewardMode mode{};
        if (!rl::parse_reward_mode(r, mode)) {
            std::fprintf(stderr, "unknown reward mode: %s\n", r.c_str());
            return print_flags_usage("compare", flags);
        }
        cmp.rewards.push_back(mode);
    }
    if (list) {
        print_scenarios();
        return 0;
    }
    apply_obs_options(obs);

    scenario::CompareResult result;
    try {
        scenario::PolicyComparer comparer(cmp);
        result = comparer.run();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "compare failed: %s\n", e.what());
        return print_flags_usage("compare", flags);
    }

    if (!obs.quiet) std::printf("%s\n", result.table().c_str());
    int failed_cells = 0;
    for (const scenario::CellResult& c : result.cells) {
        if (c.failed > 0) ++failed_cells;
    }
    std::printf("%zu cells (%d scenarios x %zu engines x %zu rewards), %d with failed clips, "
                "%.1f s\n",
                result.cells.size(),
                static_cast<int>(cmp.scenarios.empty()
                                     ? scenario::Registry::instance().names().size()
                                     : cmp.scenarios.size()),
                cmp.engines.size(), cmp.rewards.size(), failed_cells, result.wall_s);

    try {
        if (!json_path.empty()) {
            write_text_atomic(json_path, result.to_json(true));
            std::printf("wrote %s\n", json_path.c_str());
        }
        if (!write_golden_path.empty()) {
            write_text_atomic(write_golden_path, scenario::bounds_json(result, slack));
            std::printf("wrote %s (rel slack %.0f%%)\n", write_golden_path.c_str(),
                        100.0 * slack);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "write failed: %s\n", e.what());
        return 1;
    }

    int rc = failed_cells > 0 ? 1 : 0;
    if (!golden_path.empty()) {
        try {
            const std::vector<scenario::CellBound> bounds =
                scenario::read_bounds(read_text(golden_path));
            const std::vector<std::string> violations = scenario::check_bounds(result, bounds);
            if (violations.empty()) {
                std::printf("golden gate: %zu bounded cells OK (%s)\n", bounds.size(),
                            golden_path.c_str());
            } else {
                for (const std::string& viol : violations) {
                    std::fprintf(stderr, "golden gate: %s\n", viol.c_str());
                }
                rc = 1;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "golden gate: %s\n", e.what());
            rc = 1;
        }
    }
    write_obs_reports(obs);
    return rc;
}

// ------------------------------------------------------- streaming commands

/// Quick-scale OPC protocol for the scenario-driven streaming paths (same
/// defaults the scenario comparer runs cells with).
opc::OpcOptions scenario_opc(scenario::Style style, int iterations) {
    opc::OpcOptions opt;
    opt.max_iterations = iterations > 0 ? iterations : 5;
    opt.initial_bias_nm = style == scenario::Style::kVia ? 3 : 0;
    return opt;
}

/// Per-clip optimizer for the streaming paths: a fresh RuleEngine per job,
/// or one warm CamoEngine snapshot inferred concurrently.
runtime::ClipOptimizer make_optimizer(const std::string& engine, scenario::Style style,
                                      const litho::LithoConfig& litho,
                                      const opc::OpcOptions& opt) {
    if (engine == "rule") {
        return [](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                  const opc::OpcOptions& o, std::uint64_t /*job_seed*/) {
            opc::RuleEngine eng;
            return eng.optimize(layout, sim, o);
        };
    }
    // The comparer's warm-policy recipe, trained once up front and shared
    // read-only across every tile and request of the run: the warm policy
    // cache of the service.
    const std::shared_ptr<core::CamoEngine> eng =
        scenario::train_warm_policy("stream", style, 2, 4, litho, opt);
    return [eng](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                 const opc::OpcOptions& o,
                 std::uint64_t /*job_seed*/) { return eng->infer(layout, sim, o); };
}

int chipgen_main(int argc, char** argv) {
    std::string out;
    std::string scenario_name = "via3";
    int cols = 3;
    int rows = 3;
    int pitch = 0;
    const std::vector<Flag> flags = {
        required(text("--out", "chip.gds", out)), text("--scenario", "NAME", scenario_name),
        integer("--cols", "N", cols, 1), integer("--rows", "N", rows, 1),
        integer("--pitch", "NM", pitch, 0)};
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("chipgen", flags);

    try {
        const scenario::Scenario sc = scenario::Registry::instance().get(scenario_name);
        const std::vector<geo::Polygon> chip = scenario::chip_polygons(sc, cols, rows, pitch);
        layout::GdsLibrary lib;
        lib.name = "CAMO_CHIP";
        lib.structure = "CHIP";
        lib.layers[1] = chip;
        layout::write_gds(out, lib);
        std::printf("wrote %s: %dx%d cells of %s at %d nm pitch, %zu polygons\n", out.c_str(),
                    cols, rows, scenario_name.c_str(), pitch > 0 ? pitch : sc.clip_nm,
                    chip.size());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "chipgen failed: %s\n", e.what());
        return 1;
    }
}

struct ShardCliOptions {
    std::string in;  ///< chip GDS; empty = generate from the scenario grid
    std::string out;
    std::string scenario = "via3";
    std::string engine = "rule";
    int layer = 1;
    int cols = 3;
    int rows = 3;
    int pitch = 0;
    int tile_nm = 512;
    int halo_nm = 256;
    int threads = 0;
    int queue_capacity = 64;
    std::uint64_t seed = core::Experiment::kDatasetSeed;
    int iterations = -1;
    ObsCliOptions obs;
};

int shard_main(int argc, char** argv) {
    ShardCliOptions cli;
    const std::vector<Flag> flags = with_obs(
        {text("--in", "chip.gds", cli.in), integer("--layer", "N", cli.layer, 0),
         text("--scenario", "NAME", cli.scenario), integer("--cols", "N", cli.cols, 1),
         integer("--rows", "N", cli.rows, 1), integer("--pitch", "NM", cli.pitch, 0),
         integer("--tile", "NM", cli.tile_nm, 1), integer("--halo", "NM", cli.halo_nm, 0),
         choice("--engine", {"rule", "camo"}, cli.engine),
         integer("--threads", "N", cli.threads, 1),
         integer("--queue-capacity", "N", cli.queue_capacity, 1), u64("--seed", "S", cli.seed),
         integer("--iterations", "N", cli.iterations, 1), text("--out", "mask.gds", cli.out),
         on("--quiet", cli.obs.quiet)},
        cli.obs);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("shard", flags);
    apply_obs_options(cli.obs);

    try {
        const scenario::Scenario sc = scenario::Registry::instance().get(cli.scenario);

        std::vector<geo::Polygon> chip;
        if (cli.in.empty()) {
            chip = scenario::chip_polygons(sc, cli.cols, cli.rows, cli.pitch);
        } else {
            layout::GdsLibrary lib = layout::read_gds(cli.in);
            chip = std::move(lib.layers[cli.layer]);
            if (chip.empty()) {
                std::fprintf(stderr, "no polygons on layer %d in %s\n", cli.layer,
                             cli.in.c_str());
                return 1;
            }
        }

        layout::ShardOptions sopt;
        sopt.tile_nm = cli.tile_nm;
        sopt.halo_nm = cli.halo_nm;
        sopt.fragment = {sc.style == scenario::Style::kVia ? geo::FragmentStyle::kVia
                                                           : geo::FragmentStyle::kMetal,
                         60};
        if (sc.style == scenario::Style::kVia) {
            sopt.sraf_gen = [](const std::vector<geo::Polygon>& targets) {
                return opc::insert_srafs(targets);
            };
        }
        const layout::TileSharder sharder(std::move(chip), std::move(sopt), sc.litho);
        if (sharder.tiles().empty()) {
            std::printf("empty chip: nothing to shard\n");
            return 0;
        }

        const opc::OpcOptions opt = scenario_opc(sc.style, cli.iterations);
        const runtime::ClipOptimizer optimize =
            make_optimizer(cli.engine, sc.style, sc.litho, opt);
        const std::vector<geo::SegmentedLayout> layouts = sharder.tile_layouts();
        const std::vector<std::string> names = sharder.tile_names();
        const geo::SegmentedLayout chip_layout = sharder.chip_layout();

        runtime::BatchOptions bopt;
        bopt.threads = cli.threads;
        bopt.seed = cli.seed;
        bopt.opc = opt;
        runtime::StreamOptions stream;
        stream.queue_capacity = cli.queue_capacity;

        runtime::BatchScheduler sched(sc.litho, bopt);
        std::vector<std::vector<int>> tile_offsets(layouts.size());
        const runtime::StreamStats stats = sched.run_streaming(
            layouts, optimize,
            [&tile_offsets](runtime::ClipResult&& r) {
                if (!r.error.empty()) {
                    std::fprintf(stderr, "tile %s FAILED: %s\n", r.name.c_str(),
                                 r.error.c_str());
                    return;  // stitch rejects the missing tile below
                }
                tile_offsets[static_cast<std::size_t>(r.index)] = std::move(r.offsets);
            },
            names, stream);
        const layout::StitchResult stitched = layout::stitch(sharder, chip_layout, tile_offsets);

        std::printf("shard: %zu polygons -> %zu tiles (%d nm core + %d nm halo = %d nm "
                    "window), %d owned segments\n",
                    sharder.chip().size(), sharder.tiles().size(), cli.tile_nm, cli.halo_nm,
                    sharder.options().window_nm(), sharder.total_owned_segments());
        std::printf("stream: %d tiles delivered (%d failed) in %.2fs, %lld litho evals "
                    "(%lld incremental hits)\n",
                    stats.delivered, stats.failed, stats.wall_s, stats.litho_evaluations,
                    stats.incremental_hits);

        if (!cli.out.empty()) {
            layout::GdsLibrary out;
            out.name = "CAMO_STITCHED";
            out.structure = "CHIP";
            out.layers[1] = sharder.chip();
            if (!chip_layout.srafs().empty()) out.layers[2] = chip_layout.srafs();
            out.layers[10] = stitched.mask;
            layout::write_gds(cli.out, out);
            std::printf("wrote %s (targets: layer 1, mask: layer 10)\n", cli.out.c_str());
        }

        write_obs_reports(cli.obs);
        return stats.failed > 0 ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "shard failed: %s\n", e.what());
        return 1;
    }
}

struct ServeCliOptions {
    int requests = 6;
    int clips_per_request = 2;
    int queue_capacity = 4;
    int priority_levels = 3;
    double deadline_s = 0.0;
    std::string scenario = "via3";
    std::string engine = "rule";
    int threads = 0;
    int queue_stream = 64;  ///< worker->sink queue inside each request
    std::uint64_t seed = core::Experiment::kDatasetSeed;
    int iterations = -1;
    ObsCliOptions obs;
};

int serve_main(int argc, char** argv) {
    ServeCliOptions cli;
    const std::vector<Flag> flags = with_obs(
        {integer("--requests", "N", cli.requests, 0),
         integer("--clips", "N", cli.clips_per_request, 1),
         integer("--queue-capacity", "N", cli.queue_capacity, 1),
         integer("--priority-levels", "N", cli.priority_levels, 1),
         real("--deadline-s", "X", 0.0, cli.deadline_s),
         text("--scenario", "NAME", cli.scenario),
         choice("--engine", {"rule", "camo"}, cli.engine),
         integer("--threads", "N", cli.threads, 1),
         integer("--stream-queue", "N", cli.queue_stream, 1), u64("--seed", "S", cli.seed),
         integer("--iterations", "N", cli.iterations, 1), on("--quiet", cli.obs.quiet)},
        cli.obs);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("serve", flags);
    // Every request's clips are generated up front and indexed as one int
    // range, so the total must fit an int.
    if (static_cast<long long>(cli.requests) * cli.clips_per_request >
        std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "--requests %d x --clips %d: more than %d clips in total\n",
                     cli.requests, cli.clips_per_request, std::numeric_limits<int>::max());
        return print_flags_usage("serve", flags);
    }
    apply_obs_options(cli.obs);

    try {
        const scenario::Scenario sc = scenario::Registry::instance().get(cli.scenario);
        const opc::OpcOptions opt = scenario_opc(sc.style, cli.iterations);

        service::ServerOptions sopt;
        sopt.queue_capacity = cli.queue_capacity;
        sopt.batch.threads = cli.threads;
        sopt.batch.seed = cli.seed;
        sopt.batch.opc = opt;
        sopt.stream.queue_capacity = cli.queue_stream;
        service::OpcServer server(sc.litho, sopt);

        const int total = cli.requests * cli.clips_per_request;
        const std::vector<layout::Clip> raw = sc.clips(total);
        const std::vector<geo::SegmentedLayout> lays = sc.layouts(total);

        for (int j = 0; j < cli.requests; ++j) {
            service::ServeRequest req;
            req.name = "req" + std::to_string(j);
            req.priority = j % cli.priority_levels;
            req.deadline_s = cli.deadline_s;
            const int begin = j * cli.clips_per_request;
            for (int k = 0; k < cli.clips_per_request; ++k) {
                req.clips.push_back(lays[static_cast<std::size_t>(begin + k)]);
                req.clip_names.push_back(raw[static_cast<std::size_t>(begin + k)].name);
            }
            server.submit(std::move(req));
        }

        const runtime::ClipOptimizer optimize =
            make_optimizer(cli.engine, sc.style, sc.litho, opt);
        const std::vector<service::RequestOutcome> outcomes = server.drain(optimize);

        int accepted = 0;
        int rejected = 0;
        int completed = 0;
        int failed = 0;
        int deadline_missed = 0;
        for (const service::RequestOutcome& out : outcomes) {
            if (!out.accepted) {
                ++rejected;
                std::printf("%-6s p%-2d REJECTED: %s\n", out.name.c_str(), out.priority,
                            out.reject_reason.c_str());
                continue;
            }
            ++accepted;
            const bool request_error = !out.reject_reason.empty();
            if (request_error || out.failed > 0) {
                ++failed;
            } else {
                ++completed;
            }
            if (out.deadline_missed) ++deadline_missed;
            std::printf("%-6s p%-2d served #%d: %d clips (%d failed), wait %.3fs, "
                        "service %.2fs, latency %.2fs, sum|EPE| %.1f nm%s%s%s\n",
                        out.name.c_str(), out.priority, out.served_order, out.clips,
                        out.failed, out.queue_wait_s, out.service_s, out.latency_s,
                        out.sum_final_epe, out.deadline_missed ? " [DEADLINE MISSED]" : "",
                        request_error ? " [" : "",
                        request_error ? (out.reject_reason + "]").c_str() : "");
        }
        std::printf("serve: %d requests, %d accepted, %d rejected, %d completed, %d failed, "
                    "%d deadline-missed\n",
                    static_cast<int>(outcomes.size()), accepted, rejected, completed, failed,
                    deadline_missed);
        write_obs_reports(cli.obs);
        return failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve failed: %s\n", e.what());
        return 1;
    }
}

// ---- collect / train: trajectory-store workflow -----------------------------
// collect records rule-teacher trajectories (plus their squish-encoded
// states) into a packed trajectory store; train loads the store once into a
// teacher dataset, runs the phase-1 epochs over it and writes the trained
// policy weights.

struct StoreCliOptions {
    std::string style = "via";
    int clips = 0;  // 0 = the style's full training set
    int train_workers = 1;
    int epochs = 0;  // 0 = config default (train only)
    std::uint64_t seed = core::Experiment::kDatasetSeed;
    std::string store_path;  ///< collect --out / train --from-store
    std::string weights;     ///< train --weights
    std::string stats_json;
    ObsCliOptions obs;
};

/// Provenance hash of the clip set a store was collected on. Derived from
/// everything build_store_clips depends on (plus the squish size, which
/// fixes the feature shape) so training against differently-built clips
/// fails loudly instead of training on mismatched data.
std::uint64_t store_dataset_tag(const std::string& style, std::uint64_t seed, int clip_cap,
                                int squish_size) {
    std::uint64_t h = fnv1a(kFnv1aShortBasis, style.data(), style.size());
    for (const std::uint64_t v : {seed, static_cast<std::uint64_t>(clip_cap),
                                  static_cast<std::uint64_t>(squish_size)}) {
        h = fnv1a(h, &v, sizeof v);
    }
    return h;
}

/// Deterministic clip set shared by collect and train: a pure function of
/// (style, seed, cap) — never of worker counts or flag order.
std::vector<geo::SegmentedLayout> build_store_clips(const std::string& style, std::uint64_t seed,
                                                    int cap) {
    if (style == "via") {
        std::vector<layout::Clip> raw = layout::via_training_set(seed);
        if (cap > 0 && static_cast<std::size_t>(cap) < raw.size()) {
            raw.resize(static_cast<std::size_t>(cap));
        }
        return core::fragment_via_clips(raw);
    }
    std::vector<layout::Clip> raw = layout::metal_training_set(seed, cap > 0 ? cap : 8);
    if (cap > 0 && static_cast<std::size_t>(cap) < raw.size()) {
        raw.resize(static_cast<std::size_t>(cap));
    }
    return core::fragment_metal_clips(raw);
}

/// collect writes the store named by --out; train loads --from-store, writes
/// --weights and alone takes --epochs.
std::vector<Flag> store_flags(StoreCliOptions& o, bool train_mode) {
    std::vector<Flag> flags = {
        choice("--style", {"via", "metal"}, o.style), integer("--clips", "N", o.clips, 1),
        integer("--train-workers", "N", o.train_workers), u64("--seed", "S", o.seed),
        text("--stats-json", "PATH", o.stats_json), on("--quiet", o.obs.quiet)};
    if (train_mode) {
        flags.insert(flags.begin(), {required(text("--from-store", "store.ctrj", o.store_path)),
                                     required(text("--weights", "out.bin", o.weights)),
                                     integer("--epochs", "N", o.epochs, 1)});
    } else {
        flags.insert(flags.begin(), required(text("--out", "store.ctrj", o.store_path)));
    }
    return with_obs(std::move(flags), o.obs);
}

int collect_main(int argc, char** argv) {
    StoreCliOptions cli;
    const std::vector<Flag> flags = store_flags(cli, /*train_mode=*/false);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("collect", flags);
    apply_obs_options(cli.obs);
    try {
        core::CamoConfig cfg =
            cli.style == "via" ? core::Experiment::via_camo_config()
                               : core::Experiment::metal_camo_config();
        cfg.train_workers = cli.train_workers;
        const auto clips = build_store_clips(cli.style, cli.seed, cli.clips);
        const std::uint64_t tag =
            store_dataset_tag(cli.style, cli.seed, cli.clips, cfg.squish.size);

        litho::LithoSim sim(core::Experiment::litho_config());
        const opc::OpcOptions opt = cli.style == "via" ? core::Experiment::via_options()
                                                       : core::Experiment::metal_options();
        core::CamoEngine engine(cfg);
        rl::TrajStoreWriter writer(cli.store_path, engine.state_dims(), tag);
        Timer timer;
        core::append_teacher_data(engine.collect_teacher_data(clips, sim, opt), writer);
        writer.flush();
        const double dedupe_rate =
            writer.steps() == 0
                ? 0.0
                : static_cast<double>(writer.dedupe_hits()) / static_cast<double>(writer.steps());
        std::printf("collect: %llu trajectories, %llu steps, %llu states "
                    "(%.0f%% deduped), %llu bytes -> %s (%.1fs)\n",
                    static_cast<unsigned long long>(writer.trajectories()),
                    static_cast<unsigned long long>(writer.steps()),
                    static_cast<unsigned long long>(writer.states()), 100.0 * dedupe_rate,
                    static_cast<unsigned long long>(writer.byte_size()), cli.store_path.c_str(),
                    timer.seconds());
        if (!cli.stats_json.empty()) {
            std::string json = "{\n";
            json += "  \"trajectories\": " + std::to_string(writer.trajectories()) + ",\n";
            json += "  \"steps\": " + std::to_string(writer.steps()) + ",\n";
            json += "  \"states\": " + std::to_string(writer.states()) + ",\n";
            json += "  \"dedupe_hits\": " + std::to_string(writer.dedupe_hits()) + ",\n";
            json += "  \"dedupe_rate\": " + std::to_string(dedupe_rate) + ",\n";
            json += "  \"bytes\": " + std::to_string(writer.byte_size()) + ",\n";
            json += "  \"clips\": " + std::to_string(clips.size()) + ",\n";
            json += "  \"dataset_tag\": " + std::to_string(tag) + "\n}\n";
            write_text_atomic(cli.stats_json, json);
        }
        write_obs_reports(cli.obs);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "collect failed: %s\n", e.what());
        return 1;
    }
}

int train_main(int argc, char** argv) {
    StoreCliOptions cli;
    const std::vector<Flag> flags = store_flags(cli, /*train_mode=*/true);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("train", flags);
    apply_obs_options(cli.obs);
    try {
        core::CamoConfig cfg =
            cli.style == "via" ? core::Experiment::via_camo_config()
                               : core::Experiment::metal_camo_config();
        cfg.train_workers = cli.train_workers;
        const int epochs = cli.epochs > 0 ? cli.epochs : cfg.phase1_epochs;
        const std::uint64_t tag =
            store_dataset_tag(cli.style, cli.seed, cli.clips, cfg.squish.size);

        // Open the store before any expensive setup so a bad path or a torn
        // file fails in milliseconds, not after clip generation.
        const rl::TrajStoreReader store(cli.store_path);
        if (store.dataset_tag() != tag) {
            std::fprintf(stderr,
                         "train: store %s was collected on a different dataset "
                         "(tag %llu, expected %llu for --style %s --seed %llu --clips %d)\n",
                         cli.store_path.c_str(),
                         static_cast<unsigned long long>(store.dataset_tag()),
                         static_cast<unsigned long long>(tag), cli.style.c_str(),
                         static_cast<unsigned long long>(cli.seed), cli.clips);
            return 1;
        }

        const auto clips = build_store_clips(cli.style, cli.seed, cli.clips);
        core::CamoEngine engine(cfg);
        Timer timer;
        // No lithography simulator at all: the store is decoded once, then
        // training cost is pure policy forward/backward over the dataset.
        const core::Phase1Dataset data = engine.load_teacher_data(store, clips);
        double loss = 0.0;
        for (int e = 0; e < epochs; ++e) loss = engine.run_phase1_epoch(data);
        engine.save_weights(cli.weights);
        std::printf("train: %d epochs over %llu steps (store replay), final loss %.6f -> %s "
                    "(%.1fs)\n",
                    epochs, static_cast<unsigned long long>(store.step_count()), loss,
                    cli.weights.c_str(), timer.seconds());
        if (!cli.stats_json.empty()) {
            std::string json = "{\n";
            json += "  \"epochs\": " + std::to_string(epochs) + ",\n";
            json += "  \"steps\": " + std::to_string(store.step_count()) + ",\n";
            json += "  \"mode\": \"replay\",\n";
            json += "  \"final_loss\": " + std::to_string(loss) + "\n}\n";
            write_text_atomic(cli.stats_json, json);
        }
        write_obs_reports(cli.obs);
        return 0;
    } catch (const rl::TrajStoreError& e) {
        std::fprintf(stderr, "train: %s\n", e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "train failed: %s\n", e.what());
        return 1;
    }
}

// ---- pretrain: the weight caches the table benches load ---------------------

void pretrain_one(core::CamoConfig cfg, int train_workers, const std::string& tag,
                  const std::vector<geo::SegmentedLayout>& clips, litho::LithoSim& sim,
                  const opc::OpcOptions& opt) {
    Timer timer;
    cfg.train_workers = train_workers;
    core::CamoEngine engine(cfg);
    const std::string path = core::Experiment::weights_path(cfg, tag);
    const bool cached = core::ensure_trained(engine, clips, sim, opt, path);
    std::printf("%-12s %-6s %-7s %6.1fs -> %s\n", cfg.name.c_str(), tag.c_str(),
                cached ? "cached" : "trained", timer.seconds(), path.c_str());
}

int pretrain_main(int argc, char** argv) {
    int train_workers = 1;
    ObsCliOptions obs;
    const std::vector<Flag> flags =
        with_obs({integer("--train-workers", "N", train_workers)}, obs);
    if (!parse_flags(argc, argv, 2, flags)) return print_flags_usage("pretrain", flags);
    apply_obs_options(obs);

    litho::LithoSim sim(core::Experiment::litho_config());
    const auto via_train = core::fragment_via_clips(
        layout::via_training_set(core::Experiment::kDatasetSeed));
    const auto metal_train = core::fragment_metal_clips(
        layout::metal_training_set(core::Experiment::kDatasetSeed, 5));
    pretrain_one(core::Experiment::via_camo_config(), train_workers, "via", via_train, sim,
                 core::Experiment::via_options());
    pretrain_one(core::Experiment::via_rlopc_config(), train_workers, "via", via_train, sim,
                 core::Experiment::via_options());
    pretrain_one(core::Experiment::metal_camo_config(), train_workers, "metal", metal_train,
                 sim, core::Experiment::metal_options());
    pretrain_one(core::Experiment::metal_rlopc_config(), train_workers, "metal", metal_train,
                 sim, core::Experiment::metal_options());
    write_obs_reports(obs);
    return 0;
}

void print_usage() {
    std::fprintf(stderr,
                 "usage: camo_cli <subcommand> [options] | camo_cli --in ... --out ...\n"
                 "subcommands:\n"
                 "  batch     parallel batch OPC over a generated clip stream\n"
                 "  sweep     batch + multi-corner process-window evaluation\n"
                 "  compare   scenario-matrix quality gate (ranked engine x scenario\n"
                 "            x reward table, golden regression bounds)\n"
                 "  chipgen   write a synthetic multi-tile chip GDS from a scenario grid\n"
                 "  shard     full-chip OPC: cut into halo-padded tiles, stream-optimize,\n"
                 "            stitch one chip mask\n"
                 "  serve     long-running service loop: queued requests with priority,\n"
                 "            deadlines and admission control over a warm scheduler\n"
                 "  collect   record rule-teacher trajectories into a packed store\n"
                 "  train     replay phase-1 training from a store and write weights\n"
                 "  pretrain  train and cache every policy the table benches load\n"
                 "  --list-scenarios   print the registered scenarios\n"
                 "(no subcommand: single-clip GDSII mode; see --in/--out usage)\n");
}

}  // namespace

int main(int argc, char** argv) {
    const std::string sub = argc > 1 ? argv[1] : "";
    if (sub == "batch") return batch_main(argc, argv, false);
    if (sub == "sweep") return batch_main(argc, argv, true);
    if (sub == "compare") return compare_main(argc, argv);
    if (sub == "chipgen") return chipgen_main(argc, argv);
    if (sub == "shard") return shard_main(argc, argv);
    if (sub == "serve") return serve_main(argc, argv);
    if (sub == "collect") return collect_main(argc, argv);
    if (sub == "train") return train_main(argc, argv);
    if (sub == "pretrain") return pretrain_main(argc, argv);
    if (sub == "--list-scenarios") {
        print_scenarios();
        return 0;
    }
    if (sub == "--help" || sub == "-h") {
        print_usage();
        return 0;
    }
    if (!sub.empty() && sub[0] != '-') {
        std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
        print_usage();
        return 2;
    }
    if (sub.empty()) {
        print_usage();
        return 2;
    }

    CliOptions cli;
    const std::vector<Flag> flags = with_obs(
        {required(text("--in", "layout.gds", cli.in)),
         required(text("--out", "result.gds", cli.out)),
         choice("--engine", {"rule", "oneshot", "camo"}, cli.engine),
         choice("--style", {"via", "metal"}, cli.style), integer("--layer", "N", cli.layer, 0),
         integer("--clip", "N", cli.clip_nm, 1), integer("--iterations", "N", cli.iterations, 1),
         integer("--train-workers", "N", cli.train_workers),
         reward("--reward-mode", cli.reward_mode), on("--window", cli.window),
         on("--quiet", cli.obs.quiet)},
        cli.obs);
    if (!parse_flags(argc, argv, 1, flags)) return print_flags_usage("", flags);
    apply_obs_options(cli.obs);

    // Load targets.
    layout::GdsLibrary lib;
    try {
        lib = layout::read_gds(cli.in);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error reading %s: %s\n", cli.in.c_str(), e.what());
        return 1;
    }
    if (lib.layers.count(cli.layer) == 0 || lib.layers[cli.layer].empty()) {
        std::fprintf(stderr, "no polygons on layer %d in %s\n", cli.layer, cli.in.c_str());
        return 1;
    }
    const std::vector<geo::Polygon>& targets = lib.layers[cli.layer];

    // Fragment.
    const bool via_style = cli.style == "via";
    std::vector<geo::Polygon> srafs;
    if (via_style) srafs = opc::insert_srafs(targets);
    geo::SegmentedLayout layout(
        targets,
        {via_style ? geo::FragmentStyle::kVia : geo::FragmentStyle::kMetal, 60}, srafs,
        cli.clip_nm);

    litho::LithoSim sim(core::Experiment::litho_config());
    opc::OpcOptions opt =
        via_style ? core::Experiment::via_options() : core::Experiment::metal_options();
    if (cli.iterations > 0) opt.max_iterations = cli.iterations;
    opt.objective = cli.reward_mode;

    // Select and run the engine.
    opc::EngineResult res;
    if (cli.engine == "rule") {
        opc::RuleEngine engine;
        res = engine.optimize(layout, sim, opt);
    } else if (cli.engine == "oneshot") {
        opc::OneShotEngine engine;
        res = engine.optimize(layout, sim, opt);
    } else {  // camo
        core::CamoConfig cfg = via_style ? core::Experiment::via_camo_config()
                                         : core::Experiment::metal_camo_config();
        cfg.train_workers = cli.train_workers;
        core::CamoEngine engine(cfg);
        const std::string tag = via_style ? "via" : "metal";
        const auto train =
            via_style
                ? core::fragment_via_clips(
                      layout::via_training_set(core::Experiment::kDatasetSeed))
                : core::fragment_metal_clips(
                      layout::metal_training_set(core::Experiment::kDatasetSeed, 5));
        core::ensure_trained(engine, train, sim, opt,
                             core::Experiment::weights_path(cfg, tag, cli.reward_mode));
        res = engine.optimize(layout, sim, opt);
    }

    std::printf("%d segments, %d iterations: sum|EPE| %.1f -> %.1f nm, PVB %.0f nm^2, %.2f s\n",
                layout.num_segments(), res.iterations, res.epe_history.front(),
                res.final_metrics.sum_abs_epe, res.final_metrics.pvband_nm2, res.runtime_s);
    if (cli.window || cli.reward_mode != rl::RewardMode::kNominal) {
        // Window-objective runs carry the final sweep for free; a plain
        // --window run sweeps the final mask at the standard window.
        const litho::WindowMetrics w =
            res.final_window ? *res.final_window
                             : sim.evaluate(layout, res.final_offsets,
                                            litho::WindowSpec::standard(sim.config()));
        std::printf("window (%s reward): worst|EPE| %.1f nm, exact PVB %.0f nm^2, "
                    "CD range %.0f nm^2\n",
                    rl::reward_mode_name(cli.reward_mode), w.worst_epe, w.pv_band_exact_nm2,
                    w.cd_range_nm2());
    }

    layout::GdsLibrary out;
    out.name = "CAMO_OPC";
    out.layers[1] = targets;
    if (!layout.srafs().empty()) out.layers[2] = layout.srafs();
    out.layers[10] = layout.reconstruct_mask(res.final_offsets);
    layout::write_gds(cli.out, out);
    std::printf("wrote %s (targets: layer 1%s, mask: layer 10)\n", cli.out.c_str(),
                layout.srafs().empty() ? "" : ", SRAFs: layer 2");
    write_obs_reports(cli.obs);
    return 0;
}
