#include "scenario/comparer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "common/file_io.hpp"
#include "common/json_mini.hpp"
#include "common/timer.hpp"
#include "core/camo.hpp"
#include "core/experiment.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "litho/simulator.hpp"
#include "opc/ilt.hpp"
#include "opc/one_shot.hpp"
#include "opc/rule_engine.hpp"
#include "runtime/batch.hpp"

namespace camo::scenario {
namespace {

// One double format for every JSON/golden emission: %.10g round-trips the
// deterministic batch metrics stably, so equal doubles always render to
// equal bytes (the fingerprint contract).
std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    out += "\"";
    return out;
}

opc::OpcOptions cell_opc_options(const Scenario& sc, rl::RewardMode mode, int max_iterations) {
    opc::OpcOptions o;
    o.max_iterations = max_iterations;
    o.initial_bias_nm = sc.style == Style::kVia ? 3 : 0;
    o.exit_epe_per_feature = sc.style == Style::kVia ? 4.0 : 0.0;
    o.exit_epe_per_point = sc.style == Style::kMetal ? 1.0 : 0.0;
    o.objective = mode;
    o.window = sc.window;
    return o;
}

CellResult reduce_cell(const std::string& scenario, const std::string& engine,
                       rl::RewardMode mode, const runtime::BatchResult& br) {
    CellResult cell;
    cell.scenario = scenario;
    cell.engine = engine;
    cell.reward = rl::reward_mode_name(mode);
    cell.clips = static_cast<int>(br.clips.size());
    cell.failed = br.failed;
    for (const runtime::ClipResult& c : br.clips) {
        if (!c.error.empty()) continue;
        cell.segments += c.segments;
        if (c.window) {
            const litho::CornerResult* nominal = c.window->nominal_corner();
            cell.epe += nominal != nullptr ? nominal->metrics.sum_abs_epe : c.final_epe;
            cell.worst_epe += c.window->worst_epe;
            cell.pvb_exact_nm2 += c.window->pv_band_exact_nm2;
            if (c.window->worst_corner >= 0) {
                const std::vector<double>& profile =
                    c.window->corners[static_cast<std::size_t>(c.window->worst_corner)]
                        .metrics.epe;
                double sq = 0.0;
                for (const double e : profile) sq += e * e;
                cell.epe_l2 += std::sqrt(sq);
            }
        } else {
            cell.epe += c.final_epe;
            cell.worst_epe += c.final_epe;
            cell.pvb_exact_nm2 += c.pvband_nm2;
        }
    }
    const int ok = cell.ok();
    if (ok > 0) {
        cell.epe /= ok;
        cell.worst_epe /= ok;
        cell.pvb_exact_nm2 /= ok;
        cell.epe_l2 /= ok;
    }
    cell.hit_rate = br.incremental_hit_rate();
    cell.wall_s = br.wall_s;
    cell.clip_runtime_s = br.sum_clip_runtime_s;
    return cell;
}

void append_cell_json(std::string& out, const CellResult& c, bool include_timing) {
    out += "    {\"scenario\": " + quoted(c.scenario);
    out += ", \"engine\": " + quoted(c.engine);
    out += ", \"reward\": " + quoted(c.reward);
    out += ", \"rank\": " + std::to_string(c.rank);
    out += ", \"clips\": " + std::to_string(c.clips);
    out += ", \"failed\": " + std::to_string(c.failed);
    out += ", \"segments\": " + std::to_string(c.segments);
    out += ", \"epe\": " + fmt(c.epe);
    out += ", \"worst_epe\": " + fmt(c.worst_epe);
    out += ", \"pvb_exact_nm2\": " + fmt(c.pvb_exact_nm2);
    out += ", \"epe_l2\": " + fmt(c.epe_l2);
    out += ", \"hit_rate\": " + fmt(c.hit_rate);
    if (include_timing) {
        out += ", \"wall_s\": " + fmt(c.wall_s);
        out += ", \"clip_runtime_s\": " + fmt(c.clip_runtime_s);
    }
    out += "}";
}

}  // namespace

std::string CompareResult::to_json(bool include_timing) const {
    std::string out = "{\n  \"schema\": \"camo-compare-v1\",\n";
    if (include_timing) {
        out += "  \"threads\": " + std::to_string(threads) + ",\n";
        out += "  \"wall_s\": " + fmt(wall_s) + ",\n";
    }
    out += "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        append_cell_json(out, cells[i], include_timing);
        out += i + 1 < cells.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string CompareResult::table() const {
    std::string out;
    std::string group;
    char line[200];
    for (const CellResult& c : cells) {
        const std::string key = c.scenario + " / " + c.reward;
        if (key != group) {
            group = key;
            out += "\n== " + key + " ==\n";
            std::snprintf(line, sizeof(line), "%-4s %-8s %10s %10s %12s %8s %6s %9s\n", "rank",
                          "engine", "epe", "worst_epe", "pvb_nm2", "epe_l2", "hit%", "clip_s");
            out += line;
        }
        std::snprintf(line, sizeof(line), "%-4d %-8s %10.2f %10.2f %12.0f %8.2f %6.1f %9.3f%s\n",
                      c.rank, c.engine.c_str(), c.epe, c.worst_epe, c.pvb_exact_nm2, c.epe_l2,
                      100.0 * c.hit_rate, c.clip_runtime_s,
                      c.failed > 0 ? "  [FAILED clips]" : "");
        out += line;
    }
    return out;
}

std::vector<CellBound> read_bounds(const std::string& json_text) {
    const json::Value doc = json::parse(json_text);
    const json::Value* schema = doc.find("schema");
    if (schema == nullptr || schema->string != "camo-compare-bounds-v1") {
        throw std::runtime_error("golden bounds: missing or wrong schema tag");
    }
    std::vector<CellBound> out;
    for (const json::Value& c : doc.at("cells").array) {
        CellBound b;
        b.scenario = c.at("scenario").string;
        b.engine = c.at("engine").string;
        b.reward = c.at("reward").string;
        b.max_epe = c.at("max_epe").number;
        b.max_worst_epe = c.at("max_worst_epe").number;
        b.max_pvb_exact_nm2 = c.at("max_pvb_exact_nm2").number;
        b.max_epe_l2 = c.at("max_epe_l2").number;
        out.push_back(std::move(b));
    }
    return out;
}

std::vector<std::string> check_bounds(const CompareResult& result,
                                      const std::vector<CellBound>& bounds) {
    std::vector<std::string> violations;
    for (const CellBound& b : bounds) {
        const std::string id = b.scenario + "/" + b.engine + "/" + b.reward;
        const CellResult* cell = nullptr;
        for (const CellResult& c : result.cells) {
            if (c.scenario == b.scenario && c.engine == b.engine && c.reward == b.reward) {
                cell = &c;
                break;
            }
        }
        if (cell == nullptr) {
            violations.push_back(id + ": cell missing from compare result");
            continue;
        }
        if (cell->failed > 0) {
            violations.push_back(id + ": " + std::to_string(cell->failed) + " clip(s) failed");
        }
        const auto check = [&](const char* metric, double value, double bound) {
            if (bound > 0.0 && value > bound) {
                violations.push_back(id + ": " + metric + " " + fmt(value) + " exceeds bound " +
                                     fmt(bound));
            }
        };
        check("epe", cell->epe, b.max_epe);
        check("worst_epe", cell->worst_epe, b.max_worst_epe);
        check("pvb_exact_nm2", cell->pvb_exact_nm2, b.max_pvb_exact_nm2);
        check("epe_l2", cell->epe_l2, b.max_epe_l2);
    }
    return violations;
}

std::string bounds_json(const CompareResult& result, double rel_slack, double abs_slack) {
    const auto bound = [&](double value, double abs) { return value * (1.0 + rel_slack) + abs; };
    std::string out = "{\n  \"schema\": \"camo-compare-bounds-v1\",\n";
    out += "  \"rel_slack\": " + fmt(rel_slack) + ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CellResult& c = result.cells[i];
        out += "    {\"scenario\": " + quoted(c.scenario);
        out += ", \"engine\": " + quoted(c.engine);
        out += ", \"reward\": " + quoted(c.reward);
        out += ", \"max_epe\": " + fmt(bound(c.epe, abs_slack));
        out += ", \"max_worst_epe\": " + fmt(bound(c.worst_epe, abs_slack));
        out += ", \"max_pvb_exact_nm2\": " + fmt(bound(c.pvb_exact_nm2, 100.0 * abs_slack));
        out += ", \"max_epe_l2\": " + fmt(bound(c.epe_l2, abs_slack));
        out += "}";
        out += i + 1 < result.cells.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::unique_ptr<core::CamoEngine> train_warm_policy(const std::string& name, Style style,
                                                    int clips, int epochs,
                                                    const litho::LithoConfig& litho,
                                                    const opc::OpcOptions& opt, bool rlopc) {
    core::CamoConfig cfg;
    cfg.name = name;
    cfg.seed = 7;
    cfg.teacher_biases = {3, 0};
    cfg.teacher_steps = 3;
    cfg.phase1_epochs = epochs;
    cfg.phase2_episodes = 0;
    cfg.train_workers = 1;
    if (rlopc) cfg = core::make_rlopc_config(cfg);
    auto engine = std::make_unique<core::CamoEngine>(cfg);

    std::vector<layout::Clip> train;
    train.reserve(static_cast<std::size_t>(std::max(0, clips)));
    for (int i = 0; i < clips; ++i) {
        Rng rng(derive_seed(0xC0FFEEULL, static_cast<std::uint64_t>(i)));
        layout::Clip clip;
        clip.name = name + "_train_" + std::to_string(i);
        clip.clip_nm = 1000;
        if (style == Style::kVia) {
            layout::ViaGenOptions vg;
            vg.clip_nm = 1000;
            vg.margin_nm = 200;
            vg.min_spacing_nm = 120;
            clip.targets = layout::generate_via_clip(2 + i % 3, rng, vg);
        } else {
            layout::MetalGenOptions mg;
            mg.clip_nm = 1000;
            clip.targets = layout::generate_metal_clip(24, rng, mg);
        }
        train.push_back(std::move(clip));
    }
    const std::vector<geo::SegmentedLayout> layouts =
        style == Style::kVia ? core::fragment_via_clips(train) : core::fragment_metal_clips(train);
    litho::LithoSim sim(litho);
    engine->train(layouts, sim, opt);
    return engine;
}

PolicyComparer::PolicyComparer(CompareOptions opt) : opt_(std::move(opt)) {}
PolicyComparer::~PolicyComparer() = default;

core::CamoEngine& PolicyComparer::trained_engine(const std::string& engine, Style style) {
    const std::string key = engine + "|" + style_name(style);
    const auto it = trained_.find(key);
    if (it != trained_.end()) return *it->second;

    // The same weights serve every reward mode: the comparer measures how
    // one policy holds up under each objective, not reward-specific
    // retraining.
    opc::OpcOptions topt;
    topt.max_iterations = opt_.max_iterations;
    topt.initial_bias_nm = style == Style::kVia ? 3 : 0;
    return *trained_
                .emplace(key, train_warm_policy(engine + "-cmp", style, opt_.train_clips,
                                                opt_.phase1_epochs, quick_litho(), topt,
                                                engine == "rlopc"))
                .first->second;
}

std::uint64_t scenario_batch_seed(std::uint64_t base, const std::string& name) {
    return derive_seed(base, fnv1a(kFnv1aShortBasis, name.data(), name.size()));
}

CompareResult PolicyComparer::run(int threads_override) {
    Timer wall;
    const int threads = threads_override > 0 ? threads_override : opt_.threads;
    Registry& reg = Registry::instance();
    const std::vector<std::string> scenario_names =
        opt_.scenarios.empty() ? reg.names() : opt_.scenarios;

    CompareResult result;
    result.threads = threads;
    for (const std::string& sname : scenario_names) {
        const Scenario sc = reg.get(sname);  // throws std::out_of_range when unknown
        const int nclips = opt_.clips > 0 ? opt_.clips : sc.default_clips;
        const std::vector<geo::SegmentedLayout> layouts = sc.layouts(nclips);
        std::vector<std::string> clip_names;
        clip_names.reserve(static_cast<std::size_t>(nclips));
        for (int i = 0; i < nclips; ++i) clip_names.push_back(sname + "_" + std::to_string(i));

        for (const rl::RewardMode mode : opt_.rewards) {
            runtime::BatchOptions bopt;
            bopt.threads = threads;
            bopt.seed = scenario_batch_seed(opt_.seed, sname);
            bopt.window = true;
            bopt.opc = cell_opc_options(sc, mode, opt_.max_iterations);
            runtime::BatchScheduler sched(sc.litho, bopt);

            std::vector<CellResult> group;
            for (const std::string& engine : opt_.engines) {
                runtime::BatchResult br;
                if (engine == "rule") {
                    br = sched.run_rule(layouts, {}, clip_names);
                } else if (engine == "oneshot") {
                    br = sched.run(
                        layouts,
                        [](const geo::SegmentedLayout& l, litho::LithoSim& sim,
                           const opc::OpcOptions& opt, std::uint64_t) {
                            opc::OneShotEngine e;
                            return e.optimize(l, sim, opt);
                        },
                        clip_names);
                } else if (engine == "camo" || engine == "rlopc") {
                    const core::CamoEngine& eng = trained_engine(engine, sc.style);
                    br = sched.run(
                        layouts,
                        [&eng](const geo::SegmentedLayout& l, litho::LithoSim& sim,
                               const opc::OpcOptions& opt, std::uint64_t) {
                            return eng.infer(l, sim, opt);
                        },
                        clip_names);
                } else if (engine == "ilt") {
                    const int ilt_iters = opt_.ilt_iterations;
                    br = sched.run(
                        layouts,
                        [ilt_iters](const geo::SegmentedLayout& l, litho::LithoSim& sim,
                                    const opc::OpcOptions& opt, std::uint64_t) {
                            opc::IltOptions io;
                            io.iterations = ilt_iters;
                            io.objective = opt.objective;
                            io.window = opt.window;
                            io.evaluate_window = true;
                            const opc::IltResult ir = opc::IltEngine(io).optimize(l, sim);
                            opc::EngineResult res;
                            res.final_metrics.sum_abs_epe = ir.sum_abs_epe;
                            res.final_metrics.pvband_nm2 =
                                ir.final_window ? ir.final_window->pv_band_exact_nm2 : 0.0;
                            res.iterations = ilt_iters;
                            res.runtime_s = ir.runtime_s;
                            res.final_window = ir.final_window;
                            return res;
                        },
                        clip_names);
                } else {
                    throw std::invalid_argument("unknown engine '" + engine +
                                                "' (known: rule, oneshot, camo, rlopc, ilt)");
                }
                group.push_back(reduce_cell(sname, engine, mode, br));
            }

            // Rank within the (scenario, reward) group: best worst-corner
            // EPE first, nominal EPE then the engine name break ties; cells
            // whose clips all failed sink to the bottom.
            std::vector<std::size_t> order(group.size());
            for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
            std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
                const CellResult& ca = group[a];
                const CellResult& cb = group[b];
                return std::make_tuple(ca.ok() == 0, ca.worst_epe, ca.epe, ca.engine) <
                       std::make_tuple(cb.ok() == 0, cb.worst_epe, cb.epe, cb.engine);
            });
            for (std::size_t r = 0; r < order.size(); ++r) {
                group[order[r]].rank = static_cast<int>(r) + 1;
            }
            for (const std::size_t i : order) result.cells.push_back(std::move(group[i]));
        }
    }
    result.wall_s = wall.seconds();
    return result;
}

}  // namespace camo::scenario
