// Ablations of the design choices called out in DESIGN.md:
//
//  A. Decision coordination: CAMO vs no-GNN vs no-RNN vs neither (RL-OPC
//     structure), each trained with a small equal budget, plus modulator
//     on/off at inference — isolating the paper's two correlation
//     mechanisms and the modulator (paper Section 4.4).
//  B. Lithography substrate: SOCS kernel-count sweep — EPE/PVB drift vs
//     the full-rank reference as the kernel budget shrinks.
//  C. Modulator exponent sweep (f(x) = k x^n + b).
//  D. Reward mode: nominal vs worst-corner vs weighted-corner objective at
//     an equal step budget — the nominal-vs-window rows behind the
//     window-aware reward (worst-corner |EPE| and exact PV band of the
//     final masks, judged through one shared dense sweep).
#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "core/modulator.hpp"
#include "opc/rule_engine.hpp"

namespace {

using namespace camo;

void coordination_ablation(litho::LithoSim& sim) {
    const opc::OpcOptions opt = core::Experiment::via_options();
    // Small equal budget for every variant: 4 training clips, two teacher
    // biases, 20 epochs — enough to rank the variants, cheap enough that
    // the whole ablation trains in under a minute per variant (cached).
    const auto all_train = layout::via_training_set(core::Experiment::kDatasetSeed);
    const auto train = core::fragment_via_clips(
        {all_train[0], all_train[3], all_train[6], all_train[9]});
    const auto test_clips = layout::via_test_set(core::Experiment::kDatasetSeed);
    const auto test = core::fragment_via_clips(
        {test_clips[0], test_clips[2], test_clips[4], test_clips[6]});

    struct Variant {
        const char* label;
        bool gnn;
        bool rnn;
    };
    const Variant variants[] = {{"GNN+RNN (CAMO)", true, true},
                                {"GNN only", true, false},
                                {"RNN only", false, true},
                                {"neither (RL-OPC arch)", false, false}};

    std::printf("\n=== Ablation A: decision coordination (4 via clips, equal small budget) ===\n");
    std::printf("%-24s %12s %12s %8s\n", "variant", "EPE(mod on)", "EPE(mod off)", "iters");

    for (const Variant& v : variants) {
        core::CamoConfig cfg = core::Experiment::via_camo_config();
        cfg.policy.use_gnn = v.gnn;
        cfg.policy.use_rnn = v.rnn;
        cfg.phase1_epochs = 20;  // equal reduced budget for all variants
        cfg.phase2_episodes = 1;
        cfg.teacher_biases = {3, 0};
        cfg.name = std::string("ablate-") + (v.gnn ? "g" : "") + (v.rnn ? "r" : "n");
        core::CamoEngine engine(cfg);
        core::ensure_trained(engine, train, sim, opt,
                             core::Experiment::weights_path(cfg, "via"));

        double epe_on = 0.0;
        double epe_off = 0.0;
        int iters = 0;
        for (const auto& layout : test) {
            engine.set_modulator_enabled(true);
            const auto r1 = engine.optimize(layout, sim, opt);
            engine.set_modulator_enabled(false);
            const auto r2 = engine.optimize(layout, sim, opt);
            epe_on += r1.final_metrics.sum_abs_epe;
            epe_off += r2.final_metrics.sum_abs_epe;
            iters += r1.iterations;
        }
        std::printf("%-24s %12.1f %12.1f %8d\n", v.label, epe_on, epe_off, iters);
    }
}

void kernel_count_ablation() {
    std::printf("\n=== Ablation B: SOCS kernel count (isolated via, +8 nm bias) ===\n");
    std::printf("%-8s %10s %12s %12s\n", "kernels", "EPE(nm)", "PVB(nm^2)", "energy");

    for (int k : {2, 4, 6, 8, 12}) {
        litho::LithoConfig cfg;
        cfg.grid = 256;
        cfg.pixel_nm = 4.0;
        cfg.kernels_nominal = k;
        cfg.kernels_defocus = std::max(2, k - 2);
        cfg.cache_dir = "";  // measure construction too; no cache pollution
        litho::LithoSim sim(cfg);

        const int clip = 1000;
        const int lo = clip / 2 - 35;
        geo::SegmentedLayout layout({geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})},
                                    {geo::FragmentStyle::kVia, 60}, {}, clip);
        const std::vector<int> bias(4, 8);
        const litho::SimMetrics m = sim.evaluate(layout, bias);

        const double trace = litho::tcc_trace(cfg, 0.0);
        const auto ks = sim.nominal_kernels();
        double captured = 0.0;
        for (double e : ks.eigenvalues) captured += e;
        std::printf("%-8d %10.2f %12.0f %11.1f%%\n", k, m.sum_abs_epe, m.pvband_nm2,
                    100.0 * captured / trace);
    }
}

void reward_mode_ablation(litho::LithoSim& sim) {
    std::printf("\n=== Ablation D: reward mode (rule engine, equal step budget) ===\n");
    std::printf("%-8s %-16s %12s %12s %14s %12s\n", "layer", "mode", "EPE(nom)", "EPE(worst)",
                "PVBexact", "CDrange");

    const auto via_clips = layout::via_test_set(core::Experiment::kDatasetSeed);
    const auto metal_clips = layout::metal_test_set(core::Experiment::kDatasetSeed);
    struct Layer {
        const char* name;
        std::vector<geo::SegmentedLayout> clips;
        opc::OpcOptions opt;
    };
    Layer layers[] = {
        {"via", core::fragment_via_clips({via_clips[0], via_clips[2]}),
         core::Experiment::via_options()},
        {"metal", core::fragment_metal_clips({metal_clips[0]}),
         core::Experiment::metal_options()},
    };
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim.config());

    const rl::RewardMode modes[] = {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner,
                                    rl::RewardMode::kWeightedCorner};
    for (const Layer& layer : layers) {
        for (rl::RewardMode mode : modes) {
            opc::OpcOptions opt = layer.opt;
            opt.exit_epe_per_feature = 0.0;  // equal budget: no early exit
            opt.exit_epe_per_point = 0.0;
            opt.objective = mode;

            double nominal_epe = 0.0;
            double worst_epe = 0.0;
            double pvb_exact = 0.0;
            double cd_range = 0.0;
            for (const auto& layout : layer.clips) {
                opc::RuleEngine engine({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
                litho::LithoSim run_sim(sim);  // private incremental cache per run
                const auto res = engine.optimize(layout, run_sim, opt);
                // Judge every mode's final mask through the same dense sweep.
                const litho::WindowMetrics judged = sim.evaluate(layout, res.final_offsets, spec);
                nominal_epe += judged.nominal_corner()->metrics.sum_abs_epe;
                worst_epe += judged.worst_epe;
                pvb_exact += judged.pv_band_exact_nm2;
                cd_range += judged.cd_range_nm2();
            }
            std::printf("%-8s %-16s %12.1f %12.1f %14.0f %12.0f\n", layer.name,
                        rl::reward_mode_name(mode), nominal_epe, worst_epe, pvb_exact,
                        cd_range);
        }
    }
}

void modulator_exponent_ablation() {
    std::printf("\n=== Ablation C: modulator exponent (peak preference vs EPE) ===\n");
    std::printf("%-6s", "EPE");
    for (int n : {2, 4, 6}) std::printf("   f=0.02x^%d+1", n);
    std::printf("\n");
    for (double epe : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        std::printf("%-6.1f", epe);
        for (int n : {2, 4, 6}) {
            core::ModulatorConfig cfg;
            cfg.n = n;
            const auto p = core::modulation_vector(epe, cfg);
            std::printf("   %12.4f", p[0]);
        }
        std::printf("\n");
    }
}

}  // namespace

int main() {
    set_log_level(LogLevel::kInfo);
    litho::LithoSim sim(core::Experiment::litho_config());
    coordination_ablation(sim);
    kernel_count_ablation();
    reward_mode_ablation(sim);
    modulator_exponent_ablation();
    return 0;
}
