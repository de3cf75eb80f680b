// Reproduces paper Table 1: via-layer OPC comparison of the DAMO proxy
// (one-shot), the Calibre proxy (rule engine), RL-OPC and CAMO across 13
// test clips (V1..V13, via counts 2-6), reporting EPE (nm), PV band (nm^2)
// and runtime (s) with Sum and Ratio rows.
//
// Measured at the default quick scale (weights trained from scratch), sum
// |EPE| nm / sum PVB nm^2:
//
//   DAMO-proxy 41 / 28112   Calibre-proxy 28 / 28224
//   RL-OPC    169 / 28224   CAMO         269 / 26752
//
// The paper's ordering is not reproduced: the rule engine has the lowest
// EPE and CAMO about 10x it; CAMO has the lowest PV band, about 5% below
// the others. The paper reports CAMO with the lowest EPE and PVB. README
// "Reproducing the paper" lists the measured causes (ROADMAP item N1).
#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "opc/one_shot.hpp"
#include "opc/rule_engine.hpp"
#include "table_format.hpp"

int main() {
    using namespace camo;
    set_log_level(LogLevel::kInfo);

    litho::LithoSim sim(core::Experiment::litho_config());
    const opc::OpcOptions opt = core::Experiment::via_options();

    // Engines. The rule engine runs its fixed recipe (no early exit), like
    // a commercial flow; the learned engines use the paper's early exit.
    opc::OneShotEngine damo_proxy;
    opc::RuleEngine calibre_proxy;

    const auto train_clips =
        core::fragment_via_clips(layout::via_training_set(core::Experiment::kDatasetSeed));

    const core::CamoConfig rl_cfg = core::Experiment::via_rlopc_config();
    core::CamoEngine rlopc(rl_cfg);
    core::ensure_trained(rlopc, train_clips, sim, opt,
                         core::Experiment::weights_path(rl_cfg, "via"));

    const core::CamoConfig camo_cfg = core::Experiment::via_camo_config();
    core::CamoEngine camo(camo_cfg);
    core::ensure_trained(camo, train_clips, sim, opt,
                         core::Experiment::weights_path(camo_cfg, "via"));

    const auto test = layout::via_test_set(core::Experiment::kDatasetSeed);
    const auto layouts = core::fragment_via_clips(test);

    bench::ResultTable table(
        "Table 1: OPC results on via layer patterns (EPE nm, PVB nm^2, RT s)",
        {"DAMO-proxy", "Calibre-proxy", "RL-OPC", "CAMO (ours)"}, "Via#");

    for (std::size_t i = 0; i < layouts.size(); ++i) {
        std::vector<bench::Cell> cells;
        for (opc::Engine* engine :
             std::initializer_list<opc::Engine*>{&damo_proxy, &calibre_proxy, &rlopc, &camo}) {
            const opc::EngineResult r = engine->optimize(layouts[i], sim, opt);
            cells.push_back({r.final_metrics.sum_abs_epe, r.final_metrics.pvband_nm2,
                             r.runtime_s});
        }
        table.add_row(test[i].name, static_cast<int>(test[i].targets.size()), cells);
        std::fprintf(stderr, "[table1] %s done\n", test[i].name.c_str());
    }
    table.print();
    return 0;
}
