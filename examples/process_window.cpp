// Process-window analysis: how the printed CD of a corrected via moves
// across dose and focus corners — the robustness view behind the paper's
// PV-band metric. Uses the window overload of LithoSim::evaluate, which
// rasterizes the mask once and images every corner from one shared spectrum
// (one aerial per focus plane), instead of re-imaging per corner by hand.
//
// Build & run:  ./build/examples/process_window
#include <cstdio>

#include "core/experiment.hpp"
#include "opc/rule_engine.hpp"

int main() {
    using namespace camo;

    litho::LithoSim sim(core::Experiment::litho_config());
    const auto clips = layout::via_test_set(core::Experiment::kDatasetSeed);
    const auto layouts = core::fragment_via_clips({clips[0]});
    const geo::SegmentedLayout& layout = layouts[0];

    // OPC first, then sweep corners on the corrected mask.
    opc::RuleEngine engine;
    const opc::EngineResult res = engine.optimize(layout, sim, core::Experiment::via_options());

    litho::WindowSpec spec;
    spec.doses = {0.96, 0.98, 1.00, 1.02, 1.04};
    spec.defocus_nm = {0.0, sim.config().defocus_nm};
    const litho::WindowMetrics window = sim.evaluate(layout, res.final_offsets, spec);

    std::printf("process window for %s after OPC (printed area in 1e3 nm^2):\n",
                clips[0].name.c_str());
    std::printf("%-10s %12s %12s\n", "dose\\focus", "best focus", "defocus");
    for (int d = 0; d < spec.dose_count(); ++d) {
        const auto& best = window.corners[static_cast<std::size_t>(d)];
        const auto& defoc = window.corners[static_cast<std::size_t>(spec.dose_count() + d)];
        std::printf("%-10.2f %12.1f %12.1f\n", best.corner.dose,
                    best.printed_area_nm2 / 1000.0, defoc.printed_area_nm2 / 1000.0);
    }

    const litho::Corner worst = spec.corner(window.worst_corner);
    std::printf("worst corner: dose %.2f @ defocus %.0f nm, sum|EPE| %.1f nm\n", worst.dose,
                worst.defocus_nm, window.worst_epe);
    std::printf("exact PV band over all %d corners: %.0f nm^2 "
                "(two-corner approximation: %.0f nm^2)\n",
                spec.corner_count(), window.pv_band_exact_nm2,
                window.pv_band_two_corner_nm2);
    std::printf("printed area must grow with dose and shrink with defocus; the\n");
    std::printf("PV band is the area between the outermost and innermost contours.\n");
    return 0;
}
