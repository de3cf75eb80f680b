#include "litho/optics.hpp"

#include <cmath>
#include <numbers>

#include "common/file_io.hpp"

namespace camo::litho {
namespace {

// Frequency of one lattice step, cycles per nm.
double freq_step(const LithoConfig& cfg) { return 1.0 / (cfg.grid * cfg.pixel_nm); }

double lattice_radius(const LithoConfig& cfg, FreqIndex f) {
    return std::hypot(static_cast<double>(f.kx), static_cast<double>(f.ky)) * freq_step(cfg);
}

}  // namespace

std::uint64_t LithoConfig::physics_hash() const {
    // FNV-1a over the fields that change the cached kernels, each as a double.
    const auto hash = [](auto... vals) {
        std::uint64_t h = kFnv1aBasis;
        for (const double v : {static_cast<double>(vals)...}) h = fnv1a(h, &v, sizeof v);
        return h;
    };
    return hash(wavelength_nm, na, sigma_in, sigma_out, grid, pixel_nm, kernels_nominal,
               kernels_defocus, defocus_nm, threshold, calibration_feature_nm,
               calibration_fraction, /*version=*/4.0);
}

std::vector<SourcePoint> sample_annular_source(const LithoConfig& cfg) {
    const double na_freq = cfg.na / cfg.wavelength_nm;  // pupil-edge frequency
    const double r_out = cfg.sigma_out * na_freq / freq_step(cfg);
    const double r_in = cfg.sigma_in * na_freq / freq_step(cfg);
    const int bound = static_cast<int>(std::ceil(r_out));

    std::vector<SourcePoint> pts;
    for (int ky = -bound; ky <= bound; ++ky) {
        for (int kx = -bound; kx <= bound; ++kx) {
            const double r = std::hypot(static_cast<double>(kx), static_cast<double>(ky));
            if (r <= r_out && r >= r_in) pts.push_back({{kx, ky}, 1.0});
        }
    }
    if (pts.empty()) pts.push_back({{0, 0}, 1.0});  // degenerate tiny-grid fallback
    const double w = 1.0 / static_cast<double>(pts.size());
    for (SourcePoint& p : pts) p.weight = w;
    return pts;
}

std::complex<double> pupil_value(const LithoConfig& cfg, FreqIndex f, double defocus_nm) {
    const double r = lattice_radius(cfg, f);
    const double cutoff = cfg.na / cfg.wavelength_nm;
    if (r > cutoff) return {0.0, 0.0};
    if (defocus_nm == 0.0) return {1.0, 0.0};
    const double phase = -std::numbers::pi * cfg.wavelength_nm * defocus_nm * r * r;
    return std::polar(1.0, phase);
}

int tcc_support_radius(const LithoConfig& cfg) {
    const double cutoff = (1.0 + cfg.sigma_out) * cfg.na / cfg.wavelength_nm;
    return static_cast<int>(std::ceil(cutoff / freq_step(cfg)));
}

std::vector<FreqIndex> tcc_support_freqs(const LithoConfig& cfg) {
    const double cutoff = (1.0 + cfg.sigma_out) * cfg.na / cfg.wavelength_nm;
    const int bound = tcc_support_radius(cfg);
    std::vector<FreqIndex> freqs;
    for (int ky = -bound; ky <= bound; ++ky) {
        for (int kx = -bound; kx <= bound; ++kx) {
            if (lattice_radius(cfg, {kx, ky}) <= cutoff) freqs.push_back({kx, ky});
        }
    }
    return freqs;
}

}  // namespace camo::litho
