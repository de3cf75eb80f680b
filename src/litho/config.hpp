// Optical and numerical configuration of the lithography simulator.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace camo::litho {

/// Two focus values denote the same physical plane when they differ by less
/// than this (used to resolve window-spec planes onto the standard kernel
/// sets; far tighter than the registry's 1e-3 nm focus-key quantization).
inline constexpr double kFocusMatchTolNm = 1e-6;

/// How LithoSim::evaluate_incremental treats the simulator's per-instance
/// cache. kPrime rebuilds it from scratch — a clip's first evaluation, so a
/// job's results never depend on what the simulator evaluated before.
/// kUpdate brings it up to date with the segments whose offsets changed
/// since the previous call (found by comparing against the cached offsets).
enum class Refresh { kPrime, kUpdate };

/// Immersion ArF scanner model with annular illumination and a constant
/// threshold resist. Process window corners are (dose_max, best focus) for
/// the outermost printed contour and (dose_min, defocus_nm) for the
/// innermost one, following the ICCAD-2013 contest convention.
struct LithoConfig {
    double wavelength_nm = 193.0;
    double na = 1.35;
    double sigma_in = 0.6;   ///< annular source inner partial coherence
    double sigma_out = 0.9;  ///< annular source outer partial coherence

    int grid = 512;          ///< raster size (power of two)
    double pixel_nm = 4.0;   ///< raster pixel pitch

    int kernels_nominal = 8;  ///< SOCS kernels kept at best focus
    int kernels_defocus = 6;  ///< SOCS kernels kept at the defocus corner
    double defocus_nm = 25.0;

    double dose_min = 0.98;
    double dose_max = 1.02;

    /// Resist threshold relative to open-frame intensity. Zero requests
    /// auto-calibration: the threshold is set to the aerial intensity at the
    /// edge midpoint of a large isolated square, so large features print
    /// true to size and sub-resolution features under-print, which is the
    /// regime OPC operates in.
    double threshold = 0.0;

    /// Calibration feature size used when threshold == 0.
    int calibration_feature_nm = 600;

    /// Dose-to-size tuning: the calibrated threshold is this fraction of the
    /// measured large-feature edge intensity. 0.6 makes a 70 nm via print
    /// close to target with the paper's +3 nm initial bias while wide wires
    /// print within a few nm of target — the regime the OPC engines operate
    /// in (analogous to the ICCAD-2013 contest's fixed 0.225 threshold).
    double calibration_fraction = 0.6;

    /// Half-range of the EPE line search along the measure-point normal; EPE
    /// is clamped to +/- this value when no contour crossing is found.
    double epe_range_nm = 20.0;

    /// A Refresh::kUpdate evaluation falls back to a full rebuild when more
    /// than this fraction of the segments moved since the previous call (the
    /// sparse delta-DFT stops paying off). Not part of the physics hash.
    double incremental_fallback_fraction = 0.3;

    /// Directory for the SOCS kernel cache ("" disables caching).
    std::string cache_dir = "data";

    [[nodiscard]] double clip_span_nm() const { return grid * pixel_nm; }

    /// Offset that centres a clip of `clip_size_nm` in the simulation frame.
    /// The one copy of this arithmetic: LithoSim, the incremental evaluator
    /// and the process-window sweep all offset through it, which the
    /// bit-identical nominal-corner guarantee depends on.
    [[nodiscard]] int clip_frame_offset_nm(int clip_size_nm) const {
        return static_cast<int>((clip_span_nm() - clip_size_nm) / 2.0);
    }

    /// Stable hash of every physics- and grid-affecting field, used to key
    /// the kernel cache.
    [[nodiscard]] std::uint64_t physics_hash() const;
};

/// Conservative optical interaction radius in nanometers: beyond roughly
/// 1.5 lambda/NA (a few Airy rings of the partially coherent PSF) a
/// feature's influence on the aerial image is negligible for the SOCS model
/// used here. The tile sharder (layout/shard.hpp) requires its halo to be at
/// least this wide so every seam segment keeps its full optical context;
/// shrinking the halo below it is rejected rather than silently producing
/// seam artifacts.
[[nodiscard]] inline int interaction_radius_nm(const LithoConfig& cfg) {
    return static_cast<int>(std::ceil(1.5 * cfg.wavelength_nm / cfg.na));
}

}  // namespace camo::litho
