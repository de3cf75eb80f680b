#include "litho/kernel_cache.hpp"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <system_error>

#include "common/file_io.hpp"

namespace camo::litho {
namespace {

constexpr std::uint32_t kMagic = 0x434B524EU;  // "CKRN"
// Version 3 ends in an FNV-1a seal over everything before it. Version 4
// holds the same layout for kernels built through the sparse TCC operator:
// they differ from the dense solver's at rounding level, so a version 3
// entry would make a cached run differ in bits from a fresh build. Version 5
// drops each set's support list: every set of a configuration is supported
// on tcc_support_freqs(cfg), so the reader derives it. Version 6 holds the
// same layout with the threshold calibrated through the band-limited
// applicator; it differs from version 5's dense one at rounding level.
constexpr std::uint32_t kVersion = 6;

void write_kernel_set(BinaryWriter& w, const KernelSet& ks) {
    w.write_u64(ks.eigenvalues.size());
    for (double e : ks.eigenvalues) w.write_f64(e);
    for (const auto& coeff : ks.coeffs) {
        w.write_u64(coeff.size());
        for (const auto& c : coeff) {
            w.write_f32(c.real());
            w.write_f32(c.imag());
        }
    }
}

// A kernel set as write_kernel_set stored it over `support`, or nullopt when
// the bytes cannot be one. The applicators index kernel coefficients by
// support position, so a set must carry at least one kernel and one
// coefficient per support entry per kernel. Every count is checked before it
// sizes a vector.
std::optional<KernelSet> read_kernel_set(BinaryReader& r, const std::vector<FreqIndex>& support) {
    KernelSet ks;
    ks.support = support;
    const std::uint64_t ne = r.read_u64();
    if (ne == 0 || ne > r.remaining() / sizeof(double)) return std::nullopt;
    ks.eigenvalues.resize(ne);
    for (auto& e : ks.eigenvalues) e = r.read_f64();
    ks.coeffs.resize(ne);
    for (auto& coeff : ks.coeffs) {
        if (r.read_u64() != support.size()) return std::nullopt;
        coeff.resize(support.size());
        for (auto& c : coeff) {
            const float re = r.read_f32();
            const float im = r.read_f32();
            c = {re, im};
        }
    }
    return ks;
}

}  // namespace

std::string kernel_cache_path(const LithoConfig& cfg) {
    return cfg.cache_dir + "/kernels_" + std::to_string(cfg.physics_hash()) + ".bin";
}

std::optional<CachedKernels> load_kernel_cache(const LithoConfig& cfg) {
    if (cfg.cache_dir.empty()) return std::nullopt;
    const std::string path = kernel_cache_path(cfg);
    if (!file_exists(path)) return std::nullopt;
    try {
        BinaryReader r(path);
        if (r.read_u32() != kMagic || r.read_u32() != kVersion) return std::nullopt;
        const double threshold = r.read_f64();
        if (!(threshold > 0.0) || !std::isfinite(threshold)) return std::nullopt;
        const std::vector<FreqIndex> support = tcc_support_freqs(cfg);
        std::optional<KernelSet> nominal = read_kernel_set(r, support);
        if (!nominal) return std::nullopt;
        std::optional<KernelSet> defocus = read_kernel_set(r, support);
        if (!defocus) return std::nullopt;
        const std::uint64_t seal = r.hash();
        if (r.read_u64() != seal || !r.at_end()) return std::nullopt;
        return CachedKernels{std::move(*nominal), std::move(*defocus), threshold};
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

void store_kernel_cache(const LithoConfig& cfg, const CachedKernels& kernels) {
    if (cfg.cache_dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.cache_dir, ec);
    if (ec) return;

    // Write to a process-unique temp file, then rename into place: rename is
    // atomic on POSIX, so two concurrent first-runs can never interleave
    // writes into one corrupt cache entry — the loser simply overwrites the
    // winner with identical content.
    const std::string path = kernel_cache_path(cfg);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid()));
    {
        BinaryWriter w(tmp);
        w.write_u32(kMagic);
        w.write_u32(kVersion);
        w.write_f64(kernels.threshold);
        write_kernel_set(w, kernels.nominal);
        write_kernel_set(w, kernels.defocus);
        w.write_u64(w.hash());
        if (!w.ok()) {
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace camo::litho
