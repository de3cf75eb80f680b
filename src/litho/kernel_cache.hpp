// Disk cache for SOCS kernel sets. Building the TCC and extracting kernels
// takes seconds at production grid sizes; the cache keys on a hash of every
// physics-affecting configuration field so stale entries are never reused.
#pragma once

#include <optional>
#include <string>

#include "litho/config.hpp"
#include "litho/tcc.hpp"

namespace camo::litho {

struct CachedKernels {
    KernelSet nominal;
    KernelSet defocus;
    double threshold = 0.0;
};

/// Path of the cache entry for this configuration.
std::string kernel_cache_path(const LithoConfig& cfg);

/// Load a cache entry; nullopt when missing or malformed: truncated, with
/// trailing bytes, a count larger than the bytes left, a non-positive or
/// non-finite threshold, a set without kernels, a coefficient count that
/// differs from the size of tcc_support_freqs(cfg), or a payload that does
/// not match its FNV-1a seal (a flipped bit anywhere). The file stores no
/// support: both loaded sets carry tcc_support_freqs(cfg), the support every
/// kernel set of cfg is built on. The kernel registry rebuilds the kernels
/// on a miss.
std::optional<CachedKernels> load_kernel_cache(const LithoConfig& cfg);

/// Store a cache entry (format version 6: threshold, then per set its
/// eigenvalues and coefficients in support order), sealed with an FNV-1a
/// footer over its payload (creates the cache directory if needed). No-op
/// when cfg.cache_dir is empty.
void store_kernel_cache(const LithoConfig& cfg, const CachedKernels& kernels);

}  // namespace camo::litho
