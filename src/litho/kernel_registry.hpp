// Process-wide, thread-safe SOCS kernel sharing.
//
// Building a kernel set (TCC assembly + eigendecomposition + threshold
// calibration) takes seconds at production grid sizes, and the result is
// immutable. The registry guarantees build-once/read-many semantics: the
// first acquire_kernels() call for a configuration builds (or loads from the
// disk cache) the kernels while concurrent callers for the same
// configuration block on the in-flight build; every later call returns the
// shared immutable applicators without locking beyond a map lookup. This is
// what lets the batch runtime construct one cheap LithoSim per worker.
#pragma once

#include <memory>

#include "litho/aerial.hpp"
#include "litho/config.hpp"

namespace camo::litho {

/// Immutable, shareable kernel state for one lithography configuration.
struct SharedKernels {
    std::shared_ptr<const KernelApplicator> nominal;
    std::shared_ptr<const KernelApplicator> defocus;
    double threshold = 0.0;  ///< calibrated (or configured) resist threshold
};

/// Acquire the shared kernels for `cfg`, building them exactly once per
/// process per physics configuration. Thread-safe. Falls back to the disk
/// cache before computing; persists freshly computed kernels when
/// cfg.cache_dir is set. Build failures propagate to every waiting caller
/// and the entry is dropped so a later call can retry.
SharedKernels acquire_kernels(const LithoConfig& cfg);

/// Acquire the shared kernel applicator for one focus plane of `cfg`. The
/// two standard planes (0 and cfg.defocus_nm, within 1e-6 nm) resolve to the
/// acquire_kernels() sets without building anything; every other defocus is
/// rounded to 1e-3 nm and builds a SOCS kernel set at that rounded defocus
/// once per process (so a plane's kernels depend only on the rounded
/// value, whichever caller came first), with the kernel count
/// interpolated between kernels_nominal and kernels_defocus by
/// |defocus| / cfg.defocus_nm (clamped; defocused TCCs concentrate energy in
/// fewer kernels, so intermediate planes need an intermediate count).
/// Extra planes are registry-resident only — they are not written to the
/// disk cache. Thread-safe with the same build-once semantics as
/// acquire_kernels.
std::shared_ptr<const KernelApplicator> acquire_focus_applicator(const LithoConfig& cfg,
                                                                 double defocus_nm);

/// Kernel count used by acquire_focus_applicator for an extra focus plane.
int interpolated_kernel_count(const LithoConfig& cfg, double defocus_nm);

/// Drop every in-memory entry (test hook). Outstanding SharedKernels remain
/// valid: entries are reference-counted, not owned by the registry alone.
void clear_kernel_registry();

}  // namespace camo::litho
