// Detached gradient buffers for data-parallel training.
//
// A GradBuffer is a shadow copy of the accumulated gradients of a parameter
// list. The data-parallel trainer gives every minibatch sample its own
// buffer: a worker replica runs forward/backward with zeroed grads, then
// capture() swaps the per-sample gradient's storage out of the replica (no
// copy), and reduce_in_order() folds the buffers into the master
// parameters in canonical sample order before the optimizer step.
//
// Reduction order is the whole contract. Float addition is not associative,
// so a balanced-tree or per-worker-chunk reduction would round differently
// and make results depend on the worker count; the fixed left fold makes
// the reduced result a pure function of the per-sample buffers in canonical
// order. Two scopes of bitwise equality follow:
//   * per backward CALL: a backward that adds exactly one value per
//     parameter element per call (each of the reference layers in
//     tests/nn_reference_layers.hpp sums into zeroed locals and folds them
//     in once) makes capturing each call into its own buffer and folding in
//     call order reproduce direct shared-buffer accumulation to 0 ULP
//     (pinned by the GradReduce suite in tests/test_nn_training.cpp);
//   * per SAMPLE: one trainer sample adds many terms per shared weight
//     (one per graph node for the CNN encoder), so a per-sample buffer is
//     a partial sum that direct shared-buffer accumulation would interleave
//     differently across samples. The trainer therefore runs THIS buffered
//     path at every worker count — including 1 — as the one canonical
//     semantics; do not "optimize" the serial case into direct
//     accumulation, or results would diverge between worker counts.
#pragma once

#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace camo::nn {

class GradBuffer {
public:
    GradBuffer() = default;

    /// Take the accumulated gradients out of `grads` without copying them:
    /// each tensor's storage is swapped with this buffer's, and the storage
    /// swapped in (the previous capture's, reused, or a new tensor on the
    /// first capture) is zeroed, leaving the grads ready for the next
    /// backward pass. A buffer kept across minibatches therefore allocates
    /// only once.
    void capture(std::span<Tensor* const> grads);
    /// The same over each parameter's grad.
    void capture(const std::vector<Parameter*>& params);

    /// Zeroed storage shaped like `grads`, so the next capture() only swaps.
    void zeros_like(std::span<Tensor* const> grads);

    /// Pairwise merge: this += other, elementwise. Shapes must match.
    void merge(const GradBuffer& other);

    /// Fold this buffer into the parameters' grads: one addition per
    /// element. Shapes must match the captured list.
    void add_to(const std::vector<Parameter*>& params) const;

    [[nodiscard]] bool empty() const { return grads_.empty(); }
    [[nodiscard]] std::size_t size() const { return grads_.size(); }
    [[nodiscard]] const std::vector<Tensor>& grads() const { return grads_; }

private:
    std::vector<Tensor> grads_;
};

/// Fixed-order reduction: folds buffers[0], buffers[1], ... into the
/// parameters' grads in index order. With params' grads starting at zero
/// this computes the canonical left fold (((b0 + b1) + b2) + ...) — the same
/// expression tree as serial single-buffer accumulation, so the result is
/// independent of how the buffers were computed (thread count, scheduling).
/// Empty buffers (skipped samples) are ignored. The work is split by element
/// range through `for_each` (serial when empty): every element still takes
/// its additions from buffers 0, 1, 2, ... in order, so the split never
/// shows in the bits.
void reduce_in_order(const std::vector<GradBuffer>& buffers, std::span<Tensor* const> grads,
                     const ForEachIndex& for_each = {});
/// The same over each parameter's grad, serially.
void reduce_in_order(const std::vector<GradBuffer>& buffers,
                     const std::vector<Parameter*>& params);

}  // namespace camo::nn
