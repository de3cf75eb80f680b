// Detached gradient buffers for data-parallel training.
//
// A GradBuffer is a shadow copy of the accumulated gradients of a parameter
// list. The data-parallel trainer gives every minibatch sample its own
// buffer: a worker replica runs forward/backward with zeroed grads, then
// capture() moves the per-sample gradient out of the replica, and
// reduce_in_order() folds the buffers into the master parameters in
// canonical sample order before the optimizer step.
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

#include <vector>

#include "nn/tensor.hpp"

namespace camo::nn {

class GradBuffer {
public:
    GradBuffer() = default;

    /// Move the accumulated gradients out of `params` into this buffer
    /// (replacing any previous contents) and zero the parameters' grads,
    /// leaving them ready for the next backward pass.
    void capture(const std::vector<Parameter*>& params);

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
/// Empty buffers (skipped samples) are ignored.
void reduce_in_order(const std::vector<GradBuffer>& buffers,
                     const std::vector<Parameter*>& params);

}  // namespace camo::nn
