// Adam optimizer: the trainer's one optimizer.
//
// The paper trains with plain SGD (lr 3e-4, 500 epochs, GPU). On a CPU
// budget the same architecture trains an order of magnitude faster under
// Adam because the discriminative gradient component — tiny next to the
// common mode in imitation data — is rescaled per parameter. CamoEngine
// steps with Adam only (lr 1e-3, tens of epochs at the quick scale).
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace camo::nn {

class Adam {
public:
    struct Options {
        float lr = 1e-3F;
        float beta1 = 0.9F;
        float beta2 = 0.999F;
        float epsilon = 1e-8F;
        float clip_norm = 0.0F;    ///< global gradient-norm bound; 0 disables
        float weight_decay = 0.0F; ///< decoupled (AdamW-style)
    };

    Adam(std::vector<Parameter*> params, Options opt);

    /// One update from accumulated gradients; zeroes them afterwards. The
    /// clip-norm sum is one serial double chain over every gradient element
    /// in parameter order (it sets the bits of the clip scale); the
    /// per-element update then runs by element range through `for_each`
    /// (serial when empty), the same arithmetic on every element whichever
    /// thread runs it.
    void step(const ForEachIndex& for_each = {});

    void zero_grad();

    [[nodiscard]] const Options& options() const { return opt_; }

private:
    /// The update of elements [begin, end) of one parameter.
    void update(float* __restrict g, float* __restrict w, float* __restrict m,
                float* __restrict v, std::size_t begin, std::size_t end, float scale, float bc1,
                float bc2) const;

    std::vector<Parameter*> params_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
    std::vector<ElementRange> ranges_;  ///< the update's units of work
    Options opt_;
    long long t_ = 0;
};

}  // namespace camo::nn
