// Layer abstraction with an explicit activation tape.
//
// Layers hold only parameters; all per-call activations live on a
// caller-owned Tape. This lets one set of shared weights (e.g. the CNN
// encoder applied to every graph node) run many forwards before any
// backward, with gradients accumulating into Parameter::grad until the
// optimizer consumes them — exactly the dataflow REINFORCE over a segment
// graph needs.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/tensor.hpp"

namespace camo::nn {

/// A learnable tensor with its accumulated gradient.
struct Parameter {
    Tensor value;
    Tensor grad;

    explicit Parameter(std::vector<int> shape) : value(shape), grad(shape) {}

    void zero_grad() { grad.fill(0.0F); }
};

/// LIFO activation storage. forward() pushes, backward() pops; a layer must
/// pop exactly what it pushed, in reverse order.
class Tape {
public:
    void push(Tensor t) { stack_.push_back(std::move(t)); }

    Tensor pop() {
        if (stack_.empty()) throw std::logic_error("Tape::pop on empty tape");
        Tensor t = std::move(stack_.back());
        stack_.pop_back();
        return t;
    }

    [[nodiscard]] bool empty() const { return stack_.empty(); }
    [[nodiscard]] std::size_t size() const { return stack_.size(); }
    void clear() { stack_.clear(); }

private:
    std::vector<Tensor> stack_;
};

class Layer {
public:
    virtual ~Layer() = default;

    /// forward() is const: it reads parameters and pushes activations onto
    /// the caller-owned tape, never mutating layer state. This is the
    /// thread-safety contract the batch runtime relies on — one set of
    /// weights may run concurrent forwards as long as each caller owns its
    /// own Tape.
    virtual Tensor forward(const Tensor& x, Tape& tape) const = 0;

    /// Propagate grad_out to the input gradient; parameter gradients are
    /// *accumulated* into params()[i]->grad.
    ///
    /// Accumulation contract: one backward() call adds exactly ONE value per
    /// parameter element (the per-call gradient is computed into a local
    /// buffer and folded in with a single addition). Capturing each call
    /// into a detached buffer (nn/grad_buffer.hpp) and reducing the buffers
    /// in call order then reproduces direct shared-buffer accumulation bit
    /// for bit — float addition is not associative, so interleaving a
    /// call's partial sums with the shared buffer would round differently.
    /// Note the granularity: the equality is per backward() CALL. A trainer
    /// sample that feeds a shared weight several times (e.g. the policy's
    /// CNN encoder, once per graph node) makes its per-sample buffer a partial
    /// sum, which is why the data-parallel trainer uses the buffered path
    /// at every worker count rather than treating serial direct
    /// accumulation as equivalent.
    virtual Tensor backward(const Tensor& grad_out, Tape& tape) = 0;

    virtual std::vector<Parameter*> params() { return {}; }
};

/// Collect the parameters of several layers/modules into one flat list.
template <typename... Modules>
std::vector<Parameter*> collect_params(Modules&... modules) {
    std::vector<Parameter*> out;
    (
        [&out](auto& m) {
            auto p = m.params();
            out.insert(out.end(), p.begin(), p.end());
        }(modules),
        ...);
    return out;
}

}  // namespace camo::nn
