#include "nn/grad_buffer.hpp"

#include <stdexcept>
#include <utility>

namespace camo::nn {
namespace {

std::vector<Tensor*> grads_of(const std::vector<Parameter*>& params) {
    std::vector<Tensor*> grads;
    grads.reserve(params.size());
    for (Parameter* p : params) grads.push_back(&p->grad);
    return grads;
}

}  // namespace

void GradBuffer::capture(std::span<Tensor* const> grads) {
    grads_.resize(grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
        Tensor& g = *grads[i];
        std::swap(grads_[i], g);
        if (g.shape() == grads_[i].shape()) {
            g.fill(0.0F);
        } else {
            g = Tensor(grads_[i].shape());
        }
    }
}

void GradBuffer::capture(const std::vector<Parameter*>& params) { capture(grads_of(params)); }

void GradBuffer::zeros_like(std::span<Tensor* const> grads) {
    grads_.clear();
    grads_.reserve(grads.size());
    for (const Tensor* g : grads) grads_.emplace_back(g->shape());
}

void GradBuffer::merge(const GradBuffer& other) {
    if (other.grads_.empty()) return;
    if (grads_.empty()) {
        grads_ = other.grads_;
        return;
    }
    if (grads_.size() != other.grads_.size()) {
        throw std::invalid_argument("GradBuffer::merge: parameter count mismatch");
    }
    for (std::size_t i = 0; i < grads_.size(); ++i) grads_[i].add_(other.grads_[i]);
}

void GradBuffer::add_to(const std::vector<Parameter*>& params) const {
    if (grads_.size() != params.size()) {
        throw std::invalid_argument("GradBuffer::add_to: parameter count mismatch");
    }
    for (std::size_t i = 0; i < params.size(); ++i) params[i]->grad.add_(grads_[i]);
}

void reduce_in_order(const std::vector<GradBuffer>& buffers, std::span<Tensor* const> grads,
                     const ForEachIndex& for_each) {
    std::vector<std::size_t> sizes;
    sizes.reserve(grads.size());
    for (const Tensor* g : grads) sizes.push_back(g->numel());
    for (const GradBuffer& b : buffers) {
        if (b.empty()) continue;
        if (b.size() != grads.size()) {
            throw std::invalid_argument("reduce_in_order: parameter count mismatch");
        }
        for (std::size_t i = 0; i < grads.size(); ++i) {
            if (b.grads()[i].numel() != sizes[i]) {
                throw std::invalid_argument("reduce_in_order: size mismatch");
            }
        }
    }
    const std::vector<ElementRange> ranges = element_ranges(sizes);
    for_each_index(for_each, static_cast<int>(ranges.size()), [&](int r) {
        const ElementRange& e = ranges[static_cast<std::size_t>(r)];
        float* dst = grads[e.index]->data().data();
        for (const GradBuffer& b : buffers) {
            if (b.empty()) continue;
            const float* src = b.grads()[e.index].data().data();
            for (std::size_t i = e.begin; i < e.end; ++i) dst[i] += src[i];
        }
    });
}

void reduce_in_order(const std::vector<GradBuffer>& buffers,
                     const std::vector<Parameter*>& params) {
    reduce_in_order(buffers, grads_of(params));
}

}  // namespace camo::nn
