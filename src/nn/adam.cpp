#include "nn/adam.hpp"

#include <cmath>

namespace camo::nn {

Adam::Adam(std::vector<Parameter*> params, Options opt) : params_(std::move(params)), opt_(opt) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    std::vector<std::size_t> sizes;
    for (Parameter* p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
        sizes.push_back(p->value.numel());
    }
    ranges_ = element_ranges(sizes);
}

void Adam::step(const ForEachIndex& for_each) {
    ++t_;
    float scale = 1.0F;
    if (opt_.clip_norm > 0.0F) {
        double norm2 = 0.0;
        for (Parameter* p : params_) {
            for (float g : p->grad.data()) norm2 += static_cast<double>(g) * g;
        }
        const double norm = std::sqrt(norm2);
        if (norm > opt_.clip_norm) scale = static_cast<float>(opt_.clip_norm / norm);
    }

    const auto t = static_cast<float>(t_);
    const float bc1 = 1.0F - std::pow(opt_.beta1, t);
    const float bc2 = 1.0F - std::pow(opt_.beta2, t);

    for_each_index(for_each, static_cast<int>(ranges_.size()), [&](int r) {
        const ElementRange& e = ranges_[static_cast<std::size_t>(r)];
        update(params_[e.index]->grad.data().data(), params_[e.index]->value.data().data(),
               m_[e.index].data().data(), v_[e.index].data().data(), e.begin, e.end, scale, bc1,
               bc2);
    });
}

void Adam::update(float* __restrict g, float* __restrict w, float* __restrict m,
                  float* __restrict v, std::size_t begin, std::size_t end, float scale, float bc1,
                  float bc2) const {
    // Locals, not opt_ fields, and restrict pointers: this loop vectorizes
    // (CMake builds this file with -fno-math-errno, so std::sqrt needs no
    // errno branch). Each element's arithmetic is the same in any lane.
    const float beta1 = opt_.beta1;
    const float beta2 = opt_.beta2;
    const float lr = opt_.lr;
    const float epsilon = opt_.epsilon;
    const float weight_decay = opt_.weight_decay;
    for (std::size_t i = begin; i < end; ++i) {
        const float gi = g[i] * scale;
        m[i] = beta1 * m[i] + (1.0F - beta1) * gi;
        v[i] = beta2 * v[i] + (1.0F - beta2) * gi * gi;
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        w[i] -= lr * (mhat / (std::sqrt(vhat) + epsilon) + weight_decay * w[i]);
        g[i] = 0.0F;
    }
}

void Adam::zero_grad() {
    for (Parameter* p : params_) p->zero_grad();
}

}  // namespace camo::nn
