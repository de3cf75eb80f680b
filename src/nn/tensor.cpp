#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace camo::nn {

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
    std::size_t n = 1;
    for (int d : shape_) {
        if (d <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
        n *= static_cast<std::size_t>(d);
    }
    data_.assign(n, 0.0F);
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::add_(const Tensor& other) {
    if (other.numel() != numel()) throw std::invalid_argument("Tensor::add_: size mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
    if (other.numel() != numel()) throw std::invalid_argument("Tensor::axpy_: size mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Tensor::scale_(float alpha) {
    for (float& v : data_) v *= alpha;
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
    Tensor t(std::move(shape));
    if (t.numel() != numel()) throw std::invalid_argument("Tensor::reshaped: numel mismatch");
    std::copy(data_.begin(), data_.end(), t.data_.begin());
    return t;
}

float Tensor::sum() const {
    float s = 0.0F;
    for (float v : data_) s += v;
    return s;
}

float Tensor::abs_max() const {
    float m = 0.0F;
    for (float v : data_) m = std::max(m, std::abs(v));
    return m;
}

void for_each_index(const ForEachIndex& for_each, int n, const std::function<void(int)>& fn) {
    if (for_each) {
        for_each(n, fn);
    } else {
        for (int i = 0; i < n; ++i) fn(i);
    }
}

std::vector<ElementRange> element_ranges(std::span<const std::size_t> sizes) {
    constexpr std::size_t chunk = std::size_t{1} << 15;
    std::vector<ElementRange> out;
    for (std::size_t t = 0; t < sizes.size(); ++t) {
        const std::size_t n = sizes[t];
        for (std::size_t b = 0; b < n; b += chunk) out.push_back({t, b, std::min(n, b + chunk)});
    }
    return out;
}

}  // namespace camo::nn
