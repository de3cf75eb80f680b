// Dense row-major float tensor. Small and deliberately simple: the CAMO
// policy networks are tiny by deep-learning standards, so clarity and
// testability win over kernel-level optimization.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace camo::nn {

class Tensor {
public:
    Tensor() = default;
    explicit Tensor(std::vector<int> shape);

    static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

    [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
    [[nodiscard]] int dim(int i) const { return shape_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }
    [[nodiscard]] std::size_t numel() const { return data_.size(); }
    [[nodiscard]] bool empty() const { return data_.empty(); }

    [[nodiscard]] std::span<float> data() { return data_; }
    [[nodiscard]] std::span<const float> data() const { return data_; }

    float& operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /// Indexed access for ranks 2..4 (row-major).
    float& at(int i, int j) { return data_[flat(i, j)]; }
    [[nodiscard]] float at(int i, int j) const { return data_[flat(i, j)]; }
    float& at(int i, int j, int k) { return data_[flat(i, j, k)]; }
    [[nodiscard]] float at(int i, int j, int k) const { return data_[flat(i, j, k)]; }
    float& at(int i, int j, int k, int l) { return data_[flat(i, j, k, l)]; }
    [[nodiscard]] float at(int i, int j, int k, int l) const { return data_[flat(i, j, k, l)]; }

    void fill(float v);
    void add_(const Tensor& other);          ///< elementwise +=
    void axpy_(float alpha, const Tensor&);  ///< this += alpha * other
    void scale_(float alpha);

    /// Same storage, new shape (numel must match).
    [[nodiscard]] Tensor reshaped(std::vector<int> shape) const;

    [[nodiscard]] float sum() const;
    [[nodiscard]] float abs_max() const;

private:
    [[nodiscard]] std::size_t flat(int i, int j) const {
        assert(rank() == 2);
        return static_cast<std::size_t>(i) * static_cast<std::size_t>(shape_[1]) +
               static_cast<std::size_t>(j);
    }
    [[nodiscard]] std::size_t flat(int i, int j, int k) const {
        assert(rank() == 3);
        return (static_cast<std::size_t>(i) * static_cast<std::size_t>(shape_[1]) +
                static_cast<std::size_t>(j)) *
                   static_cast<std::size_t>(shape_[2]) +
               static_cast<std::size_t>(k);
    }
    [[nodiscard]] std::size_t flat(int i, int j, int k, int l) const {
        assert(rank() == 4);
        return ((static_cast<std::size_t>(i) * static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(j)) *
                    static_cast<std::size_t>(shape_[2]) +
                static_cast<std::size_t>(k)) *
                   static_cast<std::size_t>(shape_[3]) +
               static_cast<std::size_t>(l);
    }

    std::vector<int> shape_;
    std::vector<float> data_;
};

/// A learnable tensor with its accumulated gradient.
struct Parameter {
    Tensor value;
    Tensor grad;

    explicit Parameter(std::vector<int> shape) : value(shape), grad(shape) {}

    void zero_grad() { grad.fill(0.0F); }
};

/// Runs fn(i) once for every i in [0, n) and returns when all have run, in
/// any order and on any threads (a thread pool's fan-out). Empty: serially,
/// in the caller.
using ForEachIndex = std::function<void(int n, const std::function<void(int)>& fn)>;

/// fn(i) for every i in [0, n), through `for_each` when it is set.
void for_each_index(const ForEachIndex& for_each, int n, const std::function<void(int)>& fn);

/// Elements [begin, end) of the tensor at position `index` of a list.
struct ElementRange {
    std::size_t index = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// Every element of tensors of the given sizes as ranges of at most 32768
/// elements (128 KB of floats, a few per large weight matrix, so a pool
/// task's overhead stays small beside its work), in list order: the units
/// of per-element work (the gradient fold, the optimizer update) that
/// ForEachIndex spreads over threads. Each element lies in exactly one
/// range, so splitting never changes its arithmetic.
std::vector<ElementRange> element_ranges(std::span<const std::size_t> sizes);

}  // namespace camo::nn
