// Policy kernels: packed-weight forward kernels taken from one SIMD table.
//
// PolicyNetwork repacks its weights once per version into SIMD-friendly
// blocked layouts (common/simd.hpp) and runs its one layer walk on an
// OpsBackend. Two ship:
//
//   * exact_backend() — routes through simd::exact_ops(): the scalar
//     reference bits (the naive layer loops' per-output accumulation order)
//     at every level, vectorized across outputs where the CPU allows.
//     Training forwards run here.
//   * active_backend() — routes through simd::ops(), i.e. the best level
//     the build + CPU + CAMO_BACKEND allow (which may itself be scalar).
//     Inference runs here; its FMA kernels round differently.
//
// Both read the same packed buffers: the blocked layout only changes where
// W[o][i] lives, not the order the scalar kernel reads it in.
#pragma once

#include <vector>

#include "common/simd.hpp"
#include "nn/tensor.hpp"

namespace camo::nn {

/// A dense weight matrix (or RNN cell matrix) repacked row-blocked for gemm_blocked:
/// w[(blk * in + i) * kBlock + lane] = W[blk * kBlock + lane][i], with the
/// output dimension zero-padded up to a multiple of kBlock.
struct PackedLinear {
    int in = 0;
    int out = 0;
    int out_padded = 0;
    std::vector<float> w;
    std::vector<float> b;  // padded to out_padded
};

/// Convolution weights repacked [ic][ky][kx][oc_padded] (output channel innermost so
/// vector kernels broadcast one input pixel across a block of channels).
struct PackedConv2d {
    int in_ch = 0;
    int out_ch = 0;
    int out_ch_padded = 0;
    int k = 0;
    int stride = 0;
    int pad = 0;
    std::vector<float> w;
    std::vector<float> b;  // padded to out_ch_padded

    [[nodiscard]] int out_size(int in_size) const { return (in_size + 2 * pad - k) / stride + 1; }
};

/// Pack a weight matrix [out, in] (+ optional bias [out]; zeros otherwise).
PackedLinear pack_linear(const Tensor& w, const Tensor* b);
/// The same into `out`, reusing its storage.
void pack_linear(const Tensor& w, const Tensor* b, PackedLinear& out);
/// Pack convolution weights [out, in, k, k] and bias [out].
PackedConv2d pack_conv2d(const Tensor& w, const Tensor& b, int stride, int pad);
/// The same into `out`, reusing its storage.
void pack_conv2d(const Tensor& w, const Tensor& b, int stride, int pad, PackedConv2d& out);

/// The two kernels the layer walk calls, read from a simd table on every
/// call so CAMO_BACKEND and simd::ScopedOverride apply.
class OpsBackend {
public:
    struct Kernels {
        decltype(simd::Ops::gemm_blocked) gemm;
        decltype(simd::Ops::conv2d_packed) conv;
    };
    using Table = Kernels (*)();

    explicit OpsBackend(Table table) : table_(table) {}

    /// y[r, :] = x[r, :] @ W^T + b for `rows` independent rows.
    void linear(const PackedLinear& m, const float* x, int rows, float* y) const;

    /// y[r, :] += x[r, :] @ W^T (bias ignored). The scalar kernel resumes
    /// the existing accumulator per output element, matching the reference
    /// RNN cell's single fused accumulation chain.
    void linear_acc(const PackedLinear& m, const float* x, int rows, float* y) const;

    /// One CHW sample: x [in_ch, h, w] -> y [out_ch, oh, ow].
    void conv2d(const PackedConv2d& m, const float* x, int h, int w, float* y) const;

private:
    Table table_;
};

/// Kernels from the active SIMD dispatch table (honours CAMO_BACKEND and
/// simd::ScopedOverride).
const OpsBackend& active_backend();

/// Kernels from the exact-order training table (simd::exact_ops()):
/// bit-identical to the scalar table on every level, vectorized where the
/// CPU allows.
const OpsBackend& exact_backend();

}  // namespace camo::nn
