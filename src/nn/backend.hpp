// Packed weights for the policy's SIMD kernels (common/simd.hpp).
//
// PolicyNetwork repacks its weights once per version into these blocked
// layouts and runs its one layer walk on simd::ops(): the blocked layout
// only changes where W[o][i] lives, not the order a kernel reads it in.
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

}  // namespace camo::nn
