#include "nn/backend.hpp"

#include <stdexcept>

namespace camo::nn {
namespace {

int pad_up(int n) { return (n + simd::kBlock - 1) / simd::kBlock * simd::kBlock; }

}  // namespace

PackedLinear pack_linear(const Tensor& w, const Tensor* b) {
    PackedLinear packed;
    pack_linear(w, b, packed);
    return packed;
}

void pack_linear(const Tensor& w, const Tensor* b, PackedLinear& packed) {
    const auto& shape = w.shape();
    if (shape.size() != 2) throw std::invalid_argument("pack_linear: weight must be rank 2");
    packed.out = shape[0];
    packed.in = shape[1];
    packed.out_padded = pad_up(packed.out);
    packed.w.assign(static_cast<std::size_t>(packed.out_padded) *
                        static_cast<std::size_t>(packed.in),
                    0.0F);
    packed.b.assign(static_cast<std::size_t>(packed.out_padded), 0.0F);
    for (int o = 0; o < packed.out; ++o) {
        const int blk = o / simd::kBlock;
        const int lane = o % simd::kBlock;
        for (int i = 0; i < packed.in; ++i) {
            packed.w[(static_cast<std::size_t>(blk) * static_cast<std::size_t>(packed.in) +
                      static_cast<std::size_t>(i)) *
                         simd::kBlock +
                     static_cast<std::size_t>(lane)] = w.at(o, i);
        }
        if (b != nullptr) packed.b[static_cast<std::size_t>(o)] = (*b)[static_cast<std::size_t>(o)];
    }
}

PackedConv2d pack_conv2d(const Tensor& w, const Tensor& b, int stride, int pad) {
    PackedConv2d packed;
    pack_conv2d(w, b, stride, pad, packed);
    return packed;
}

void pack_conv2d(const Tensor& w, const Tensor& b, int stride, int pad, PackedConv2d& packed) {
    const auto& shape = w.shape();
    if (shape.size() != 4 || shape[2] != shape[3]) {
        throw std::invalid_argument("pack_conv2d: weight must be [out, in, k, k]");
    }
    packed.out_ch = shape[0];
    packed.in_ch = shape[1];
    packed.out_ch_padded = pad_up(packed.out_ch);
    packed.k = shape[2];
    packed.stride = stride;
    packed.pad = pad;
    const std::size_t taps = static_cast<std::size_t>(packed.in_ch) *
                             static_cast<std::size_t>(packed.k) *
                             static_cast<std::size_t>(packed.k);
    packed.w.assign(taps * static_cast<std::size_t>(packed.out_ch_padded), 0.0F);
    packed.b.assign(static_cast<std::size_t>(packed.out_ch_padded), 0.0F);
    for (int oc = 0; oc < packed.out_ch; ++oc) {
        for (int ic = 0; ic < packed.in_ch; ++ic) {
            for (int ky = 0; ky < packed.k; ++ky) {
                for (int kx = 0; kx < packed.k; ++kx) {
                    const std::size_t idx =
                        ((static_cast<std::size_t>(ic) * static_cast<std::size_t>(packed.k) +
                          static_cast<std::size_t>(ky)) *
                             static_cast<std::size_t>(packed.k) +
                         static_cast<std::size_t>(kx)) *
                            static_cast<std::size_t>(packed.out_ch_padded) +
                        static_cast<std::size_t>(oc);
                    packed.w[idx] = w.at(oc, ic, ky, kx);
                }
            }
        }
        packed.b[static_cast<std::size_t>(oc)] = b[static_cast<std::size_t>(oc)];
    }
}

}  // namespace camo::nn
