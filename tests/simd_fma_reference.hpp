// The FMA table's GEMM and conv kernels as they were before the register
// tiles (src/common/simd_avx2_tiles.hpp): one accumulator chain per output
// block, 4 rows at a time in the GEMM and one output pixel at a time in the
// conv. Kept verbatim so tests/test_nn_backend.cpp can memcmp the tiled
// kernels against them; built with the FMA TU's flags (-mavx2 -mfma).
#pragma once

namespace camo::simd_ref {

/// True when this build carries the reference kernels (an x86-64 SIMD build).
bool fma_reference_available();

/// Same contracts as simd::Ops::gemm_blocked / conv2d_packed.
void avx2_gemm_blocked(const float* w, const float* bias, const float* x, int rows, int in,
                       int out, int out_padded, float* y, bool accumulate);
void avx2_conv2d_packed(const float* w, const float* bias, const float* x, int in_ch, int h,
                        int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                        float* y, int oh, int ow);

}  // namespace camo::simd_ref
