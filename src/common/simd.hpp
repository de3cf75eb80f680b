// Runtime-dispatched SIMD kernels for the policy network (its packed layer
// walk, forward and backward), the lithography hot loops (the
// litho::KernelApplicator compute core) and the FFT's line kernel behind
// every litho/fft.hpp transform.
//
// One table, two levels. simd.cpp is compiled portably and holds the
// scalar table; the AVX2 table lives in simd_avx2_exact.cpp (its forward
// GEMM and conv register tiles in simd_avx2_tiles.hpp), built with -mavx2
// on x86-64 and exporting no table anywhere else. At startup the active
// table is chosen as
//
//     compiled kernels  ∩  CPU capabilities  ∩  CAMO_BACKEND environment
//
// CAMO_BACKEND=scalar forces the scalar table; CAMO_BACKEND=simd requires
// the vector level and falls back to scalar (with a one-time warning) when
// the binary or the CPU lacks it. Unset or "auto" picks the best level.
//
// Equivalence contract: every level gives the scalar bits. The scalar
// entries are the naive loops (one accumulator per output element, terms
// in ascending order); the AVX2 entries run lanes across output elements,
// each lane fed in the scalar order, and round every product before it is
// added (no FMA). The whole tree is built -ffp-contract=off, so no compiler
// fuses the scalar loops either. tests/test_nn_backend.cpp memcmp's every
// kernel against the scalar table; CAMO_BACKEND only changes speed.
#pragma once

#include <complex>
#include <cstddef>

namespace camo::simd {

enum class Level {
    kScalar,
    kAvx2,  ///< x86-64 AVX2 (8-wide float, multiply then add)
};

const char* level_name(Level level);

/// Highest level the running CPU supports among the compiled ones.
Level detected_level();

/// Level actually in use: detected_level() clipped by CAMO_BACKEND.
Level active_level();

/// Row-blocked GEMM/GEMV kernels read weights in the lc0-style packed
/// layout: output rows grouped in blocks of kBlock, with
/// w[(block * in + i) * kBlock + lane] = W[block * kBlock + lane][i].
/// `out` is padded to a multiple of kBlock with zero rows at pack time.
inline constexpr int kBlock = 8;

/// Chain order (gemm_blocked, conv2d_packed). Every output element has one
/// accumulator chain: it starts from its bias (or, accumulating, its
/// existing y value) and takes one rounded product and one addition per
/// input term in the order documented on each entry. The AVX2 kernels run
/// many chains in lockstep (they tile rows x output blocks and pixels x
/// channel blocks) but never split or reorder one, so tiling never shows in
/// the bits.
struct Ops {
    Level level = Level::kScalar;

    /// y[r, :] (+)= x[r, :] @ W^T (+ bias): `rows` independent right-hand
    /// sides, x row-major [rows, in], y row-major [rows, out] (`out` is the
    /// logical width; `w`/`bias` are padded to out_padded). When
    /// `accumulate` is true the products fold into the existing y values
    /// and `bias` is ignored. Row r's accumulation order never depends on
    /// `rows`, so a batched call is bitwise identical to `rows` single-row
    /// calls. Chain: i = 0 .. in-1 ascending.
    void (*gemm_blocked)(const float* w, const float* bias, const float* x, int rows, int in,
                         int out, int out_padded, float* y, bool accumulate);

    /// One CHW conv sample with weights packed [ic][ky][kx][oc_padded]
    /// (output-channel innermost so the vector kernels broadcast the input
    /// pixel across a block of output channels): y[oc, oy, ox] = b[oc] +
    /// sum over (ic, ky, kx) ascending, with out-of-image taps skipped, not
    /// added as zeros (the naive Conv2d::forward loop in
    /// tests/nn_reference_layers.hpp).
    void (*conv2d_packed)(const float* w, const float* bias, const float* x, int in_ch, int h,
                          int wdt, int out_ch, int out_ch_padded, int k, int stride, int pad,
                          float* y, int oh, int ow);

    /// out[i] = a[i] * b[i] over contiguous complex floats (the
    /// KernelApplicator coefficient multiply): re = ar*br - ai*bi,
    /// im = ar*bi + ai*br, each product rounded.
    void (*cmul)(const std::complex<float>* a, const std::complex<float>* b,
                 std::complex<float>* out, std::size_t n);

    /// intensity[i] += lambda * |field[i]|^2 (the SOCS accumulation), with
    /// |f|^2 = re*re + im*im as std::norm computes it.
    void (*norm_acc)(const std::complex<float>* field, float lambda, float* intensity,
                     std::size_t n);

    /// y[r, c] = sum over j ascending of x[r, j] * w[j, c], accumulated from
    /// +0: x row-major [rows, inner], w row-major [inner, cols], y row-major
    /// [rows, cols]. (A linear layer's input gradient dX = dY W.)
    void (*gemm_nn)(const float* x, int rows, int inner, const float* w, int cols, float* y);

    /// c[i, j] += a(r, i) * b[r, j] for r = 0 .. rows-1 (rows-1 .. 0 when
    /// `descending`), one rounded product and one addition per r, straight
    /// into c: a(r, i) = a[r * a_row_stride + i * a_col_stride], b row-major
    /// [rows, k], c row-major [m, k]. (A weight gradient dW += dY^T X.) The
    /// AVX2 kernel holds a tile of 2 rows x up to 32 columns of c in
    /// registers for the whole reduction (a k tail in one masked vector), so
    /// each element of c is loaded and stored once per call; its gemm_nn is
    /// this kernel from a zeroed y.
    void (*gemm_tn_acc)(const float* a, int a_row_stride, int a_col_stride, const float* b,
                        int rows, int m, int k, float* c, bool descending);

    /// A convolution's input gradient for one CHW sample: dx[ic, iy, ix] =
    /// sum of dy[oc, oy, ox] * W[oc, ic, ky, kx] over the output pixels the
    /// input pixel feeds, accumulated from +0 in (oc, oy, ox) ascending
    /// order, zero dy skipped. Weights are packed [oc][ky][kx][in_ch_padded]
    /// (input channel innermost); dy is [out_ch, oh, ow], dx [in_ch, h, wdt].
    /// (The per-sample Conv2d backward in tests/nn_reference_layers.hpp.)
    void (*conv2d_dx)(const float* wt, const float* dy, int in_ch, int in_ch_padded, int h,
                      int wdt, int out_ch, int k, int stride, int pad, int oh, int ow,
                      float* dx);

    /// The FFT's line kernel (litho/fft.cpp): transforms in place the
    /// `count` n-point lines whose element e sits at data[starts[l] + e *
    /// stride], n a power of two. Each line goes through the textbook
    /// radix-2 transform: elements in bit-reversed order (element e to
    /// position rev[e]), then log2 n butterfly stages, the stage spanning
    /// 2h elements reading its h twiddles w[k] = (wr, wi)[h - 1 + k]. A
    /// butterfly computes t = v * w in std::complex<float> operation order
    /// (tr = vr*wr - vi*wi, ti = vr*wi + vi*wr), then v = u - t, u = u + t.
    /// A nonzero `scale` multiplies both parts of every output. The scalar
    /// entry runs 8 lines side by side in scratch; the AVX2 entry holds 8
    /// lines in one register pair, runs two stages per pass and loads
    /// adjacent columns and whole rows with vector loads. Each element sees
    /// the same float operations in the same order, so the bits agree.
    void (*fft_lines)(std::complex<float>* data, int n, std::size_t stride,
                      const std::size_t* starts, std::size_t count, const int* rev,
                      const float* wr, const float* wi, float scale);
};

/// Kernel table of the active level (cheap: one atomic load after init).
const Ops& ops();

/// The scalar reference table (always available).
const Ops& scalar_ops();

/// Test hook: force a level for the current scope (e.g. compare scalar vs
/// SIMD outputs in-process). Levels above detected_level() clip down. Not
/// safe to race with concurrent kernel users — tests only.
class ScopedOverride {
public:
    explicit ScopedOverride(Level level);
    ~ScopedOverride();
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

private:
    Level prev_;
};

}  // namespace camo::simd
