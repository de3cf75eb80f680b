// Runtime-dispatched SIMD kernels for the policy network and the
// lithography hot loops (the nn::OpsBackend and litho::SupportApplicator
// compute cores, and the FFT's line kernel behind every litho/fft.hpp
// transform).
//
// Dispatch model: this translation unit is always compiled portably; the
// vector implementations live in their own translation units
// (simd_avx2.cpp, built with -mavx2 -mfma on x86; simd_neon.cpp on
// aarch64, where NEON is baseline; simd_avx2_exact.cpp, the training
// kernels and the FFT line kernel, built with -mavx2 -ffp-contract=off; the
// two AVX2 TUs share the GEMM and conv register tiles of
// simd_avx2_tiles.hpp, each under its own flags). The scalar FFT line
// kernel sits in simd_scalar_fft.cpp, built -ffp-contract=off on every
// ISA. At startup the active kernel table is chosen as
//
//     compiled kernels  ∩  CPU capabilities  ∩  CAMO_BACKEND environment
//
// CAMO_BACKEND=scalar forces the scalar reference kernels — byte-for-byte
// the pre-SIMD loops, so the repo's bit-identical determinism contracts
// (batch results at any thread count, training traces at any worker count)
// hold end to end exactly as before. CAMO_BACKEND=simd requires a vector
// level and falls back to scalar (with a one-time warning) when neither
// the binary nor the CPU provides one. Unset or "auto" picks the best
// level available.
//
// Equivalence contract: for every kernel the scalar entry reproduces the
// legacy accumulation order exactly; the Ops vector entries compute the
// same sums in the same per-output order but with fused multiply-adds, so
// results agree to a few ULP — tests/test_nn_backend.cpp fuzzes the bound
// and pins the end-to-end action-identity guarantee on every registered
// scenario. The ExactOps vector entries (training) keep the scalar bits
// exactly.
#pragma once

#include <complex>
#include <cstddef>

namespace camo::simd {

enum class Level {
    kScalar,
    kAvx2,  ///< x86-64 AVX2 + FMA (8-wide float)
    kNeon,  ///< aarch64 NEON (4-wide float, baseline on that ISA)
};

const char* level_name(Level level);

/// Highest level this binary carries kernels for (a compile-time fact).
Level compiled_level();

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
/// existing y value) and takes one multiply-add per input term in the
/// order documented on each entry. Vector levels may run many chains in
/// lockstep (the AVX2 kernels tile rows x output blocks and pixels x
/// channel blocks) but never split or reorder one, so tiling never shows
/// in the bits: the AVX2 entries are memcmp-equal to one-chain-per-block
/// FMA loops (SimdOps.FmaKernelsBitIdenticalToSingleChainReference), and
/// the ExactOps entries to the scalar table.
struct Ops {
    Level level = Level::kScalar;

    /// y[r, :] (+)= x[r, :] @ W^T (+ bias): `rows` independent right-hand
    /// sides, x row-major [rows, in], y row-major [rows, out] (`out` is the
    /// logical width; `w`/`bias` are padded to out_padded). When
    /// `accumulate` is true the products fold into the existing y values
    /// and `bias` is ignored. Row r's accumulation order never depends on
    /// `rows`, so a batched call is bitwise identical to `rows` single-row
    /// calls at every level. Chain: i = 0 .. in-1 ascending.
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
    /// SupportApplicator coefficient multiply).
    void (*cmul)(const std::complex<float>* a, const std::complex<float>* b,
                 std::complex<float>* out, std::size_t n);

    /// intensity[i] += lambda * |field[i]|^2 (the SOCS accumulation).
    void (*norm_acc)(const std::complex<float>* field, float lambda, float* intensity,
                     std::size_t n);
};

/// Exact-order kernels for training and the FFT. The forward entries have
/// the same contracts as their Ops namesakes, and every output is
/// bit-identical to the scalar table at every level: vector lanes run across
/// output elements (FFT lines), each with one accumulator fed in the scalar
/// order, and every product is rounded before it is added (no FMA). The
/// backward entries reproduce the accumulation orders of the naive
/// per-sample layer loops (Conv2d/Linear backward in
/// tests/nn_reference_layers.hpp). The AVX2 kernels live in
/// simd_avx2_exact.cpp, built with -mavx2 -ffp-contract=off and without
/// -mfma; where no exact vector kernel exists (NEON, portable builds) the
/// table is the scalar one.
struct ExactOps {
    Level level = Level::kScalar;

    decltype(Ops::gemm_blocked) gemm_blocked;
    decltype(Ops::conv2d_packed) conv2d_packed;

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

/// Exact-order table of the active level: the AVX2 exact kernels when the
/// active level is AVX2, the scalar kernels otherwise (so CAMO_BACKEND and
/// ScopedOverride select it like ops()).
const ExactOps& exact_ops();

/// The scalar reference table (always available; legacy loop order).
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
