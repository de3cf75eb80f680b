// Inference-backend equivalence suite (PR 9).
//
// Pins the two contracts the SIMD/batched backend ships under:
//
//  * kernel equivalence — the vector kernels compute the same sums as the
//    scalar reference with a different rounding schedule, so outputs agree
//    to a small relative tolerance (fuzzed here over random shapes), and a
//    batched call is BITWISE identical to the same rows issued one at a
//    time on every backend (row accumulation order is row-independent);
//  * action identity — end to end, the SIMD and batched inference paths
//    select exactly the actions the scalar single-row path selects, on
//    every registered scenario and every reward mode. Integer offsets make
//    this an exact equality check, which is what lets CAMO_BACKEND default
//    to the fastest level without perturbing any golden result.
//
// On a build or CPU without vector kernels (CAMO_SIMD=OFF, pre-AVX2 x86)
// ScopedOverride clips to scalar and the comparisons degrade to
// scalar-vs-scalar: still valid, trivially green.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/camo.hpp"
#include "nn/backend.hpp"
#include "nn/tensor.hpp"
#include "opc/rule_engine.hpp"
#include "runtime/batch.hpp"
#include "scenario/scenario.hpp"

#include "nn_reference_layers.hpp"
#include "simd_fma_reference.hpp"

namespace {

using namespace camo;

void fill_uniform(nn::Tensor& t, Rng& rng) {
    for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

// Relative-ish bound for scalar-vs-vector comparisons: blocked FMA changes
// the rounding schedule, not the math, so errors stay within a few ULP of
// the accumulated magnitude.
void expect_close(const std::vector<float>& a, const std::vector<float>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float tol = 1e-4F * (1.0F + std::abs(a[i]));
        EXPECT_NEAR(a[i], b[i], tol) << "element " << i;
    }
}

// Byte equality: the exact-order contracts are memcmp, not tolerance.
bool same(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

opc::OpcOptions quick_opc(scenario::Style style) {
    opc::OpcOptions opt;
    opt.max_iterations = 2;
    opt.initial_bias_nm = style == scenario::Style::kVia ? 3 : 0;
    return opt;
}

/// Tiny deterministic engine; inference only, never trained (random-init
/// weights are seeded, so every instance with this config is identical).
core::CamoEngine make_engine() {
    core::CamoConfig cfg;
    cfg.name = "backend_test";
    cfg.train_workers = 1;
    return core::CamoEngine(cfg);
}

// ---- kernel-level fuzz ------------------------------------------------------

TEST(SimdOps, GemmBlockedMatchesScalarFuzz) {
    Rng rng(0xBEEF);
    for (int trial = 0; trial < 30; ++trial) {
        const int in = rng.uniform_int(1, 48);
        const int out = rng.uniform_int(1, 40);  // exercises partial blocks
        const int rows = rng.uniform_int(1, 6);
        nn::Tensor w({out, in});
        nn::Tensor b({out});
        fill_uniform(w, rng);
        fill_uniform(b, rng);
        const nn::PackedLinear m = nn::pack_linear(w, &b);
        ASSERT_EQ(m.out_padded % simd::kBlock, 0);

        std::vector<float> x(static_cast<std::size_t>(rows) * in);
        for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> ys(static_cast<std::size_t>(rows) * out, 0.0F);
        std::vector<float> yv(ys);

        {
            simd::ScopedOverride force(simd::Level::kScalar);
            nn::active_backend().linear(m, x.data(), rows, ys.data());
        }
        {
            simd::ScopedOverride force(simd::detected_level());
            nn::active_backend().linear(m, x.data(), rows, yv.data());
        }
        expect_close(ys, yv);

        // Accumulating variant folds into existing values, ignores bias.
        std::vector<float> as(ys);
        std::vector<float> av(ys);
        {
            simd::ScopedOverride force(simd::Level::kScalar);
            nn::active_backend().linear_acc(m, x.data(), rows, as.data());
        }
        {
            simd::ScopedOverride force(simd::detected_level());
            nn::active_backend().linear_acc(m, x.data(), rows, av.data());
        }
        expect_close(as, av);
    }
}

TEST(SimdOps, BatchedRowsBitwiseEqualSingleRows) {
    Rng rng(0xF00D);
    for (const simd::Level level : {simd::Level::kScalar, simd::detected_level()}) {
        simd::ScopedOverride force(level);
        const nn::OpsBackend& be = nn::active_backend();
        for (int trial = 0; trial < 10; ++trial) {
            const int in = rng.uniform_int(1, 32);
            const int out = rng.uniform_int(1, 24);
            const int rows = rng.uniform_int(2, 8);
            nn::Tensor w({out, in});
            nn::Tensor b({out});
            fill_uniform(w, rng);
            fill_uniform(b, rng);
            const nn::PackedLinear m = nn::pack_linear(w, &b);

            std::vector<float> x(static_cast<std::size_t>(rows) * in);
            for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
            std::vector<float> batched(static_cast<std::size_t>(rows) * out);
            std::vector<float> single(batched.size());
            be.linear(m, x.data(), rows, batched.data());
            for (int r = 0; r < rows; ++r) {
                be.linear(m, x.data() + static_cast<std::size_t>(r) * in, 1,
                          single.data() + static_cast<std::size_t>(r) * out);
            }
            // The batching contract is exact, not approximate.
            EXPECT_EQ(batched, single) << "level " << simd::level_name(level);
        }
    }
}

TEST(SimdOps, Conv2dPackedMatchesScalarFuzz) {
    Rng rng(0xC0DE);
    for (int trial = 0; trial < 12; ++trial) {
        const int in_ch = rng.uniform_int(1, 3);
        const int out_ch = rng.uniform_int(1, 20);  // partial blocks included
        const int k = 3;
        const int stride = rng.uniform_int(1, 2);
        const int h = rng.uniform_int(5, 9);
        Rng wrng(derive_seed(0xC0DE, static_cast<std::uint64_t>(trial)));
        nn::Conv2d layer(in_ch, out_ch, k, stride, 1, wrng);
        const nn::PackedConv2d m =
            nn::pack_conv2d(layer.weight().value, layer.bias().value, stride, 1);

        nn::Tensor x({in_ch, h, h});
        fill_uniform(x, rng);
        const int oh = m.out_size(h);
        std::vector<float> ys(static_cast<std::size_t>(out_ch) * oh * oh);
        std::vector<float> yv(ys.size());
        {
            simd::ScopedOverride force(simd::Level::kScalar);
            nn::active_backend().conv2d(m, x.data().data(), h, h, ys.data());
        }
        {
            simd::ScopedOverride force(simd::detected_level());
            nn::active_backend().conv2d(m, x.data().data(), h, h, yv.data());
        }
        expect_close(ys, yv);
    }
}

// The exact-order training table must equal the scalar table byte for byte
// at every shape, lane tails included.
TEST(SimdOps, ExactKernelsBitIdenticalToScalarFuzz) {
    const simd::ExactOps* scalar = nullptr;
    const simd::ExactOps* vec = nullptr;
    {
        const simd::ScopedOverride force(simd::Level::kScalar);
        scalar = &simd::exact_ops();
    }
    {
        const simd::ScopedOverride force(simd::detected_level());
        vec = &simd::exact_ops();
    }
    EXPECT_EQ(scalar->level, simd::Level::kScalar);
    const auto random = [](std::size_t n, Rng& rng, bool zeros) {
        std::vector<float> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = zeros && i % 3 == 0 ? 0.0F : static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        return v;
    };
    Rng rng(0xE8AC7);
    for (int trial = 0; trial < 40; ++trial) {
        const int rows = rng.uniform_int(1, 9);
        const int in = rng.uniform_int(1, 70);
        const int out = rng.uniform_int(1, 45);

        nn::Tensor w({out, in});
        nn::Tensor b({out});
        fill_uniform(w, rng);
        fill_uniform(b, rng);
        const nn::PackedLinear m = nn::pack_linear(w, &b);
        const std::vector<float> x = random(static_cast<std::size_t>(rows * in), rng, false);
        for (const bool acc : {false, true}) {
            std::vector<float> ys = random(static_cast<std::size_t>(rows * out), rng, false);
            std::vector<float> yv = ys;
            scalar->gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out, m.out_padded,
                                 ys.data(), acc);
            vec->gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out, m.out_padded,
                              yv.data(), acc);
            EXPECT_TRUE(same(ys, yv)) << "gemm_blocked trial " << trial;
        }

        const std::vector<float> dy = random(static_cast<std::size_t>(rows * out), rng, true);
        std::vector<float> dxs(static_cast<std::size_t>(rows * in));
        std::vector<float> dxv(dxs.size());
        scalar->gemm_nn(dy.data(), rows, out, w.data().data(), in, dxs.data());
        vec->gemm_nn(dy.data(), rows, out, w.data().data(), in, dxv.data());
        EXPECT_TRUE(same(dxs, dxv)) << "gemm_nn trial " << trial;

        for (const bool descending : {false, true}) {
            // Row-major dy [rows, out], and the transposed view [out, rows].
            for (const bool transposed : {false, true}) {
                std::vector<float> cs = random(static_cast<std::size_t>(out * in), rng, false);
                std::vector<float> cv = cs;
                const int rs = transposed ? 1 : out;
                const int cstride = transposed ? rows : 1;
                scalar->gemm_tn_acc(dy.data(), rs, cstride, x.data(), rows, out, in, cs.data(),
                                    descending);
                vec->gemm_tn_acc(dy.data(), rs, cstride, x.data(), rows, out, in, cv.data(),
                                 descending);
                EXPECT_TRUE(same(cs, cv)) << "gemm_tn_acc trial " << trial;
            }
        }

        const int in_ch = rng.uniform_int(1, 20);
        const int out_ch = rng.uniform_int(1, 20);
        const int stride = rng.uniform_int(1, 2);
        const int h = rng.uniform_int(3, 12);
        const int oh = (h + 2 - 3) / stride + 1;
        nn::Tensor cw({out_ch, in_ch, 3, 3});
        nn::Tensor cb({out_ch});
        fill_uniform(cw, rng);
        fill_uniform(cb, rng);
        const nn::PackedConv2d pc = nn::pack_conv2d(cw, cb, stride, 1);
        const std::vector<float> img = random(static_cast<std::size_t>(in_ch * h * h), rng, true);
        std::vector<float> ys(static_cast<std::size_t>(out_ch * oh * oh));
        std::vector<float> yv(ys.size());
        scalar->conv2d_packed(pc.w.data(), pc.b.data(), img.data(), in_ch, h, h, out_ch,
                              pc.out_ch_padded, 3, stride, 1, ys.data(), oh, oh);
        vec->conv2d_packed(pc.w.data(), pc.b.data(), img.data(), in_ch, h, h, out_ch,
                           pc.out_ch_padded, 3, stride, 1, yv.data(), oh, oh);
        EXPECT_TRUE(same(ys, yv)) << "conv2d_packed trial " << trial;

        const int icp = (in_ch + simd::kBlock - 1) / simd::kBlock * simd::kBlock;
        const std::vector<float> wt =
            random(static_cast<std::size_t>(out_ch * 9 * icp), rng, false);
        const std::vector<float> cdy = random(ys.size(), rng, true);
        std::vector<float> gs(img.size());
        std::vector<float> gv(img.size());
        scalar->conv2d_dx(wt.data(), cdy.data(), in_ch, icp, h, h, out_ch, 3, stride, 1, oh, oh,
                          gs.data());
        vec->conv2d_dx(wt.data(), cdy.data(), in_ch, icp, h, h, out_ch, 3, stride, 1, oh, oh,
                       gv.data());
        EXPECT_TRUE(same(gs, gv)) << "conv2d_dx trial " << trial;
    }
}

// The weight-gradient kernel at the policy's own shapes, which the random
// fuzz above (rows <= 9, k <= 70) never reaches: every register tile, the
// masked k tail and the odd last row, byte for byte against the scalar
// table. gemm_nn runs on the same tiles, so its fc / SAGE shapes ride along.
TEST(SimdOps, ExactGemmTnAccBitIdenticalAtTrainingShapes) {
    const simd::ExactOps* scalar = nullptr;
    const simd::ExactOps* vec = nullptr;
    {
        const simd::ScopedOverride force(simd::Level::kScalar);
        scalar = &simd::exact_ops();
    }
    {
        const simd::ScopedOverride force(simd::detected_level());
        vec = &simd::exact_ops();
    }
    Rng rng(0x7A11);
    const auto random = [&rng](std::size_t n) {
        std::vector<float> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = i % 5 == 0 ? 0.0F : static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        return v;
    };
    // c[m, k] += a(r, i) b[r, k] with a either row-major [rows, m] (the
    // dense layers' dy) or channel-major [m, rows] (a conv's dy).
    const auto check = [&](int rows, int m, int k, bool channel_major, bool descending) {
        const std::vector<float> a = random(static_cast<std::size_t>(rows) * m);
        const std::vector<float> b = random(static_cast<std::size_t>(rows) * k);
        std::vector<float> cs = random(static_cast<std::size_t>(m) * k);
        std::vector<float> cv = cs;
        const int rs = channel_major ? 1 : m;
        const int cstride = channel_major ? rows : 1;
        scalar->gemm_tn_acc(a.data(), rs, cstride, b.data(), rows, m, k, cs.data(), descending);
        vec->gemm_tn_acc(a.data(), rs, cstride, b.data(), rows, m, k, cv.data(), descending);
        EXPECT_TRUE(same(cs, cv)) << "gemm_tn_acc rows " << rows << " m " << m << " k " << k
                                  << (channel_major ? " channel-major" : " row-major")
                                  << (descending ? " descending" : " ascending");
    };
    for (const int rows : {8, 12, 24}) {  // fc / SAGE weight gradients
        for (const bool channel_major : {false, true}) {
            for (const bool descending : {false, true}) {
                check(rows, 256, 512, channel_major, descending);
            }
        }
    }
    check(256, 8, 54, true, false);  // conv1..conv3, one node each
    check(64, 16, 72, true, false);
    check(16, 32, 144, true, false);
    for (const int m : {1, 3, 7, 13}) check(5, m, 96, false, true);  // odd m
    for (int tail = 1; tail <= 7; ++tail) check(6, 5, 32 + tail, true, false);
    for (int tail = 1; tail <= 7; ++tail) check(3, 4, 64 + tail, false, true);

    for (const int rows : {8, 12, 24}) {  // dx = dy W at the fc / SAGE shape
        const std::vector<float> dy = random(static_cast<std::size_t>(rows) * 256);
        const std::vector<float> w = random(256 * 512);
        std::vector<float> dxs(static_cast<std::size_t>(rows) * 512);
        std::vector<float> dxv(dxs.size(), 1.0F);
        scalar->gemm_nn(dy.data(), rows, 256, w.data(), 512, dxs.data());
        vec->gemm_nn(dy.data(), rows, 256, w.data(), 512, dxv.data());
        EXPECT_TRUE(same(dxs, dxv)) << "gemm_nn rows " << rows;
    }
}

// The FMA table's register tiles (src/common/simd_avx2_tiles.hpp) interleave
// accumulator chains but never reorder one, so every output must equal the
// single-chain kernels kept verbatim in simd_fma_reference.cpp byte for
// byte: lane tails, row and pixel tails, image borders, -0 and +-inf.
TEST(SimdOps, FmaKernelsBitIdenticalToSingleChainReference) {
    const simd::ScopedOverride force(simd::detected_level());
    if (simd::active_level() != simd::Level::kAvx2 || !simd_ref::fma_reference_available()) {
        GTEST_SKIP() << "the FMA table is not active on this build/CPU";
    }
    const simd::Ops& vec = simd::ops();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    // Uniform values; with `specials`, about one in 16 is -0, +0, +inf or -inf.
    const auto fill = [](float* v, std::size_t n, Rng& rng, bool specials) {
        const float kSpecial[4] = {-0.0F, 0.0F, kInf, -kInf};
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = specials && rng.uniform_int(0, 15) == 0
                       ? kSpecial[rng.uniform_int(0, 3)]
                       : static_cast<float>(rng.uniform(-1.0, 1.0));
        }
    };

    Rng rng(0xF3A);
    struct GemmShape {
        int rows, in, out;
    };
    std::vector<GemmShape> gemms = {{24, 512, 256}, {1, 64, 64}, {1, 256, 64}, {13, 515, 261},
                                    {4, 1, 1},      {5, 7, 9},   {3, 64, 5}};
    for (int trial = 0; trial < 39; ++trial) {
        gemms.push_back({1 + trial % 13, rng.uniform_int(1, 515), rng.uniform_int(1, 261)});
    }
    for (std::size_t t = 0; t < gemms.size(); ++t) {
        const auto [rows, in, out] = gemms[t];
        const bool specials = t % 2 == 1;
        nn::Tensor w({out, in});
        nn::Tensor b({out});
        fill(w.data().data(), w.numel(), rng, specials);
        fill(b.data().data(), b.numel(), rng, specials);
        if (specials) b[0] = -0.0F;
        const nn::PackedLinear m = nn::pack_linear(w, &b);
        std::vector<float> x(static_cast<std::size_t>(rows) * static_cast<std::size_t>(in));
        fill(x.data(), x.size(), rng, specials);
        for (const bool acc : {false, true}) {
            std::vector<float> yr(static_cast<std::size_t>(rows) * static_cast<std::size_t>(out));
            fill(yr.data(), yr.size(), rng, specials);
            std::vector<float> yv = yr;
            simd_ref::avx2_gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out,
                                        m.out_padded, yr.data(), acc);
            vec.gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out, m.out_padded,
                             yv.data(), acc);
            EXPECT_TRUE(same(yr, yv)) << "gemm rows " << rows << " in " << in << " out " << out
                                      << " accumulate " << acc << " specials " << specials;
        }
    }

    // The encoder's three convs, lane tails, and 3 and 4 + 1 channel blocks.
    const std::pair<int, int> channels[] = {{6, 8},   {8, 16}, {16, 32}, {3, 13},
                                            {20, 12}, {5, 21}, {2, 40}};
    const std::pair<int, int> sizes[] = {{1, 1}, {1, 33}, {33, 1},  {2, 5},   {4, 4},
                                         {5, 9}, {8, 8},  {16, 16}, {17, 31}, {33, 33}};
    int case_id = 0;
    for (const auto& [in_ch, out_ch] : channels) {
        for (const int k : {1, 3, 5}) {
            for (const int stride : {1, 2}) {
                for (const int pad : {0, 1}) {
                    for (const auto& [h, wdt] : sizes) {
                        if (h + 2 * pad < k || wdt + 2 * pad < k) continue;
                        const bool specials = ++case_id % 3 == 0;
                        nn::Tensor cw({out_ch, in_ch, k, k});
                        nn::Tensor cb({out_ch});
                        fill(cw.data().data(), cw.numel(), rng, specials);
                        fill(cb.data().data(), cb.numel(), rng, specials);
                        if (specials) cb[0] = -0.0F;
                        const nn::PackedConv2d pc = nn::pack_conv2d(cw, cb, stride, pad);
                        const int oh = pc.out_size(h);
                        const int ow = pc.out_size(wdt);
                        std::vector<float> img(static_cast<std::size_t>(in_ch * h * wdt));
                        fill(img.data(), img.size(), rng, specials);
                        std::vector<float> yr(static_cast<std::size_t>(out_ch * oh * ow));
                        std::vector<float> yv(yr.size());
                        simd_ref::avx2_conv2d_packed(pc.w.data(), pc.b.data(), img.data(), in_ch,
                                                     h, wdt, out_ch, pc.out_ch_padded, k, stride,
                                                     pad, yr.data(), oh, ow);
                        vec.conv2d_packed(pc.w.data(), pc.b.data(), img.data(), in_ch, h, wdt,
                                          out_ch, pc.out_ch_padded, k, stride, pad, yv.data(), oh,
                                          ow);
                        EXPECT_TRUE(same(yr, yv))
                            << "conv " << in_ch << "->" << out_ch << " k " << k << " stride "
                            << stride << " pad " << pad << " " << h << "x" << wdt
                            << " specials " << specials;
                    }
                }
            }
        }
    }
}

TEST(SimdOps, CmulAndNormAccMatchScalar) {
    Rng rng(0xACC);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                std::size_t{1013}}) {
        std::vector<std::complex<float>> a(n);
        std::vector<std::complex<float>> b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = {static_cast<float>(rng.uniform(-1.0, 1.0)),
                    static_cast<float>(rng.uniform(-1.0, 1.0))};
            b[i] = {static_cast<float>(rng.uniform(-1.0, 1.0)),
                    static_cast<float>(rng.uniform(-1.0, 1.0))};
        }
        std::vector<std::complex<float>> ps(n);
        std::vector<std::complex<float>> pv(n);
        simd::scalar_ops().cmul(a.data(), b.data(), ps.data(), n);
        {
            simd::ScopedOverride force(simd::detected_level());
            simd::ops().cmul(a.data(), b.data(), pv.data(), n);
        }
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(ps[i].real(), pv[i].real(), 1e-5F) << i;
            EXPECT_NEAR(ps[i].imag(), pv[i].imag(), 1e-5F) << i;
        }

        std::vector<float> is(n, 0.25F);
        std::vector<float> iv(n, 0.25F);
        simd::scalar_ops().norm_acc(a.data(), 0.37F, is.data(), n);
        {
            simd::ScopedOverride force(simd::detected_level());
            simd::ops().norm_acc(a.data(), 0.37F, iv.data(), n);
        }
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(is[i], iv[i], 1e-5F) << i;
    }
}

// ---- end-to-end action identity --------------------------------------------

TEST(PolicyBackend, SimdSelectsIdenticalActionsOnEveryScenario) {
    const core::CamoEngine engine = make_engine();
    for (const std::string& name : scenario::Registry::instance().names()) {
        const scenario::Scenario sc = scenario::Registry::instance().get(name);
        const std::vector<geo::SegmentedLayout> layouts = sc.layouts(1);
        ASSERT_FALSE(layouts.empty());
        const opc::OpcOptions opt = quick_opc(sc.style);

        opc::EngineResult scalar_res;
        opc::EngineResult simd_res;
        {
            simd::ScopedOverride force(simd::Level::kScalar);
            litho::LithoSim sim(sc.litho);
            scalar_res = engine.infer(layouts.front(), sim, opt);
        }
        {
            simd::ScopedOverride force(simd::detected_level());
            litho::LithoSim sim(sc.litho);
            simd_res = engine.infer(layouts.front(), sim, opt);
        }
        EXPECT_EQ(scalar_res.final_offsets, simd_res.final_offsets) << name;
        EXPECT_EQ(scalar_res.iterations, simd_res.iterations) << name;
    }
}

TEST(PolicyBackend, BatchedMatchesSingleOnEveryScenario) {
    const core::CamoEngine engine = make_engine();
    for (const std::string& name : scenario::Registry::instance().names()) {
        const scenario::Scenario sc = scenario::Registry::instance().get(name);
        const std::vector<geo::SegmentedLayout> layouts = sc.layouts(2);
        runtime::BatchOptions bopt;
        bopt.threads = 1;
        bopt.opc = quick_opc(sc.style);
        runtime::BatchScheduler sched(sc.litho, bopt);
        const runtime::BatchResult single = sched.run_camo(layouts, engine);
        const runtime::BatchResult batched = sched.run_camo_batched(layouts, engine);
        ASSERT_EQ(single.clips.size(), batched.clips.size()) << name;
        for (std::size_t i = 0; i < single.clips.size(); ++i) {
            EXPECT_EQ(single.clips[i].error, batched.clips[i].error) << name;
            EXPECT_EQ(single.clips[i].offsets, batched.clips[i].offsets) << name;
            EXPECT_EQ(single.clips[i].iterations, batched.clips[i].iterations) << name;
            EXPECT_EQ(single.clips[i].final_epe, batched.clips[i].final_epe) << name;
        }
    }
}

TEST(PolicyBackend, BatchedMatchesSingleAcrossRewardModes) {
    const core::CamoEngine engine = make_engine();
    const scenario::Scenario sc =
        scenario::Registry::instance().get(scenario::Registry::instance().names().front());
    const std::vector<geo::SegmentedLayout> layouts = sc.layouts(2);
    for (const rl::RewardMode mode : {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner,
                                      rl::RewardMode::kWeightedCorner}) {
        runtime::BatchOptions bopt;
        bopt.threads = 1;
        bopt.opc = quick_opc(sc.style);
        bopt.opc.objective = mode;
        runtime::BatchScheduler sched(sc.litho, bopt);
        const runtime::BatchResult single = sched.run_camo(layouts, engine);
        const runtime::BatchResult batched = sched.run_camo_batched(layouts, engine);
        ASSERT_EQ(single.clips.size(), batched.clips.size());
        for (std::size_t i = 0; i < single.clips.size(); ++i) {
            EXPECT_EQ(single.clips[i].offsets, batched.clips[i].offsets)
                << rl::reward_mode_name(mode);
            EXPECT_EQ(single.clips[i].iterations, batched.clips[i].iterations)
                << rl::reward_mode_name(mode);
        }
        // Both paths prime every clip with a full rebuild and then move the
        // same segments, so the litho work is the same too.
        EXPECT_EQ(single.litho_evaluations, batched.litho_evaluations)
            << rl::reward_mode_name(mode);
        EXPECT_EQ(single.incremental_hits, batched.incremental_hits) << rl::reward_mode_name(mode);
    }
}

// ---- litho hot loops --------------------------------------------------------

TEST(LithoSimd, SupportApplyBackendEquivalence) {
    // Drive the incremental evaluation path (SupportApplicator's cmul +
    // norm_acc loops) through a short rule-engine run under both backends.
    // Decisions are integer threshold tests on nm-scale EPE values, far
    // above vector ULP noise, so offsets must match exactly; the float
    // metrics agree to a small relative tolerance.
    const scenario::Scenario sc = scenario::Registry::instance().get(
        scenario::Registry::instance().names().front());
    const std::vector<geo::SegmentedLayout> layouts = sc.layouts(1);
    opc::OpcOptions opt = quick_opc(sc.style);
    opt.max_iterations = 3;

    opc::RuleEngine eng;
    opc::EngineResult scalar_res;
    opc::EngineResult simd_res;
    {
        simd::ScopedOverride force(simd::Level::kScalar);
        litho::LithoSim sim(sc.litho);
        scalar_res = eng.optimize(layouts.front(), sim, opt);
    }
    {
        simd::ScopedOverride force(simd::detected_level());
        litho::LithoSim sim(sc.litho);
        simd_res = eng.optimize(layouts.front(), sim, opt);
    }
    EXPECT_EQ(scalar_res.final_offsets, simd_res.final_offsets);
    EXPECT_EQ(scalar_res.iterations, simd_res.iterations);
    const double tol = 1e-4 * (1.0 + std::abs(scalar_res.final_metrics.sum_abs_epe));
    EXPECT_NEAR(scalar_res.final_metrics.sum_abs_epe, simd_res.final_metrics.sum_abs_epe, tol);
}

}  // namespace
