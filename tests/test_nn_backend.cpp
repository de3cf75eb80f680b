// SIMD kernel-table equivalence suite.
//
// Pins the one contract the kernel tables ship under: every level gives the
// scalar table's bits.
//
//  * kernel identity — every entry of the detected level's table is
//    memcmp-equal to the scalar table's, fuzzed over random shapes (lane,
//    row and pixel tails, image borders, the policy's real shapes) with -0
//    and ±inf among the inputs, and a batched GEMM is bitwise identical to
//    the same rows issued one at a time;
//  * result identity — end to end, CAMO inference and a rule-engine run
//    (the SOCS apply's cmul + norm_acc loops) return the same EngineResult,
//    every metric included, bit for bit at the scalar and the detected
//    level; batched inference selects exactly what per-clip inference does.
//
// On a CPU without AVX2, or a build for another ISA, ScopedOverride clips to
// scalar and the comparisons degrade to scalar-vs-scalar: still valid,
// trivially green.
#include <gtest/gtest.h>

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

namespace {

using namespace camo;

constexpr float kInf = std::numeric_limits<float>::infinity();

// Uniform values in [-1, 1); with `specials`, about one in 16 is -0, +0,
// +inf or -inf.
void fill(float* v, std::size_t n, Rng& rng, bool specials) {
    const float kSpecial[4] = {-0.0F, 0.0F, kInf, -kInf};
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = specials && rng.uniform_int(0, 15) == 0 ? kSpecial[rng.uniform_int(0, 3)]
                                                       : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
}

void fill(nn::Tensor& t, Rng& rng, bool specials = false) {
    fill(t.data().data(), t.numel(), rng, specials);
}

// Byte equality: the kernel contract is memcmp, not tolerance.
template <class T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_same_metrics(const litho::SimMetrics& a, const litho::SimMetrics& b,
                         const std::string& ctx) {
    EXPECT_TRUE(same(a.epe, b.epe)) << ctx;
    EXPECT_TRUE(same(a.epe_segment, b.epe_segment)) << ctx;
    EXPECT_TRUE(same(a.sum_abs_epe, b.sum_abs_epe)) << ctx;
    EXPECT_TRUE(same(a.pvband_nm2, b.pvband_nm2)) << ctx;
}

// Every EngineResult field except the wall-clock runtime_s, bit for bit.
void expect_same_result(const opc::EngineResult& a, const opc::EngineResult& b,
                        const std::string& ctx) {
    EXPECT_EQ(a.final_offsets, b.final_offsets) << ctx;
    EXPECT_EQ(a.iterations, b.iterations) << ctx;
    expect_same_metrics(a.final_metrics, b.final_metrics, ctx);
    EXPECT_TRUE(same(a.epe_history, b.epe_history)) << ctx;
    EXPECT_TRUE(same(a.pvb_history, b.pvb_history)) << ctx;
    ASSERT_EQ(a.final_window.has_value(), b.final_window.has_value()) << ctx;
    if (!a.final_window) return;
    const litho::WindowMetrics& wa = *a.final_window;
    const litho::WindowMetrics& wb = *b.final_window;
    ASSERT_EQ(wa.corners.size(), wb.corners.size()) << ctx;
    for (std::size_t c = 0; c < wa.corners.size(); ++c) {
        expect_same_metrics(wa.corners[c].metrics, wb.corners[c].metrics, ctx);
        EXPECT_TRUE(same(wa.corners[c].printed_area_nm2, wb.corners[c].printed_area_nm2)) << ctx;
    }
    EXPECT_EQ(wa.worst_corner, wb.worst_corner) << ctx;
    EXPECT_TRUE(same(wa.worst_epe, wb.worst_epe)) << ctx;
    EXPECT_TRUE(same(wa.cd_min_nm2, wb.cd_min_nm2)) << ctx;
    EXPECT_TRUE(same(wa.cd_max_nm2, wb.cd_max_nm2)) << ctx;
    EXPECT_TRUE(same(wa.pv_band_exact_nm2, wb.pv_band_exact_nm2)) << ctx;
    EXPECT_TRUE(same(wa.pv_band_two_corner_nm2, wb.pv_band_two_corner_nm2)) << ctx;
}

// The table of the best level this build + CPU run.
const simd::Ops& detected_ops() {
    const simd::ScopedOverride force(simd::detected_level());
    return simd::ops();
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

// gemm_blocked at rows x in -> out, fresh and accumulating, against scalar.
void check_gemm(int rows, int in, int out, bool specials, Rng& rng) {
    nn::Tensor w({out, in});
    nn::Tensor b({out});
    fill(w, rng, specials);
    fill(b, rng, specials);
    if (specials) b[0] = -0.0F;
    const nn::PackedLinear m = nn::pack_linear(w, &b);
    ASSERT_EQ(m.out_padded % simd::kBlock, 0);
    std::vector<float> x(static_cast<std::size_t>(rows) * static_cast<std::size_t>(in));
    fill(x.data(), x.size(), rng, specials);
    for (const bool acc : {false, true}) {
        std::vector<float> ys(static_cast<std::size_t>(rows) * static_cast<std::size_t>(out));
        fill(ys.data(), ys.size(), rng, specials);
        std::vector<float> yv = ys;
        simd::scalar_ops().gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out,
                                        m.out_padded, ys.data(), acc);
        detected_ops().gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out,
                                    m.out_padded, yv.data(), acc);
        EXPECT_TRUE(same(ys, yv)) << "gemm rows " << rows << " in " << in << " out " << out
                                  << " accumulate " << acc << " specials " << specials;
    }
}

// conv2d_packed on one in_ch x h x wdt sample against scalar.
void check_conv(int in_ch, int out_ch, int k, int stride, int pad, int h, int wdt,
                bool specials, Rng& rng) {
    nn::Tensor cw({out_ch, in_ch, k, k});
    nn::Tensor cb({out_ch});
    fill(cw, rng, specials);
    fill(cb, rng, specials);
    if (specials) cb[0] = -0.0F;
    const nn::PackedConv2d pc = nn::pack_conv2d(cw, cb, stride, pad);
    const int oh = pc.out_size(h);
    const int ow = pc.out_size(wdt);
    std::vector<float> img(static_cast<std::size_t>(in_ch * h * wdt));
    fill(img.data(), img.size(), rng, specials);
    std::vector<float> ys(static_cast<std::size_t>(out_ch * oh * ow));
    std::vector<float> yv(ys.size());
    simd::scalar_ops().conv2d_packed(pc.w.data(), pc.b.data(), img.data(), in_ch, h, wdt, out_ch,
                                     pc.out_ch_padded, k, stride, pad, ys.data(), oh, ow);
    detected_ops().conv2d_packed(pc.w.data(), pc.b.data(), img.data(), in_ch, h, wdt, out_ch,
                                 pc.out_ch_padded, k, stride, pad, yv.data(), oh, ow);
    EXPECT_TRUE(same(ys, yv)) << "conv " << in_ch << "->" << out_ch << " k " << k << " stride "
                              << stride << " pad " << pad << " " << h << "x" << wdt
                              << " specials " << specials;
}

// cmul and norm_acc over n complex values against scalar.
void check_complex(std::size_t n, bool specials, Rng& rng) {
    std::vector<std::complex<float>> a(n);
    std::vector<std::complex<float>> b(n);
    fill(reinterpret_cast<float*>(a.data()), 2 * n, rng, specials);
    fill(reinterpret_cast<float*>(b.data()), 2 * n, rng, specials);
    if (specials) {
        // C99 Annex G: the scalar product recovers (inf, inf) * (1, 0) as
        // (inf, inf) where the textbook formula gives (NaN, NaN). Every
        // position modulo the vector width gets one.
        for (std::size_t i = 2; i < n; i += 5) {
            a[i] = {kInf, kInf};
            b[i] = {1.0F, 0.0F};
        }
    }
    std::vector<std::complex<float>> ps(n);
    std::vector<std::complex<float>> pv(n);
    simd::scalar_ops().cmul(a.data(), b.data(), ps.data(), n);
    detected_ops().cmul(a.data(), b.data(), pv.data(), n);
    EXPECT_TRUE(same(ps, pv)) << "cmul n " << n << " specials " << specials;

    std::vector<float> is(n, 0.25F);
    std::vector<float> iv(n, 0.25F);
    simd::scalar_ops().norm_acc(a.data(), 0.37F, is.data(), n);
    detected_ops().norm_acc(a.data(), 0.37F, iv.data(), n);
    EXPECT_TRUE(same(is, iv)) << "norm_acc n " << n << " specials " << specials;
}

// Every kernel of the detected level's table equals the scalar table byte
// for byte at random shapes, lane tails included.
TEST(SimdOps, KernelsBitIdenticalToScalarFuzz) {
    const simd::Ops& scalar = simd::scalar_ops();
    const simd::Ops& vec = detected_ops();
    EXPECT_EQ(scalar.level, simd::Level::kScalar);
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
        check_gemm(rows, in, out, trial % 2 == 1, rng);

        nn::Tensor w({out, in});
        fill(w, rng);
        const std::vector<float> x = random(static_cast<std::size_t>(rows * in), rng, false);
        const std::vector<float> dy = random(static_cast<std::size_t>(rows * out), rng, true);
        std::vector<float> dxs(static_cast<std::size_t>(rows * in));
        std::vector<float> dxv(dxs.size());
        scalar.gemm_nn(dy.data(), rows, out, w.data().data(), in, dxs.data());
        vec.gemm_nn(dy.data(), rows, out, w.data().data(), in, dxv.data());
        EXPECT_TRUE(same(dxs, dxv)) << "gemm_nn trial " << trial;

        for (const bool descending : {false, true}) {
            // Row-major dy [rows, out], and the transposed view [out, rows].
            for (const bool transposed : {false, true}) {
                std::vector<float> cs = random(static_cast<std::size_t>(out * in), rng, false);
                std::vector<float> cv = cs;
                const int rs = transposed ? 1 : out;
                const int cstride = transposed ? rows : 1;
                scalar.gemm_tn_acc(dy.data(), rs, cstride, x.data(), rows, out, in, cs.data(),
                                   descending);
                vec.gemm_tn_acc(dy.data(), rs, cstride, x.data(), rows, out, in, cv.data(),
                                descending);
                EXPECT_TRUE(same(cs, cv)) << "gemm_tn_acc trial " << trial;
            }
        }

        const int in_ch = rng.uniform_int(1, 20);
        const int out_ch = rng.uniform_int(1, 20);
        const int stride = rng.uniform_int(1, 2);
        const int h = rng.uniform_int(3, 12);
        const int oh = (h + 2 - 3) / stride + 1;
        check_conv(in_ch, out_ch, 3, stride, 1, h, h, trial % 2 == 0, rng);

        const int icp = (in_ch + simd::kBlock - 1) / simd::kBlock * simd::kBlock;
        const std::vector<float> wt =
            random(static_cast<std::size_t>(out_ch * 9 * icp), rng, false);
        const std::vector<float> cdy = random(static_cast<std::size_t>(out_ch * oh * oh), rng, true);
        std::vector<float> gs(static_cast<std::size_t>(in_ch * h * h));
        std::vector<float> gv(gs.size());
        scalar.conv2d_dx(wt.data(), cdy.data(), in_ch, icp, h, h, out_ch, 3, stride, 1, oh, oh,
                         gs.data());
        vec.conv2d_dx(wt.data(), cdy.data(), in_ch, icp, h, h, out_ch, 3, stride, 1, oh, oh,
                      gv.data());
        EXPECT_TRUE(same(gs, gv)) << "conv2d_dx trial " << trial;
    }

    // Narrow GEMMs (partial output blocks, few rows) and small convs.
    Rng shapes(0xBEEF);
    for (int trial = 0; trial < 30; ++trial) {
        const int in = shapes.uniform_int(1, 48);
        const int out = shapes.uniform_int(1, 40);
        const int rows = shapes.uniform_int(1, 6);
        check_gemm(rows, in, out, trial % 2 == 1, shapes);
    }
    for (int trial = 0; trial < 12; ++trial) {
        const int in_ch = shapes.uniform_int(1, 3);
        const int out_ch = shapes.uniform_int(1, 20);
        const int stride = shapes.uniform_int(1, 2);
        const int h = shapes.uniform_int(5, 9);
        check_conv(in_ch, out_ch, 3, stride, 1, h, h, trial % 2 == 1, shapes);
    }

    // The SOCS apply's loops: vector bodies, tails and lone elements.
    Rng values(0xACC);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                std::size_t{1013}}) {
        check_complex(n, false, values);
        check_complex(n, true, values);
    }
}

// The weight-gradient kernel at the policy's own shapes, which the random
// fuzz above (rows <= 9, k <= 70) never reaches: every register tile, the
// masked k tail and the odd last row, byte for byte against the scalar
// table. gemm_nn runs on the same tiles, so its fc / SAGE shapes ride along.
TEST(SimdOps, GemmTnAccBitIdenticalAtTrainingShapes) {
    const simd::Ops& scalar = simd::scalar_ops();
    const simd::Ops& vec = detected_ops();
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
        scalar.gemm_tn_acc(a.data(), rs, cstride, b.data(), rows, m, k, cs.data(), descending);
        vec.gemm_tn_acc(a.data(), rs, cstride, b.data(), rows, m, k, cv.data(), descending);
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
        scalar.gemm_nn(dy.data(), rows, 256, w.data(), 512, dxs.data());
        vec.gemm_nn(dy.data(), rows, 256, w.data(), 512, dxv.data());
        EXPECT_TRUE(same(dxs, dxv)) << "gemm_nn rows " << rows;
    }
}

// The forward tiles (src/common/simd_avx2_tiles.hpp) interleave accumulator
// chains but never reorder one: at the policy's real shapes and every tile
// edge (lane tails, row and pixel tails, image borders, 3 and 4 + 1 channel
// blocks), with -0 and ±inf inputs, every output equals the scalar table's.
TEST(SimdOps, ForwardKernelsBitIdenticalToScalarAtTileEdges) {
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
        check_gemm(gemms[t].rows, gemms[t].in, gemms[t].out, t % 2 == 1, rng);
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
                        check_conv(in_ch, out_ch, k, stride, pad, h, wdt, ++case_id % 3 == 0,
                                   rng);
                    }
                }
            }
        }
    }
}

TEST(SimdOps, BatchedRowsBitwiseEqualSingleRows) {
    Rng rng(0xF00D);
    for (const simd::Level level : {simd::Level::kScalar, simd::detected_level()}) {
        simd::ScopedOverride force(level);
        const simd::Ops& ops = simd::ops();
        for (int trial = 0; trial < 10; ++trial) {
            const int in = rng.uniform_int(1, 32);
            const int out = rng.uniform_int(1, 24);
            const int rows = rng.uniform_int(2, 8);
            nn::Tensor w({out, in});
            nn::Tensor b({out});
            fill(w, rng);
            fill(b, rng);
            const nn::PackedLinear m = nn::pack_linear(w, &b);

            std::vector<float> x(static_cast<std::size_t>(rows) * in);
            fill(x.data(), x.size(), rng, false);
            std::vector<float> batched(static_cast<std::size_t>(rows) * out);
            std::vector<float> single(batched.size());
            ops.gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out, m.out_padded,
                             batched.data(), false);
            for (int r = 0; r < rows; ++r) {
                ops.gemm_blocked(m.w.data(), m.b.data(), x.data() + static_cast<std::size_t>(r) * in,
                                 1, in, out, m.out_padded,
                                 single.data() + static_cast<std::size_t>(r) * out, false);
            }
            // The batching contract is exact, not approximate.
            EXPECT_TRUE(same(batched, single)) << "level " << simd::level_name(level);
        }
    }
}

// ---- end-to-end result identity ---------------------------------------------

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
        expect_same_result(scalar_res, simd_res, name);
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
    // Drive the incremental evaluation path (KernelApplicator's cmul +
    // norm_acc loops, the FFT line kernel) through a short rule-engine run
    // at both levels: the whole result, every metric included, is the same
    // bits.
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
    expect_same_result(scalar_res, simd_res, sc.name);
}

}  // namespace
