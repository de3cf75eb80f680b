// Micro-benchmarks (google-benchmark) of the computational substrates:
// FFT, rasterization, SOCS kernel builds, aerial imaging, full vs
// incremental evaluation, squish encoding, and policy inference and
// training steps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/experiment.hpp"
#include "core/graph.hpp"
#include "core/modulator.hpp"
#include "core/policy.hpp"
#include "core/squish.hpp"
#include "layout/metal_gen.hpp"
#include "litho/aerial.hpp"
#include "litho/incremental.hpp"
#include "litho/optics.hpp"
#include "litho/process_window.hpp"
#include "layout/shard.hpp"
#include "nn/backend.hpp"
#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "obs/trace.hpp"
#include "opc/sraf.hpp"
#include "rl/reward.hpp"
#include "rl/trajstore.hpp"
#include "runtime/stream_queue.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace camo;

// Times fft(grid) on a copy of `input` per iteration; the copy is untimed:
// repeated in-place transforms would overflow to inf (forward) or sink into
// denormals (inverse) within a few passes. Arg 0 picks the line kernel's
// level: 0 scalar, 1 the detected one.
template <typename Fft>
void time_fft(benchmark::State& state, const std::vector<litho::Complex>& input, Fft fft,
              const std::string& note = {}) {
    simd::ScopedOverride force(state.range(0) != 0 ? simd::detected_level()
                                                   : simd::Level::kScalar);
    std::vector<litho::Complex> grid = input;
    for (auto _ : state) {
        state.PauseTiming();
        std::copy(input.begin(), input.end(), grid.begin());
        state.ResumeTiming();
        fft(grid);
        benchmark::DoNotOptimize(grid.data());
        benchmark::ClobberMemory();
    }
    std::string label = simd::level_name(simd::active_level());
    state.SetLabel(label += note);
}

// Dense forward 2D FFT at the coarse SOCS grids (64, 128) and the mask
// grids (256, 512); Arg 1 = n.
void BM_Fft2d(benchmark::State& state) {
    const int n = static_cast<int>(state.range(1));
    Rng rng(1);
    std::vector<litho::Complex> input(static_cast<std::size_t>(n) * n);
    for (auto& c : input) c = {static_cast<float>(rng.uniform(0, 1)), 0.0F};
    time_fft(state, input, [n](std::span<litho::Complex> g) { litho::fft2d_forward(g, n); });
}
BENCHMARK(BM_Fft2d)->ArgsProduct({{0, 1}, {64, 128, 256, 512}});

// The row-sparse inverses of one production evaluation (the 512 grid, its
// kernel support of radius R): Arg 1 = 512 is the upsample's inverse, the
// band |kx|, |ky| <= 2R on the fine grid; Arg 1 = 128 is one SOCS kernel's
// field on the coarse grid, the support disk. Only the rows the band or
// disk occupies are transformed.
void BM_Fft2dInverseRowSparse(benchmark::State& state) {
    const int n = static_cast<int>(state.range(1));
    const std::vector<litho::FreqIndex> support =
        litho::tcc_support_freqs(core::Experiment::litho_config());
    std::vector<std::pair<int, int>> freqs;  // (ky, kx)
    if (n == 128) {
        for (const litho::FreqIndex& f : support) freqs.emplace_back(f.ky, f.kx);
    } else {
        int radius = 0;
        for (const litho::FreqIndex& f : support) {
            radius = std::max({radius, std::abs(f.kx), std::abs(f.ky)});
        }
        for (int ky = -2 * radius; ky <= 2 * radius; ++ky) {
            for (int kx = -2 * radius; kx <= 2 * radius; ++kx) freqs.emplace_back(ky, kx);
        }
    }
    Rng rng(2);
    std::vector<litho::Complex> input(static_cast<std::size_t>(n) * n);
    std::vector<std::uint8_t> row_nonzero(static_cast<std::size_t>(n), 0);
    for (const auto& [ky, kx] : freqs) {
        const auto row = static_cast<std::size_t>(((ky % n) + n) % n);
        const auto col = static_cast<std::size_t>(((kx % n) + n) % n);
        input[row * static_cast<std::size_t>(n) + col] = {static_cast<float>(rng.uniform(-1, 1)),
                                                          static_cast<float>(rng.uniform(-1, 1))};
        row_nonzero[row] = 1;
    }
    std::string note = ", ";
    note += std::to_string(std::count(row_nonzero.begin(), row_nonzero.end(), 1));
    note += " rows";
    time_fft(
        state, input,
        [n, &row_nonzero](std::span<litho::Complex> g) {
            litho::fft2d_inverse_rowsparse(g, n, row_nonzero);
        },
        note);
}
BENCHMARK(BM_Fft2dInverseRowSparse)->ArgsProduct({{0, 1}, {128, 512}});

// The incremental rebuild's mask spectrum: a via-like mask on the
// production 512 grid, forward-transformed with empty rows skipped and only
// the columns of the production kernel support transformed.
void BM_MaskSpectrumPruned(benchmark::State& state) {
    litho::LithoConfig cfg;
    cfg.grid = static_cast<int>(state.range(0));
    const int n = cfg.grid;
    geo::Raster mask(n, cfg.pixel_nm);
    for (int i = 0; i < 6; ++i) {
        const int x = 300 + i * 250;
        mask.add_polygon(geo::Polygon::from_rect({x, 600 + 40 * i, x + 70, 670 + 40 * i}));
    }
    mask.clamp01();
    const auto data = mask.data();
    std::vector<std::uint8_t> row_nonzero(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (std::bit_cast<std::uint32_t>(data[i]) != 0) {
            row_nonzero[i / static_cast<std::size_t>(n)] = 1;
        }
    }
    std::vector<std::uint8_t> col_needed(static_cast<std::size_t>(n), 0);
    for (const litho::FreqIndex& f : litho::tcc_support_freqs(cfg)) {
        col_needed[static_cast<std::size_t>(((f.kx % n) + n) % n)] = 1;
    }
    std::vector<litho::Complex> grid(data.size());
    for (auto _ : state) {
        for (std::size_t i = 0; i < data.size(); ++i) grid[i] = {data[i], 0.0F};
        litho::fft2d_forward_pruned(grid, n, row_nonzero, col_needed);
        benchmark::DoNotOptimize(grid.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MaskSpectrumPruned)->Arg(512);

void BM_RasterizeClip(benchmark::State& state) {
    std::vector<geo::Polygon> polys;
    for (int i = 0; i < 6; ++i) {
        const int x = 300 + i * 250;
        polys.push_back(geo::Polygon::from_rect({x, 600, x + 70, 670}));
    }
    geo::Raster raster(512, 4.0);
    for (auto _ : state) {
        raster.rasterize(polys);
        benchmark::DoNotOptimize(raster.data().data());
    }
}
BENCHMARK(BM_RasterizeClip);

litho::LithoConfig quick_config() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "data";
    return cfg;
}

litho::LithoSim& shared_sim() {
    static litho::LithoSim sim(quick_config());
    return sim;
}

void BM_AerialImage(benchmark::State& state) {
    litho::LithoSim& sim = shared_sim();
    geo::Raster mask(256, 4.0);
    mask.add_polygon(geo::Polygon::from_rect({460, 460, 540, 540}));
    for (auto _ : state) {
        const geo::Raster aerial = sim.aerial_nominal(mask);
        benchmark::DoNotOptimize(aerial.data().data());
    }
}
BENCHMARK(BM_AerialImage);

void BM_FullEvaluate(benchmark::State& state) {
    litho::LithoSim& sim = shared_sim();
    const int lo = 500 - 35;
    geo::SegmentedLayout layout({geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})},
                                {geo::FragmentStyle::kVia, 60}, {}, 1000);
    const std::vector<int> offsets(4, 3);
    for (auto _ : state) {
        const litho::SimMetrics m = sim.evaluate(layout, offsets);
        benchmark::DoNotOptimize(m.sum_abs_epe);
    }
}
BENCHMARK(BM_FullEvaluate);

// ---- Incremental vs full evaluation ----------------------------------------
// One metal clip (84 segments at the 60 nm pitch), swept over the number
// of segments moved per step. Arg = percent of segments moved per evaluation; Arg 0 = the full
// evaluate() baseline on the same layout. The speedup table is the ratio of
// the Arg 0 row to each incremental row.

const geo::SegmentedLayout& incremental_bench_layout() {
    static const geo::SegmentedLayout layout = [] {
        Rng rng(3);
        camo::layout::MetalGenOptions opt;
        opt.clip_nm = 1000;
        opt.margin_nm = 120;
        return geo::SegmentedLayout(camo::layout::generate_metal_clip(64, rng, opt),
                                    {geo::FragmentStyle::kMetal, 60}, {}, opt.clip_nm);
    }();
    return layout;
}

void BM_FullEvaluateMetal(benchmark::State& state) {
    litho::LithoSim& sim = shared_sim();
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 2);
    int step = 0;
    for (auto _ : state) {
        offsets[static_cast<std::size_t>(step++ % layout.num_segments())] ^= 1;
        const litho::SimMetrics m = sim.evaluate(layout, offsets);
        benchmark::DoNotOptimize(m.sum_abs_epe);
    }
}
BENCHMARK(BM_FullEvaluateMetal);

void BM_IncrementalEvaluate(benchmark::State& state) {
    litho::LithoSim sim(shared_sim());  // private incremental cache
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    const int segments = layout.num_segments();
    const int moved = std::max(1, segments * static_cast<int>(state.range(0)) / 100);

    std::vector<int> offsets(static_cast<std::size_t>(segments), 2);
    benchmark::DoNotOptimize(
        sim.evaluate_incremental(layout, offsets, litho::Refresh::kPrime).sum_abs_epe);

    int cursor = 0;
    int sign = 1;
    for (auto _ : state) {
        for (int j = 0; j < moved; ++j) {
            offsets[static_cast<std::size_t>(cursor++ % segments)] += sign;
        }
        if (cursor >= segments) {
            cursor = 0;
            sign = -sign;  // walk offsets back so they stay bounded
        }
        const litho::SimMetrics m =
            sim.evaluate_incremental(layout, offsets, litho::Refresh::kUpdate);
        benchmark::DoNotOptimize(m.sum_abs_epe);
    }
    state.counters["hit_rate"] = benchmark::Counter(
        static_cast<double>(sim.incremental_hit_count()) /
        static_cast<double>(std::max(1LL, sim.incremental_hit_count() +
                                              sim.incremental_full_count())));
}
BENCHMARK(BM_IncrementalEvaluate)->Arg(1)->Arg(5)->Arg(10)->Arg(25)->Arg(50);

// ---- Process-window sweep vs N independent evaluations ---------------------
// The standard window (3 doses x 2 focuses = 6 corners) on the metal clip.
// The baseline images every corner with its own evaluate() call — its own
// rasterization and forward FFT each time; the sweep rasterizes once and
// shares one spectrum (and, on the incremental variant, the cached raster +
// spectrum from the previous iteration) across all corners. The speedup is
// the ratio of BM_WindowIndependentEvaluates to the sweep rows.

void BM_WindowIndependentEvaluates(benchmark::State& state) {
    litho::LithoSim& sim = shared_sim();
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim.config());
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 2);
    for (auto _ : state) {
        double worst = 0.0;
        for (int c = 0; c < spec.corner_count(); ++c) {
            const litho::SimMetrics m = sim.evaluate(layout, offsets);
            worst = std::max(worst, m.sum_abs_epe);
        }
        benchmark::DoNotOptimize(worst);
    }
}
BENCHMARK(BM_WindowIndependentEvaluates);

void BM_WindowSweep(benchmark::State& state) {
    litho::LithoSim& sim = shared_sim();
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim.config());
    const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 2);
    for (auto _ : state) {
        const litho::WindowMetrics w = sim.evaluate(layout, offsets, spec);
        benchmark::DoNotOptimize(w.worst_epe);
    }
}
BENCHMARK(BM_WindowSweep);

void BM_WindowSweepIncremental(benchmark::State& state) {
    litho::LithoSim sim(shared_sim());  // private incremental cache
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim.config());
    const int segments = layout.num_segments();
    std::vector<int> offsets(static_cast<std::size_t>(segments), 2);
    benchmark::DoNotOptimize(
        sim.evaluate_incremental(layout, offsets, litho::Refresh::kPrime).sum_abs_epe);

    // One segment moves per sweep: the OPC-loop scenario where each window
    // evaluation reuses the cached raster + spectrum via one sparse delta.
    int cursor = 0;
    int sign = 1;
    for (auto _ : state) {
        offsets[static_cast<std::size_t>(cursor++ % segments)] += sign;
        if (cursor >= segments) {
            cursor = 0;
            sign = -sign;  // walk offsets back so they stay bounded
        }
        const litho::WindowMetrics w =
            sim.evaluate_incremental(layout, offsets, spec, litho::Refresh::kUpdate);
        benchmark::DoNotOptimize(w.worst_epe);
    }
}
BENCHMARK(BM_WindowSweepIncremental);

// ---- Nominal vs window reward: per-step cost of the RL reward modes --------
// One policy step on the metal clip scored under each reward mode: the
// nominal row pays one incremental evaluation + step_reward, the
// worst-corner row one incremental window sweep (cached spectrum serving
// every corner) + window_step_reward. The ratio is the per-step price of
// optimizing through the window instead of the nominal corner.

void BM_RewardNominalStep(benchmark::State& state) {
    litho::LithoSim sim(shared_sim());  // private incremental cache
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    const int segments = layout.num_segments();
    std::vector<int> offsets(static_cast<std::size_t>(segments), 2);
    litho::SimMetrics m = sim.evaluate_incremental(layout, offsets, litho::Refresh::kPrime);

    int cursor = 0;
    int sign = 1;
    for (auto _ : state) {
        offsets[static_cast<std::size_t>(cursor++ % segments)] += sign;
        if (cursor >= segments) {
            cursor = 0;
            sign = -sign;  // walk offsets back so they stay bounded
        }
        const litho::SimMetrics m2 =
            sim.evaluate_incremental(layout, offsets, litho::Refresh::kUpdate);
        const double r =
            rl::step_reward(m.sum_abs_epe, m2.sum_abs_epe, m.pvband_nm2, m2.pvband_nm2);
        benchmark::DoNotOptimize(r);
        m = m2;
    }
}
BENCHMARK(BM_RewardNominalStep);

void BM_RewardWorstCornerStep(benchmark::State& state) {
    litho::LithoSim sim(shared_sim());  // private incremental cache
    const geo::SegmentedLayout& layout = incremental_bench_layout();
    const litho::WindowSpec spec = litho::WindowSpec::standard(sim.config());
    rl::WindowRewardConfig reward;
    reward.mode = rl::RewardMode::kWorstCorner;
    const int segments = layout.num_segments();
    std::vector<int> offsets(static_cast<std::size_t>(segments), 2);
    litho::WindowMetrics w =
        sim.evaluate_incremental(layout, offsets, spec, litho::Refresh::kPrime);

    int cursor = 0;
    int sign = 1;
    for (auto _ : state) {
        offsets[static_cast<std::size_t>(cursor++ % segments)] += sign;
        if (cursor >= segments) {
            cursor = 0;
            sign = -sign;  // walk offsets back so they stay bounded
        }
        const litho::WindowMetrics w2 =
            sim.evaluate_incremental(layout, offsets, spec, litho::Refresh::kUpdate);
        const double r = rl::window_step_reward(w, w2, reward);
        benchmark::DoNotOptimize(r);
        w = w2;
    }
}
BENCHMARK(BM_RewardWorstCornerStep);

// ---- Data-parallel training runtime ----------------------------------------
// Teacher-trajectory collection and one phase-1 imitation epoch on the via
// training set, swept over the worker count (Arg). Results are bit-identical
// at any width (the trainer's fixed-order gradient reduction), so the rows
// measure pure scaling; the speedup table is the ratio of the Arg 1 row to
// each wider row. The epoch row uses whole-epoch minibatches (phase1_batch
// 0) — the configuration with the most exposed parallelism, since samples
// within a minibatch run concurrently and minibatches are sequential.

camo::core::CamoConfig train_bench_config(int workers) {
    camo::core::CamoConfig cfg;
    cfg.policy.squish_size = 32;
    cfg.squish.size = 32;
    cfg.teacher_steps = 5;
    cfg.teacher_biases = {3, 0, 8};
    cfg.train_workers = workers;
    cfg.phase1_batch = 0;  // whole-epoch minibatch: maximum exposed parallelism
    cfg.seed = 7;
    return cfg;
}

const std::vector<geo::SegmentedLayout>& train_bench_clips() {
    static const std::vector<geo::SegmentedLayout> clips = [] {
        layout::ViaGenOptions gen;
        gen.clip_nm = 1000;  // fits the shared 256-grid simulator's span
        gen.margin_nm = 200;
        gen.min_spacing_nm = 120;
        return core::fragment_via_clips(layout::via_batch_set(7, 3, gen));
    }();
    return clips;
}

void BM_TeacherCollect(benchmark::State& state) {
    const int workers = static_cast<int>(state.range(0));
    core::CamoEngine engine(train_bench_config(workers));
    litho::LithoSim sim(shared_sim());
    const opc::OpcOptions opt = core::Experiment::via_options();
    std::size_t samples = 0;
    for (auto _ : state) {
        const core::Phase1Dataset data =
            engine.collect_teacher_data(train_bench_clips(), sim, opt);
        samples = data.samples.size();
        benchmark::DoNotOptimize(samples);
    }
    state.counters["samples"] = static_cast<double>(samples);
    state.counters["workers"] = workers;
}
BENCHMARK(BM_TeacherCollect)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Phase1Epoch(benchmark::State& state) {
    const int workers = static_cast<int>(state.range(0));
    core::CamoEngine engine(train_bench_config(workers));
    litho::LithoSim sim(shared_sim());
    const core::Phase1Dataset data =
        engine.collect_teacher_data(train_bench_clips(), sim, core::Experiment::via_options());
    for (auto _ : state) {
        const double nll = engine.run_phase1_epoch(data);
        benchmark::DoNotOptimize(nll);
    }
    state.counters["samples"] = static_cast<double>(data.samples.size());
    state.counters["workers"] = workers;
}
BENCHMARK(BM_Phase1Epoch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Packed trajectory store ------------------------------------------------
// The store is the teacher dataset's file format: append+flush of a freshly
// collected dataset, and the load that decodes it back into a
// Phase1Dataset. Training on the loaded dataset is BM_Phase1Epoch/1.

void BM_TrajAppend(benchmark::State& state) {
    litho::LithoSim sim(shared_sim());
    const std::string path = "/tmp/camo_bench_traj.ctrj";
    // One collection, re-appended every iteration: measures store encode +
    // dedupe + atomic publish, not the teacher.
    core::CamoEngine collector(train_bench_config(1));
    const core::Phase1Dataset data = collector.collect_teacher_data(
        train_bench_clips(), sim, core::Experiment::via_options());
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        rl::TrajStoreWriter writer(path, collector.state_dims());
        core::append_teacher_data(data, writer);
        writer.flush();
        bytes = writer.byte_size();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["bytes"] = static_cast<double>(bytes);
    state.counters["steps"] = static_cast<double>(data.samples.size());
    std::remove(path.c_str());
}
BENCHMARK(BM_TrajAppend)->Unit(benchmark::kMillisecond);

void BM_TrajLoad(benchmark::State& state) {
    core::CamoEngine engine(train_bench_config(1));
    litho::LithoSim sim(shared_sim());
    const std::string path = "/tmp/camo_bench_traj_load.ctrj";
    rl::TrajStoreWriter writer(path, engine.state_dims());
    core::append_teacher_data(
        engine.collect_teacher_data(train_bench_clips(), sim, core::Experiment::via_options()),
        writer);
    writer.flush();
    const rl::TrajStoreReader reader(path);
    for (auto _ : state) {
        const core::Phase1Dataset data = engine.load_teacher_data(reader, train_bench_clips());
        benchmark::DoNotOptimize(data.samples.data());
    }
    state.counters["steps"] = static_cast<double>(reader.step_count());
    state.counters["states"] = static_cast<double>(reader.state_count());
    std::remove(path.c_str());
}
BENCHMARK(BM_TrajLoad)->Unit(benchmark::kMillisecond);

void BM_SquishEncode(benchmark::State& state) {
    const std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({465, 465, 535, 535})};
    std::vector<geo::Polygon> mask = {geo::Polygon::from_rect({462, 462, 538, 538})};
    const auto srafs = opc::insert_srafs(targets);
    mask.insert(mask.end(), srafs.begin(), srafs.end());
    const core::SquishOptions opt{500, static_cast<int>(state.range(0))};
    for (auto _ : state) {
        const nn::Tensor t = core::encode_squish_window(mask, targets, {500.0, 465.0}, opt);
        benchmark::DoNotOptimize(t.data().data());
    }
}
BENCHMARK(BM_SquishEncode)->Arg(32)->Arg(64);

// One state encode of a fragmented 24-point metal clip into a feature
// buffer reused across iterations, as the CAMO rollouts do. Arg = squish size.
void BM_EncodeState(benchmark::State& state) {
    Rng rng(5);
    camo::layout::MetalGenOptions gen;
    gen.clip_nm = 1000;
    gen.margin_nm = 120;
    const geo::SegmentedLayout layout(camo::layout::generate_metal_clip(24, rng, gen),
                                      {geo::FragmentStyle::kMetal, 60}, {}, gen.clip_nm);
    core::CamoConfig cfg;
    cfg.squish.size = static_cast<int>(state.range(0));
    cfg.policy.squish_size = cfg.squish.size;
    const core::CamoEngine engine(cfg);
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()));
    for (std::size_t i = 0; i < offsets.size(); ++i) offsets[i] = static_cast<int>(i % 7) - 3;
    std::vector<nn::Tensor> feats;
    for (auto _ : state) {
        engine.encode_state(layout, offsets, feats);
        benchmark::DoNotOptimize(feats.data());
    }
    state.counters["windows"] = static_cast<double>(layout.num_segments());
}
BENCHMARK(BM_EncodeState)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// One clip of n chained nodes at S = 32 with the default (paper-width)
// policy: the shape of every policy row below.
struct PolicyClip {
    core::Graph graph;
    std::vector<nn::Tensor> feats;

    PolicyClip(int n, int squish) {
        graph.n = n;
        graph.neighbors.assign(static_cast<std::size_t>(n), {});
        for (int i = 0; i + 1 < n; ++i) {
            graph.neighbors[static_cast<std::size_t>(i)].push_back(i + 1);
            graph.neighbors[static_cast<std::size_t>(i + 1)].push_back(i);
        }
        Rng rng(1);
        for (int i = 0; i < n; ++i) {
            nn::Tensor t({6, squish, squish});
            for (float& v : t.data()) v = static_cast<float>(rng.uniform(0, 1));
            feats.push_back(std::move(t));
        }
    }
};

core::PolicyConfig bench_policy_config(int squish = 32) {
    core::PolicyConfig cfg;
    cfg.squish_size = squish;
    return cfg;
}

// Training forward alone (keeps the flat tape), on
// weights packed once, as the trainer packs once per weight update.
void BM_PolicyForward(benchmark::State& state) {
    core::PolicyNetwork net(bench_policy_config());
    const PolicyClip clip(static_cast<int>(state.range(0)), 32);
    const auto weights = net.pack();
    for (auto _ : state) {
        const nn::Tensor logits = net.forward(weights, clip.feats, clip.graph);
        benchmark::DoNotOptimize(logits.data().data());
    }
}
BENCHMARK(BM_PolicyForward)->Arg(8)->Arg(12)->Arg(24);

// One training step's policy work: forward plus backward through the
// training path (the per-sample unit of phase 1 and phase 2), on weights
// packed once outside the loop. Compare with BM_PolicyInfer at the same n;
// n = 12 is the train workload's mean node count.
void BM_PolicyTrainStep(benchmark::State& state) {
    core::PolicyNetwork net(bench_policy_config());
    const PolicyClip clip(static_cast<int>(state.range(0)), 32);
    nn::Tensor dlogits({clip.graph.n, 5});
    for (std::size_t i = 0; i < dlogits.numel(); ++i) {
        dlogits[i] = static_cast<float>(i % 7) * 0.1F - 0.3F;
    }
    const auto weights = net.pack();
    for (auto _ : state) {
        const nn::Tensor logits = net.forward(weights, clip.feats, clip.graph);
        net.backward(dlogits);
        benchmark::DoNotOptimize(logits.data().data());
    }
    state.SetLabel(simd::level_name(simd::active_level()));
}
BENCHMARK(BM_PolicyTrainStep)->Arg(8)->Arg(12)->Arg(24)->Unit(benchmark::kMillisecond);

// Packed inference of the same clip on the active kernel table, at
// S = 32 and (the /S64/ rows) at the paper's metal resolution S = 64.
void BM_PolicyInfer(benchmark::State& state, int squish) {
    const core::PolicyNetwork net(bench_policy_config(squish));
    const PolicyClip clip(static_cast<int>(state.range(0)), squish);
    for (auto _ : state) {
        const nn::Tensor logits = net.infer(clip.feats, clip.graph);
        benchmark::DoNotOptimize(logits.data().data());
    }
    state.SetLabel(simd::level_name(simd::active_level()));
}
void BM_PolicyInfer(benchmark::State& state) { BM_PolicyInfer(state, 32); }
BENCHMARK(BM_PolicyInfer)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyInfer, S64, 64)->Arg(24)->Unit(benchmark::kMillisecond);

// ---- Policy kernels ----------------------------------------------------------
// First arg: 0 = the scalar table, 1 = the detected level's (whatever
// CAMO_BACKEND says).

const simd::Ops& kernel_table(benchmark::State& state) {
    const simd::ScopedOverride force(state.range(0) != 0 ? simd::detected_level()
                                                         : simd::Level::kScalar);
    state.SetLabel(simd::level_name(simd::active_level()));
    return simd::ops();
}

// One sample through encoder conv 1, 2 or 3 at S = 32 (3x3, stride 2,
// pad 1): 6 -> 8 channels on 32x32, 8 -> 16 on 16x16, 16 -> 32 on 8x8.
void BM_ConvPacked(benchmark::State& state) {
    const simd::Ops& t = kernel_table(state);
    const int layer = static_cast<int>(state.range(1));
    const int in_ch = layer == 1 ? 6 : 8 << (layer - 2);
    const int out_ch = 8 << (layer - 1);
    const int h = 32 >> (layer - 1);
    Rng rng(11);
    nn::Tensor w({out_ch, in_ch, 3, 3});
    nn::Tensor b({out_ch});
    for (float& v : w.data()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b.data()) v = static_cast<float>(rng.uniform(-1, 1));
    const nn::PackedConv2d m = nn::pack_conv2d(w, b, 2, 1);
    const int oh = m.out_size(h);
    std::vector<float> x(static_cast<std::size_t>(in_ch * h * h));
    for (float& v : x) v = static_cast<float>(rng.uniform(0, 1));
    std::vector<float> y(static_cast<std::size_t>(out_ch * oh * oh));
    for (auto _ : state) {
        t.conv2d_packed(m.w.data(), m.b.data(), x.data(), in_ch, h, h, out_ch, m.out_ch_padded, 3,
                        2, 1, y.data(), oh, oh);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_ConvPacked)->ArgsProduct({{0, 1}, {1, 2, 3}});

// y = x W^T + b at the fc / SAGE shape (second arg 0: 24 rows, 512 -> 256)
// and as the RNN recurrence's GEMV (1: one row, 64 -> 64, accumulating).
void BM_GemmBlocked(benchmark::State& state) {
    const simd::Ops& t = kernel_table(state);
    const bool gemv = state.range(1) != 0;
    const int rows = gemv ? 1 : 24;
    const int in = gemv ? 64 : 512;
    const int out = gemv ? 64 : 256;
    Rng rng(12);
    nn::Tensor w({out, in});
    nn::Tensor b({out});
    for (float& v : w.data()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b.data()) v = static_cast<float>(rng.uniform(-1, 1));
    const nn::PackedLinear m = nn::pack_linear(w, &b);
    std::vector<float> x(static_cast<std::size_t>(rows * in));
    for (float& v : x) v = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> y(static_cast<std::size_t>(rows * out), 0.0F);
    for (auto _ : state) {
        t.gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, in, out, m.out_padded, y.data(),
                       gemv);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_GemmBlocked)->ArgsProduct({{0, 1}, {0, 1}});

// One weight-gradient accumulation c += a^T b (Ops::gemm_tn_acc) at the
// training shapes. Second arg: 0 = the fc / SAGE weight gradient (24 nodes, 256 x
// 512, dy row-major), 1..3 = one node's conv1..conv3 weight gradient
// (out_ch x taps over the output pixels, dy channel-major). c keeps
// accumulating across iterations.
void BM_GemmTnAcc(benchmark::State& state) {
    const simd::Ops& t = kernel_table(state);
    struct Shape {
        int rows, m, k;
        bool pixels_major;
    };
    static constexpr Shape kShapes[] = {
        {24, 256, 512, false}, {256, 8, 54, true}, {64, 16, 72, true}, {16, 32, 144, true}};
    const Shape s = kShapes[state.range(1)];
    Rng rng(13);
    std::vector<float> a(static_cast<std::size_t>(s.rows * s.m));
    std::vector<float> b(static_cast<std::size_t>(s.rows * s.k));
    for (float& v : a) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.k), 0.0F);
    const int row_stride = s.pixels_major ? 1 : s.m;
    const int col_stride = s.pixels_major ? s.rows : 1;
    for (auto _ : state) {
        t.gemm_tn_acc(a.data(), row_stride, col_stride, b.data(), s.rows, s.m, s.k, c.data(),
                      !s.pixels_major);
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_GemmTnAcc)->ArgsProduct({{0, 1}, {0, 1, 2, 3}});

// ---- Inference backend (PR 9) ----------------------------------------------
// Arg(0) on every row: 0 = scalar reference kernels, 1 = the best SIMD level
// of this build + CPU (identical to scalar when neither provides one). The
// speedup table is the ratio of each /0/... row to its /1/... twin.

// Packed GEMM at policy-head scale, swept over the batched row count.
void BM_LinearForward(benchmark::State& state) {
    const bool simd_on = state.range(0) != 0;
    const int rows = static_cast<int>(state.range(1));
    constexpr int kIn = 64;
    constexpr int kOut = 64;
    Rng rng(5);
    nn::Tensor w({kOut, kIn});
    nn::Tensor b({kOut});
    for (float& v : w.data()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : b.data()) v = static_cast<float>(rng.uniform(-1, 1));
    const nn::PackedLinear m = nn::pack_linear(w, &b);
    std::vector<float> x(static_cast<std::size_t>(rows) * kIn, 0.5F);
    std::vector<float> y(static_cast<std::size_t>(rows) * kOut);

    simd::ScopedOverride force(simd_on ? simd::detected_level() : simd::Level::kScalar);
    const simd::Ops& ops = simd::ops();
    for (auto _ : state) {
        ops.gemm_blocked(m.w.data(), m.b.data(), x.data(), rows, kIn, kOut, m.out_padded, y.data(),
                         false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * rows);
    state.SetLabel(simd::level_name(simd::active_level()));
}
BENCHMARK(BM_LinearForward)->Args({0, 1})->Args({1, 1})->Args({0, 8})->Args({1, 8})
    ->Args({0, 32})->Args({1, 32});

// Full policy evaluation over a wave of clips: the /0 row issues one
// single-clip packed forward per clip on the scalar kernels (the pre-PR
// serving shape); the /1 row one batched forward over all clips on the SIMD
// kernels — the tentpole speedup the README table quotes.
void BM_BatchedInfer(benchmark::State& state) {
    const bool batched_simd = state.range(0) != 0;
    const int clips = static_cast<int>(state.range(1));
    constexpr int kNodes = 8;
    core::PolicyConfig cfg;
    cfg.squish_size = 32;
    core::PolicyNetwork net(cfg);

    core::Graph g;
    g.n = kNodes;
    g.neighbors.assign(kNodes, {});
    for (int i = 0; i + 1 < kNodes; ++i) {
        g.neighbors[static_cast<std::size_t>(i)].push_back(i + 1);
        g.neighbors[static_cast<std::size_t>(i + 1)].push_back(i);
    }
    Rng rng(1);
    std::vector<std::vector<nn::Tensor>> feats(static_cast<std::size_t>(clips));
    for (auto& clip_feats : feats) {
        for (int i = 0; i < kNodes; ++i) {
            nn::Tensor t({6, 32, 32});
            for (float& v : t.data()) v = static_cast<float>(rng.uniform(0, 1));
            clip_feats.push_back(std::move(t));
        }
    }
    std::vector<core::PolicyNetwork::ClipRequest> requests;
    for (const auto& clip_feats : feats) requests.push_back({&clip_feats, &g});

    simd::ScopedOverride force(batched_simd ? simd::detected_level() : simd::Level::kScalar);
    for (auto _ : state) {
        if (batched_simd) {
            const std::vector<nn::Tensor> logits = net.infer_batch(requests);
            benchmark::DoNotOptimize(logits.data());
        } else {
            for (const auto& clip_feats : feats) {
                const nn::Tensor logits = net.infer(clip_feats, g);
                benchmark::DoNotOptimize(logits.data().data());
            }
        }
    }
    state.SetItemsProcessed(state.iterations() * clips * kNodes);
    state.SetLabel(simd::level_name(simd::active_level()));
}
BENCHMARK(BM_BatchedInfer)->Args({0, 8})->Args({1, 8})->Args({0, 32})->Args({1, 32});

// The two KernelApplicator hot loops (litho/aerial.cpp) in isolation:
// per SOCS kernel, multiply the delta spectrum by the kernel coefficients
// over the support, then accumulate lambda * |field|^2 into the intensity
// map. Arg(1) = support size in complex elements (4096 ~ a sparse segment
// delta, 65536 = a full 256x256 frame); 11 kernels per evaluation, matching
// shared_sim()'s 6 nominal + 5 defocus.
void BM_SupportApply(benchmark::State& state) {
    const bool simd_on = state.range(0) != 0;
    const std::size_t support = static_cast<std::size_t>(state.range(1));
    constexpr int kKernels = 11;
    Rng rng(9);
    std::vector<std::complex<float>> spectrum(support);
    for (auto& c : spectrum) {
        c = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
    }
    std::vector<std::vector<std::complex<float>>> coeffs(kKernels, spectrum);
    std::vector<std::complex<float>> prod(support);
    std::vector<float> intensity(support, 0.0F);

    simd::ScopedOverride force(simd_on ? simd::detected_level() : simd::Level::kScalar);
    const simd::Ops& ops = simd::ops();
    for (auto _ : state) {
        for (int k = 0; k < kKernels; ++k) {
            ops.cmul(coeffs[static_cast<std::size_t>(k)].data(), spectrum.data(), prod.data(),
                     support);
            ops.norm_acc(prod.data(), 0.3F, intensity.data(), support);
        }
        benchmark::DoNotOptimize(intensity.data());
    }
    state.SetItemsProcessed(state.iterations() * kKernels * static_cast<long long>(support));
    state.SetLabel(simd::level_name(simd::active_level()));
}
BENCHMARK(BM_SupportApply)->Args({0, 4096})->Args({1, 4096})->Args({0, 65536})
    ->Args({1, 65536});

// One incremental evaluation's two aerial images from support values:
// nominal + i*defocus through one packed KernelApplicator upsample.
// Arg = fine grid: 256 is shared_sim()'s quick config, 512 the production
// config of core::Experiment::litho_config() (8 + 6 kernels, coarse grid
// 128).
const litho::LithoSim& production_sim() {
    static const litho::LithoSim sim(core::Experiment::litho_config());
    return sim;
}

// A via-like mask's spectrum sampled at one kernel set's support.
std::vector<litho::Complex> via_support_values(const litho::LithoSim& sim,
                                               const litho::KernelSet& ks) {
    const int n = sim.config().grid;
    const int span = static_cast<int>(n * sim.config().pixel_nm);
    geo::Raster mask(n, sim.config().pixel_nm);
    for (int i = 0; i < 6; ++i) {
        const int x = span / 8 + i * span / 8;
        const int y = span / 3 + 20 * i;
        mask.add_polygon(geo::Polygon::from_rect({x, y, x + 70, y + 70}));
    }
    mask.clamp01();
    const std::vector<litho::Complex> spectrum = litho::mask_spectrum(mask);
    std::vector<litho::Complex> vals;
    for (const litho::FreqIndex& f : ks.support) {
        vals.push_back(spectrum[static_cast<std::size_t>(((f.ky % n + n) % n) * n +
                                                         (f.kx % n + n) % n)]);
    }
    return vals;
}

void BM_SupportApplyAerials(benchmark::State& state) {
    const int grid = static_cast<int>(state.range(0));
    const litho::LithoSim& sim = grid == 256 ? shared_sim() : production_sim();
    const double px = sim.config().pixel_nm;
    const litho::KernelApplicator nominal(sim.nominal_kernels(), grid);
    const litho::KernelApplicator defocus(sim.defocus_kernels(), grid);
    const std::vector<litho::Complex> nv = via_support_values(sim, sim.nominal_kernels());
    const std::vector<litho::Complex> dv = via_support_values(sim, sim.defocus_kernels());
    for (auto _ : state) {
        const auto [nom, def] = nominal.apply_pair(nv, defocus, dv, px);
        benchmark::DoNotOptimize(nom.data().data());
        benchmark::DoNotOptimize(def.data().data());
    }
    state.SetLabel("coarse " + std::to_string(nominal.coarse_grid()));
}
BENCHMARK(BM_SupportApplyAerials)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// One nominal SOCS kernel set built from scratch, as a run without a disk
// cache builds it: the TCC operator's pupil scan plus the randomized
// subspace iteration. Arg = fine grid, configs as in BM_SupportApplyAerials.
void BM_SocsKernelBuild(benchmark::State& state) {
    const litho::LithoConfig cfg =
        state.range(0) == 256 ? quick_config() : core::Experiment::litho_config();
    for (auto _ : state) {
        const litho::KernelSet ks = litho::compute_socs_kernels(cfg, 0.0, cfg.kernels_nominal);
        benchmark::DoNotOptimize(ks.coeffs.data());
    }
    state.SetLabel("support " + std::to_string(litho::tcc_support_freqs(cfg).size()));
}
BENCHMARK(BM_SocsKernelBuild)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_Modulator(benchmark::State& state) {
    double epe = -8.0;
    for (auto _ : state) {
        const auto p = core::modulation_vector(epe, {});
        benchmark::DoNotOptimize(p[0]);
        epe = epe >= 8.0 ? -8.0 : epe + 0.5;
    }
}
BENCHMARK(BM_Modulator);

// Telemetry hot-path cost: Arg(0) = disabled (one relaxed load + branch; the
// acceptance bar is <= ~5 ns/op), Arg(1) = enabled (thread-local shard add /
// trace-ring write). State is restored so later rows stay untelemetered.
void BM_CounterIncrement(benchmark::State& state) {
    const bool was_enabled = obs::metrics_enabled();
    obs::set_metrics_enabled(state.range(0) != 0);
    const obs::MetricId id = obs::register_counter("bench.counter_increment");
    for (auto _ : state) {
        obs::counter_add(id);
    }
    obs::set_metrics_enabled(was_enabled);
}
BENCHMARK(BM_CounterIncrement)->Arg(0)->Arg(1);

void BM_SpanEnterExit(benchmark::State& state) {
    const bool was_tracing = obs::tracing_enabled();
    const bool was_metered = obs::metrics_enabled();
    obs::set_tracing_enabled(state.range(0) != 0);
    obs::set_metrics_enabled(state.range(0) != 0);
    const obs::MetricId hist = obs::register_histogram("bench.span.ns");
    for (auto _ : state) {
        const obs::Span span("bench.span", hist);
        benchmark::DoNotOptimize(&span);
    }
    obs::set_tracing_enabled(was_tracing);
    obs::set_metrics_enabled(was_metered);
}
BENCHMARK(BM_SpanEnterExit)->Arg(0)->Arg(1);

// --------------------------------------------------------- full-chip shard

// Shared chip for the shard/stitch rows: Arg = cells per side of a square
// grid of via3 scenario cells at 1000 nm pitch.
std::vector<geo::Polygon> bench_chip(int cells) {
    const scenario::Scenario sc = scenario::Registry::instance().get("via3");
    return scenario::chip_polygons(sc, cells, cells);
}

layout::ShardOptions bench_shard_options() {
    layout::ShardOptions opt;
    opt.tile_nm = 512;
    opt.halo_nm = 256;
    opt.fragment.style = geo::FragmentStyle::kVia;
    opt.sraf_gen = [](const std::vector<geo::Polygon>& t) { return opc::insert_srafs(t); };
    opt.auto_origin = false;
    return opt;
}

// Cutting a chip into halo-padded tiles: ownership assignment, membership
// scan, per-tile fragmentation and SRAF insertion.
void BM_Shard(benchmark::State& state) {
    const std::vector<geo::Polygon> chip = bench_chip(static_cast<int>(state.range(0)));
    const layout::ShardOptions opt = bench_shard_options();
    const litho::LithoConfig litho = scenario::quick_litho();
    std::size_t tiles = 0;
    for (auto _ : state) {
        const layout::TileSharder sharder(chip, opt, litho);
        tiles = sharder.tiles().size();
        benchmark::DoNotOptimize(&sharder);
    }
    state.counters["tiles"] = static_cast<double>(tiles);
    state.counters["polygons"] = static_cast<double>(chip.size());
}
BENCHMARK(BM_Shard)->Arg(2)->Arg(4);

// Owner-wins reassembly of per-tile offsets into the chip frame plus mask
// reconstruction — the post-OPC half of the pipeline.
void BM_Stitch(benchmark::State& state) {
    const std::vector<geo::Polygon> chip = bench_chip(static_cast<int>(state.range(0)));
    const layout::TileSharder sharder(chip, bench_shard_options(), scenario::quick_litho());
    const geo::SegmentedLayout chip_layout = sharder.chip_layout();
    std::vector<std::vector<int>> tile_offsets;
    for (const layout::Tile& t : sharder.tiles()) {
        tile_offsets.emplace_back(static_cast<std::size_t>(t.layout.num_segments()), 2);
    }
    for (auto _ : state) {
        const layout::StitchResult res = layout::stitch(sharder, chip_layout, tile_offsets);
        benchmark::DoNotOptimize(res.offsets.data());
    }
    state.counters["segments"] = static_cast<double>(chip_layout.num_segments());
}
BENCHMARK(BM_Stitch)->Arg(2)->Arg(4);

// Bounded-queue hand-off latency: one producer thread pushing through the
// streaming queue at the given capacity while the bench thread pops —
// the per-result overhead run_streaming adds on top of the OPC work.
void BM_QueueHandoff(benchmark::State& state) {
    const int capacity = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        runtime::BoundedQueue<int> queue(static_cast<std::size_t>(capacity));
        constexpr int kItems = 4096;
        std::thread producer([&queue] {
            for (int i = 0; i < kItems; ++i) {
                if (!queue.push(int(i))) return;
            }
            queue.close();
        });
        state.ResumeTiming();
        long long sum = 0;
        while (auto item = queue.pop()) sum += *item;
        benchmark::DoNotOptimize(sum);
        state.PauseTiming();
        producer.join();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_QueueHandoff)->Arg(1)->Arg(64)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
