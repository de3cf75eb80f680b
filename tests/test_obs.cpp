// Telemetry layer suite: registry correctness under concurrency, histogram
// bucket edges, JSON export well-formedness (parsed back by a minimal JSON
// reader), disabled-mode no-ops, and — the hard contract — bit-identical
// batch results, CAMO inference and training weights with telemetry on vs
// off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.hpp"
#include "core/camo.hpp"
#include "core/experiment.hpp"
#include "layout/via_gen.hpp"
#include "litho/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"

namespace camo::obs {
namespace {

// ---- Minimal JSON reader (enough to validate the exporters). -------------

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue& at(const std::string& key) const {
        auto it = obj.find(key);
        if (it == obj.end()) throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonValue parse() {
        JsonValue v = value();
        ws();
        if (pos_ != s_.size()) throw std::runtime_error("trailing characters");
        return v;
    }

private:
    void ws() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    char peek() {
        if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
        return s_[pos_];
    }
    void expect(char c) {
        if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
        ++pos_;
    }

    JsonValue value() {
        ws();
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"': return string_value();
            case 't':
            case 'f': return boolean();
            case 'n': return null();
            default: return number();
        }
    }

    JsonValue object() {
        JsonValue v;
        v.kind = JsonValue::Kind::kObject;
        expect('{');
        ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            ws();
            JsonValue key = string_value();
            ws();
            expect(':');
            v.obj.emplace(key.str, value());
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue array() {
        JsonValue v;
        v.kind = JsonValue::Kind::kArray;
        expect('[');
        ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.arr.push_back(value());
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue string_value() {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        expect('"');
        while (peek() != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                const char esc = s_[pos_++];
                switch (esc) {
                    case '"': c = '"'; break;
                    case '\\': c = '\\'; break;
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'u': pos_ += 4; c = '?'; break;
                    default: throw std::runtime_error("bad escape");
                }
            }
            v.str += c;
        }
        ++pos_;
        return v;
    }

    JsonValue boolean() {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            throw std::runtime_error("bad literal");
        }
        return v;
    }

    JsonValue null() {
        if (s_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue number() {
        JsonValue v;
        v.kind = JsonValue::Kind::kNumber;
        std::size_t used = 0;
        v.number = std::stod(s_.substr(pos_), &used);
        if (used == 0) throw std::runtime_error("bad number");
        pos_ += used;
        return v;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

// ---- Shared fixtures. ----------------------------------------------------

litho::LithoConfig test_litho_config() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "";  // tests never touch the on-disk cache
    return cfg;
}

std::vector<geo::SegmentedLayout> test_clips(int count) {
    layout::ViaGenOptions gen;
    gen.clip_nm = 1000;
    gen.margin_nm = 200;
    gen.min_spacing_nm = 120;
    return core::fragment_via_clips(layout::via_batch_set(7, count, gen));
}

opc::OpcOptions test_opc_options() {
    opc::OpcOptions opt;
    opt.max_iterations = 3;
    opt.initial_bias_nm = 3;
    return opt;
}

runtime::BatchOptions batch_options(int threads) {
    runtime::BatchOptions opt;
    opt.threads = threads;
    opt.seed = 7;
    opt.opc = test_opc_options();
    return opt;
}

core::CamoConfig tiny_train_config() {
    core::CamoConfig cfg;
    cfg.policy.squish_size = 16;
    cfg.policy.embed_dim = 32;
    cfg.policy.rnn_hidden = 16;
    cfg.policy.rnn_layers = 2;
    cfg.policy.conv_base = 4;
    cfg.squish.size = 16;
    cfg.squish.window_nm = 500;
    cfg.phase1_epochs = 1;
    cfg.phase1_batch = 3;
    cfg.teacher_steps = 2;
    cfg.teacher_biases = {3};
    cfg.phase2_episodes = 1;
    cfg.train_workers = 2;
    cfg.seed = 5;
    return cfg;
}

std::vector<char> file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/// RAII telemetry state guard: every test leaves the process-wide switches
/// the way it found them (disabled is the suite-wide default).
struct TelemetryGuard {
    TelemetryGuard() {
        set_metrics_enabled(false);
        set_tracing_enabled(false);
        reset_metrics();
        reset_trace();
    }
    ~TelemetryGuard() {
        set_metrics_enabled(false);
        set_tracing_enabled(false);
    }
};

long long counter_value(const std::string& name) {
    const auto snap = snapshot_metrics();
    const MetricSnapshot* m = find_metric(snap, name);
    return m != nullptr ? m->counter : 0;
}

// ---- Registry semantics. -------------------------------------------------

TEST(ObsMetrics, HistogramBucketEdges) {
    EXPECT_EQ(histogram_bucket(-5), 0);
    EXPECT_EQ(histogram_bucket(0), 0);
    EXPECT_EQ(histogram_bucket(1), 1);   // [1, 2)
    EXPECT_EQ(histogram_bucket(2), 2);   // [2, 4)
    EXPECT_EQ(histogram_bucket(3), 2);
    EXPECT_EQ(histogram_bucket(4), 3);   // [4, 8)
    EXPECT_EQ(histogram_bucket(1023), 10);
    EXPECT_EQ(histogram_bucket(1024), 11);
    // Far beyond the range: clamped into the last bucket.
    EXPECT_EQ(histogram_bucket((1LL << 62) + 17), kHistogramBuckets - 1);
}

TEST(ObsMetrics, RegistrationIdempotentAndTypeChecked) {
    TelemetryGuard guard;
    const MetricId a = register_counter("obs_test.idempotent");
    const MetricId b = register_counter("obs_test.idempotent");
    EXPECT_EQ(a, b);
    EXPECT_THROW(register_gauge("obs_test.idempotent"), std::invalid_argument);
    EXPECT_THROW(register_histogram("obs_test.idempotent"), std::invalid_argument);
}

TEST(ObsMetrics, ConcurrentCountersAndHistogramsExact) {
    TelemetryGuard guard;
    set_metrics_enabled(true);
    const MetricId counter = register_counter("obs_test.concurrent.counter");
    const MetricId hist = register_histogram("obs_test.concurrent.hist");

    constexpr int kThreads = 8;
    constexpr int kOps = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([counter, hist, t] {
            for (int i = 0; i < kOps; ++i) {
                counter_add(counter);
                counter_add(counter, 2);
                histogram_record(hist, (t % 2 == 0) ? 3 : 1000);
            }
        });
    }
    for (std::thread& t : threads) t.join();

    const auto snap = snapshot_metrics();
    const MetricSnapshot* c = find_metric(snap, "obs_test.concurrent.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->counter, 3LL * kThreads * kOps);

    const MetricSnapshot* h = find_metric(snap, "obs_test.concurrent.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist_count, static_cast<long long>(kThreads) * kOps);
    EXPECT_EQ(h->hist_sum, (3LL + 1000LL) * (kThreads / 2) * kOps);
    EXPECT_EQ(h->buckets[static_cast<std::size_t>(histogram_bucket(3))],
              static_cast<long long>(kThreads / 2) * kOps);
    EXPECT_EQ(h->buckets[static_cast<std::size_t>(histogram_bucket(1000))],
              static_cast<long long>(kThreads / 2) * kOps);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
    TelemetryGuard guard;
    set_metrics_enabled(true);
    const MetricId g = register_gauge("obs_test.gauge");
    gauge_set(g, 4.5);
    gauge_add(g, 1.5);
    gauge_add(g, -2.0);
    const auto snap = snapshot_metrics();
    const MetricSnapshot* m = find_metric(snap, "obs_test.gauge");
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->gauge, 4.0);
}

TEST(ObsMetrics, DisabledModeIsNoOp) {
    TelemetryGuard guard;  // metrics + tracing disabled
    const MetricId c = register_counter("obs_test.disabled.counter");
    const MetricId h = register_histogram("obs_test.disabled.hist");
    const MetricId g = register_gauge("obs_test.disabled.gauge");
    counter_add(c, 100);
    histogram_record(h, 42);
    gauge_set(g, 9.0);
    gauge_add(g, 1.0);
    {
        const Span span("obs_test.disabled.span", h);
    }
    const auto snap = snapshot_metrics();
    EXPECT_EQ(find_metric(snap, "obs_test.disabled.counter")->counter, 0);
    EXPECT_EQ(find_metric(snap, "obs_test.disabled.hist")->hist_count, 0);
    EXPECT_DOUBLE_EQ(find_metric(snap, "obs_test.disabled.gauge")->gauge, 0.0);

    long long events = 0;
    detail::visit_trace_events([&events](int, const char*, long long, long long) { ++events; });
    EXPECT_EQ(events, 0);
}

// ---- Trace semantics + JSON exports. -------------------------------------

TEST(ObsTrace, SpansRecordedAndExportWellFormed) {
    TelemetryGuard guard;
    set_tracing_enabled(true);

    {
        const Span outer("obs_test.outer");
        const Span inner("obs_test.inner");
    }
    std::thread worker([] {
        const Span span("obs_test.worker");
    });
    worker.join();

    long long events = 0;
    int distinct_tids = 0;
    std::vector<int> tids;
    detail::visit_trace_events(
        [&](int tid, const char* name, long long start_ns, long long dur_ns) {
            ++events;
            EXPECT_NE(name, nullptr);
            EXPECT_GE(start_ns, 0);
            EXPECT_GE(dur_ns, 0);
            tids.push_back(tid);
        });
    EXPECT_GE(events, 3);
    std::sort(tids.begin(), tids.end());
    distinct_tids = static_cast<int>(
        std::unique(tids.begin(), tids.end()) - tids.begin());
    EXPECT_GE(distinct_tids, 2);  // main thread + worker

    // The rendered JSON parses and has the Chrome trace-event shape.
    const JsonValue doc = JsonParser(render_trace_json()).parse();
    ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
    const JsonValue& list = doc.at("traceEvents");
    ASSERT_EQ(list.kind, JsonValue::Kind::kArray);
    EXPECT_EQ(static_cast<long long>(list.arr.size()), events);
    bool saw_worker = false;
    for (const JsonValue& ev : list.arr) {
        EXPECT_EQ(ev.at("ph").str, "X");
        EXPECT_FALSE(ev.at("name").str.empty());
        EXPECT_GE(ev.at("ts").number, 0.0);
        EXPECT_GE(ev.at("dur").number, 0.0);
        EXPECT_EQ(ev.at("pid").number, 1.0);
        EXPECT_TRUE(ev.has("tid"));
        if (ev.at("name").str == "obs_test.worker") saw_worker = true;
    }
    EXPECT_TRUE(saw_worker);
    EXPECT_EQ(doc.at("droppedEvents").number, 0.0);

    // File export goes through the atomic-rename path and reads back intact.
    const std::string path = testing::TempDir() + "obs_trace.json";
    write_trace_json(path);
    const JsonValue reread = JsonParser(read_text(path)).parse();
    EXPECT_EQ(reread.at("traceEvents").arr.size(), list.arr.size());
    std::remove(path.c_str());
}

TEST(ObsTrace, RingOverflowCountsDroppedEvents) {
    TelemetryGuard guard;
    set_tracing_enabled(true);
    const long long total = static_cast<long long>(kTraceRingCapacity) + 100;
    for (long long i = 0; i < total; ++i) {
        const Span span("obs_test.overflow");
    }
    long long events = 0;
    const long long dropped = detail::visit_trace_events(
        [&events](int, const char*, long long, long long) { ++events; });
    EXPECT_EQ(events, static_cast<long long>(kTraceRingCapacity));
    EXPECT_EQ(dropped, 100);
}

TEST(ObsReport, MetricsJsonWellFormed) {
    TelemetryGuard guard;
    set_metrics_enabled(true);
    counter_add(register_counter("obs_test.json.counter"), 7);
    gauge_set(register_gauge("obs_test.json.gauge"), 2.5);
    histogram_record(register_histogram("obs_test.json.hist"), 5);
    histogram_record(register_histogram("obs_test.json.hist"), 300);

    const JsonValue doc = JsonParser(render_metrics_json()).parse();
    EXPECT_EQ(doc.at("counters").at("obs_test.json.counter").number, 7.0);
    EXPECT_EQ(doc.at("gauges").at("obs_test.json.gauge").number, 2.5);
    const JsonValue& hist = doc.at("histograms").at("obs_test.json.hist");
    EXPECT_EQ(hist.at("count").number, 2.0);
    EXPECT_EQ(hist.at("sum").number, 305.0);
    ASSERT_EQ(hist.at("buckets").arr.size(), 2u);  // two non-empty buckets
    EXPECT_EQ(hist.at("buckets").arr[0].at("lt").number, 8.0);    // 5 in [4,8)
    EXPECT_EQ(hist.at("buckets").arr[1].at("lt").number, 512.0);  // 300 in [256,512)

    const std::string path = testing::TempDir() + "obs_metrics.json";
    write_metrics_json(path);
    const JsonValue reread = JsonParser(read_text(path)).parse();
    EXPECT_EQ(reread.at("counters").at("obs_test.json.counter").number, 7.0);
    std::remove(path.c_str());
}

// ---- The telemetry-off/on bit-identity contract. -------------------------

TEST(ObsContract, BatchBitIdenticalTelemetryOnVsOff) {
    const auto clips = test_clips(4);

    TelemetryGuard guard;  // telemetry OFF
    runtime::BatchScheduler plain(test_litho_config(), batch_options(4));
    const runtime::BatchResult off = plain.run_rule(clips);

    set_metrics_enabled(true);
    set_tracing_enabled(true);
    reset_metrics();
    reset_trace();
    runtime::BatchScheduler metered(test_litho_config(), batch_options(4));
    const runtime::BatchResult on = metered.run_rule(clips);

    ASSERT_EQ(off.clips.size(), on.clips.size());
    EXPECT_EQ(off.failed, on.failed);
    for (std::size_t i = 0; i < off.clips.size(); ++i) {
        EXPECT_EQ(off.clips[i].offsets, on.clips[i].offsets) << "clip " << i;
        EXPECT_EQ(0, std::memcmp(&off.clips[i].final_epe, &on.clips[i].final_epe,
                                 sizeof(double)))
            << "clip " << i;
        EXPECT_EQ(0, std::memcmp(&off.clips[i].pvband_nm2, &on.clips[i].pvband_nm2,
                                 sizeof(double)))
            << "clip " << i;
        EXPECT_EQ(off.clips[i].iterations, on.clips[i].iterations) << "clip " << i;
    }
    EXPECT_EQ(off.litho_evaluations, on.litho_evaluations);
    EXPECT_EQ(off.incremental_hits, on.incremental_hits);
    EXPECT_EQ(off.incremental_fulls, on.incremental_fulls);

    // The migrated registry counters match the BatchResult fields exactly.
    EXPECT_EQ(counter_value("batch.clips"), static_cast<long long>(on.clips.size()));
    EXPECT_EQ(counter_value("batch.failed"), static_cast<long long>(on.failed));
    EXPECT_EQ(counter_value("batch.litho_evaluations"), on.litho_evaluations);
    EXPECT_EQ(counter_value("batch.incremental_hits"), on.incremental_hits);
    EXPECT_EQ(counter_value("batch.incremental_fulls"), on.incremental_fulls);
    // So does the litho-layer counter (this batch was the only evaluator
    // since reset_metrics).
    EXPECT_EQ(counter_value("litho.evaluations"), on.litho_evaluations);
    EXPECT_EQ(counter_value("litho.incremental.hits"), on.incremental_hits);
    EXPECT_EQ(counter_value("litho.incremental.fulls"), on.incremental_fulls);
    EXPECT_EQ(counter_value("pool.tasks"), static_cast<long long>(on.clips.size()));

    // And the trace captured per-clip spans.
    long long clip_spans = 0;
    detail::visit_trace_events([&](int, const char* name, long long, long long) {
        if (std::strcmp(name, "batch.clip") == 0) ++clip_spans;
    });
    EXPECT_EQ(clip_spans, static_cast<long long>(on.clips.size()));
}

TEST(ObsContract, TrainingWeightBytesIdenticalTelemetryOnVsOff) {
    const auto clips = test_clips(2);
    const opc::OpcOptions opt = test_opc_options();

    TelemetryGuard guard;  // telemetry OFF
    core::CamoEngine off_engine(tiny_train_config());
    litho::LithoSim off_sim(test_litho_config());
    const core::TrainStats off_stats = off_engine.train(clips, off_sim, opt);
    const std::string off_path = testing::TempDir() + "obs_weights_off.bin";
    off_engine.save_weights(off_path);

    set_metrics_enabled(true);
    set_tracing_enabled(true);
    core::CamoEngine on_engine(tiny_train_config());
    litho::LithoSim on_sim(test_litho_config());
    const core::TrainStats on_stats = on_engine.train(clips, on_sim, opt);
    const std::string on_path = testing::TempDir() + "obs_weights_on.bin";
    on_engine.save_weights(on_path);

    ASSERT_EQ(off_stats.phase1_loss.size(), on_stats.phase1_loss.size());
    EXPECT_EQ(0, std::memcmp(off_stats.phase1_loss.data(), on_stats.phase1_loss.data(),
                             off_stats.phase1_loss.size() * sizeof(double)));
    ASSERT_EQ(off_stats.phase2_reward.size(), on_stats.phase2_reward.size());
    EXPECT_EQ(0, std::memcmp(off_stats.phase2_reward.data(), on_stats.phase2_reward.data(),
                             off_stats.phase2_reward.size() * sizeof(double)));

    const std::vector<char> off_bytes = file_bytes(off_path);
    const std::vector<char> on_bytes = file_bytes(on_path);
    ASSERT_FALSE(off_bytes.empty());
    EXPECT_EQ(off_bytes, on_bytes);
    std::remove(off_path.c_str());
    std::remove(on_path.c_str());

    // Training telemetry landed on the registry while enabled.
    EXPECT_GT(counter_value("train.teacher_samples"), 0);
    EXPECT_GT(counter_value("train.grad_reductions"), 0);
}

TEST(ObsContract, CamoInferBitIdenticalTelemetryOnVsOff) {
    const auto clips = test_clips(2);
    const opc::OpcOptions opt = test_opc_options();
    const core::CamoEngine engine(tiny_train_config());

    // Every clip through infer, then all of them through one infer_batch.
    const auto run_all = [&] {
        std::vector<opc::EngineResult> out;
        for (const geo::SegmentedLayout& clip : clips) {
            litho::LithoSim sim(test_litho_config());
            out.push_back(engine.infer(clip, sim, opt));
        }
        std::vector<litho::LithoSim> sims(clips.size(), litho::LithoSim(test_litho_config()));
        for (opc::EngineResult& res : engine.infer_batch(clips, sims, opt)) {
            out.push_back(std::move(res));
        }
        return out;
    };

    TelemetryGuard guard;  // telemetry OFF
    const std::vector<opc::EngineResult> off = run_all();

    set_metrics_enabled(true);
    set_tracing_enabled(true);
    const std::vector<opc::EngineResult> on = run_all();

    ASSERT_EQ(off.size(), 2 * clips.size());
    ASSERT_EQ(on.size(), off.size());
    long long windows = 0;
    long long encodes = 0;
    for (std::size_t i = 0; i < on.size(); ++i) {
        EXPECT_EQ(off[i].final_offsets, on[i].final_offsets) << "run " << i;
        EXPECT_EQ(off[i].iterations, on[i].iterations) << "run " << i;
        ASSERT_EQ(off[i].epe_history.size(), on[i].epe_history.size()) << "run " << i;
        EXPECT_EQ(0, std::memcmp(off[i].epe_history.data(), on[i].epe_history.data(),
                                 off[i].epe_history.size() * sizeof(double)))
            << "run " << i;
        EXPECT_EQ(0, std::memcmp(&off[i].final_metrics.pvband_nm2,
                                 &on[i].final_metrics.pvband_nm2, sizeof(double)))
            << "run " << i;
        encodes += on[i].iterations;
        windows += static_cast<long long>(on[i].iterations) *
                   clips[i % clips.size()].num_segments();
    }

    // One squish span per encoded state, one window per segment encoded.
    ASSERT_GT(encodes, 0);
    EXPECT_EQ(counter_value("core.squish.windows"), windows);
    // Every segment acted on lands in exactly one action class.
    long long actions = 0;
    for (const char* name : {"core.action.move-2", "core.action.move-1", "core.action.move+0",
                             "core.action.move+1", "core.action.move+2"}) {
        actions += counter_value(name);
    }
    EXPECT_EQ(actions, windows);
    const auto snap = snapshot_metrics();
    const MetricSnapshot* hist = find_metric(snap, "core.squish.ns");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->hist_count, encodes);
    long long squish_spans = 0;
    detail::visit_trace_events([&](int, const char* name, long long, long long) {
        if (std::strcmp(name, "core.squish") == 0) ++squish_spans;
    });
    EXPECT_EQ(squish_spans, encodes);

    // The wave loop: each wave records its clip count, so the samples sum to
    // the steps taken; every rollout leaves exactly once, for one reason.
    const MetricSnapshot* waves = find_metric(snap, "core.rollout.wave_clips");
    ASSERT_NE(waves, nullptr);
    EXPECT_EQ(waves->hist_sum, encodes);
    // One policy forward per wave: a span and a duration sample each.
    const MetricSnapshot* infer = find_metric(snap, "core.policy.infer.ns");
    ASSERT_NE(infer, nullptr);
    EXPECT_EQ(infer->hist_count, waves->hist_count);
    long long infer_spans = 0;
    detail::visit_trace_events([&](int, const char* name, long long, long long) {
        if (std::strcmp(name, "core.policy.infer") == 0) ++infer_spans;
    });
    EXPECT_EQ(infer_spans, waves->hist_count);
    EXPECT_EQ(counter_value("core.rollout.exit.converged") +
                  counter_value("core.rollout.exit.iteration_cap") +
                  counter_value("core.rollout.exit.segment_free"),
              static_cast<long long>(on.size()));
}

}  // namespace
}  // namespace camo::obs
