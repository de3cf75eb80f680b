#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace camo::obs {
namespace {

// Metric/span names are programmer-chosen literals, but escape anyway so a
// stray quote can never produce an unparseable report.
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void append_number(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void append_number(std::string& out, long long v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", v);
    out += buf;
}

// Appends `"name": ` piece by piece: GCC 12 flags "\"" + std::string&&
// with a -Wrestrict false positive.
void append_key(std::string& out, const std::string& name) {
    out += '"';
    out += json_escape(name);
    out += "\": ";
}

}  // namespace

std::string render_metrics_json() {
    const std::vector<MetricSnapshot> snap = snapshot_metrics();
    std::string counters;
    std::string gauges;
    std::string histograms;
    for (const MetricSnapshot& m : snap) {
        switch (m.type) {
            case MetricType::kCounter: {
                if (!counters.empty()) counters += ",\n    ";
                append_key(counters, m.name);
                append_number(counters, m.counter);
                break;
            }
            case MetricType::kGauge: {
                if (!gauges.empty()) gauges += ",\n    ";
                append_key(gauges, m.name);
                append_number(gauges, m.gauge);
                break;
            }
            case MetricType::kHistogram: {
                if (!histograms.empty()) histograms += ",\n    ";
                append_key(histograms, m.name);
                histograms += "{\"count\": ";
                append_number(histograms, m.hist_count);
                histograms += ", \"sum\": ";
                append_number(histograms, m.hist_sum);
                histograms += ", \"buckets\": [";
                bool first = true;
                for (int b = 0; b < kHistogramBuckets; ++b) {
                    const long long count = m.buckets[static_cast<std::size_t>(b)];
                    if (count == 0) continue;
                    if (!first) histograms += ", ";
                    first = false;
                    // Bucket b covers [2^(b-1), 2^b); bucket 0 covers <= 0.
                    histograms += "{\"lt\": ";
                    append_number(histograms,
                                  b == 0 ? 1.0 : std::ldexp(1.0, b));
                    histograms += ", \"count\": ";
                    append_number(histograms, count);
                    histograms += "}";
                }
                histograms += "]}";
                break;
            }
        }
    }
    std::string out = "{\n  \"counters\": {\n    " + counters + "\n  },\n";
    out += "  \"gauges\": {\n    " + gauges + "\n  },\n";
    out += "  \"histograms\": {\n    " + histograms + "\n  }\n}\n";
    return out;
}

std::string render_trace_json() {
    std::string events;
    const long long dropped = detail::visit_trace_events(
        [&events](int tid, const char* name, long long start_ns, long long dur_ns) {
            if (!events.empty()) events += ",\n";
            events += "    {\"name\": \"" + json_escape(name) + "\", \"ph\": \"X\", \"ts\": ";
            append_number(events, static_cast<double>(start_ns) / 1e3);
            events += ", \"dur\": ";
            append_number(events, static_cast<double>(dur_ns) / 1e3);
            events += ", \"pid\": 1, \"tid\": ";
            append_number(events, static_cast<long long>(tid));
            events += ", \"cat\": \"camo\"}";
        });
    std::string out = "{\n  \"traceEvents\": [\n" + events + "\n  ],\n";
    out += "  \"displayTimeUnit\": \"ms\",\n  \"droppedEvents\": ";
    append_number(out, dropped);
    out += "\n}\n";
    return out;
}

void write_metrics_json(const std::string& path) {
    write_text_atomic(path, render_metrics_json());
}

void write_trace_json(const std::string& path) {
    write_text_atomic(path, render_trace_json());
}

}  // namespace camo::obs
