#include "core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/backend.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "rl/trajectory.hpp"

namespace camo::core {

/// Weights repacked for the SIMD kernels (nn/backend.hpp). infer()'s
/// cached copy is rebuilt whenever weights_version_ moves past `version`.
struct PackedWeights {
    std::uint64_t version = 0;
    nn::PackedConv2d conv1, conv2, conv3;
    nn::PackedLinear fc;    // flat -> embed
    nn::PackedLinear sage;  // 2*embed -> embed (use_gnn only)
    struct RnnCell {
        nn::PackedLinear u;  // carries the cell bias
        nn::PackedLinear w;  // hidden recurrence, bias-free (accumulate-only)
    };
    std::vector<RnnCell> rnn;
    nn::PackedLinear proj;  // embed -> hidden (no-RNN path only)
    nn::PackedLinear head;  // hidden -> 5

    /// What backward() reads besides the tape, copied at the same moment as
    /// the forward weights (training packs only; infer()'s plan leaves it
    /// empty): conv2/conv3 repacked for Ops::conv2d_dx, and the dense
    /// and RNN weights row-major, as gemm_nn and the BPTT read them.
    struct Backward {
        std::vector<float> conv2_dx, conv3_dx;  // [oc][ky][kx][ic_padded]
        int conv2_pad = 0, conv3_pad = 0;       // ic_padded of each
        nn::Tensor fc, sage, proj, head;        // W [out, in]
        std::vector<std::pair<nn::Tensor, nn::Tensor>> rnn;  // (U, W) per layer
    } back;
};

namespace {

// Every encoder convolution is 3x3, stride 2, padding 1.
constexpr int kKernel = 3;
constexpr int kStride = 2;
constexpr int kPad = 1;

int conv_out(int s) { return (s + 2 * kPad - kKernel) / kStride + 1; }

std::size_t sz(int a) { return static_cast<std::size_t>(a); }

// One sample per infer_batch call: the packed inference walk of one wave.
obs::MetricId infer_hist() {
    static const obs::MetricId id = obs::register_histogram("core.policy.infer.ns");
    return id;
}

// Width of the flattened encoder output: three stride-2 stages shrink S by 8.
int flat_size(const PolicyConfig& cfg) {
    return cfg.conv_base * 4 * (cfg.squish_size / 8) * (cfg.squish_size / 8);
}

// Same arithmetic as the reference ReLU (max with +0.0F), applied in place.
void relu_inplace(float* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = p[i] > 0.0F ? p[i] : 0.0F;
}

// ReLU backward from the layer's post-ReLU output y: y > 0 exactly where
// the pre-activation was, so this is the reference's x > 0 ? g : 0.
void relu_backward(float* g, const float* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) g[i] = y[i] > 0.0F ? g[i] : 0.0F;
}

// y[r, :] = x[r, :] W^T + b over `rows` rows; with `accumulate`, y[r, :] +=
// x[r, :] W^T, resuming each output's chain (the RNN recurrence).
void linear(const simd::Ops& k, const nn::PackedLinear& m, const float* x, int rows, float* y,
            bool accumulate = false) {
    k.gemm_blocked(m.w.data(), m.b.data(), x, rows, m.in, m.out, m.out_padded, y, accumulate);
}

// One square CHW sample: x [in_ch, h, h] -> y [out_ch, oh, oh].
void conv(const simd::Ops& k, const nn::PackedConv2d& m, const float* x, int h, float* y) {
    const int oh = m.out_size(h);
    k.conv2d_packed(m.w.data(), m.b.data(), x, m.in_ch, h, h, m.out_ch, m.out_ch_padded, m.k,
                    m.stride, m.pad, y, oh, oh);
}

// A dense layer's backward over `rows` nodes, in the per-node reference's
// node order: dW += dy^T x and db += dy, one addition per node per element;
// dx = dy W when `dx` is non-null, with W the forward's copy `wv`.
void dense_backward(const simd::Ops& k, nn::Parameter& w, nn::Parameter& b,
                    const nn::Tensor& wv, const float* dy, const float* x, int rows,
                    bool descending, float* dx) {
    const int out = w.grad.dim(0);
    const int in = w.grad.dim(1);
    k.gemm_tn_acc(dy, out, 1, x, rows, out, in, w.grad.data().data(), descending);
    for (int step = 0; step < rows; ++step) {
        const int r = descending ? rows - 1 - step : step;
        for (int o = 0; o < out; ++o) b.grad[sz(o)] += dy[sz(r) * sz(out) + sz(o)];
    }
    if (dx != nullptr) k.gemm_nn(dy, rows, out, wv.data().data(), in, dx);
}

// Convolution weights [oc, ic, k, k] repacked into `wt` as
// [oc][ky][kx][ic_padded] for Ops::conv2d_dx; returns ic_padded.
int pack_conv_dx(const nn::Tensor& w, std::vector<float>& wt) {
    const int oc_n = w.dim(0);
    const int ic_n = w.dim(1);
    const int in_padded = (ic_n + simd::kBlock - 1) / simd::kBlock * simd::kBlock;
    wt.assign(sz(oc_n) * kKernel * kKernel * sz(in_padded), 0.0F);
    for (int oc = 0; oc < oc_n; ++oc) {
        for (int ic = 0; ic < ic_n; ++ic) {
            for (int t = 0; t < kKernel * kKernel; ++t) {
                wt[(sz(oc) * kKernel * kKernel + sz(t)) * sz(in_padded) + sz(ic)] =
                    w.at(oc, ic, t / kKernel, t % kKernel);
            }
        }
    }
    return in_padded;
}

// Scratch reused across the per-node conv backward calls.
struct ConvScratch {
    std::vector<float> col;  // im2col [pixels, taps]
    std::vector<float> gw;   // one node's weight gradient [oc, taps]
};

// One encoder convolution's backward for one node, in the reference's
// orders: the node's weight gradient is its own sum over output pixels
// (ascending, from zero) added into w.grad with one addition per element,
// likewise the bias; dx (when non-null) accumulates in (oc, oy, ox) order.
// In the weight gradient, out-of-image taps (im2col zeros) and zero output
// gradients add exact zeros where the reference skips them: a sum that
// starts at +0 never becomes -0, so this changes no bit for finite inputs.
void conv_backward(const simd::Ops& k, nn::Parameter& w, nn::Parameter& b,
                   const float* dy, const float* x, int h, int oh, const float* wt,
                   int in_padded, float* dx, ConvScratch& s) {
    const int out_ch = w.grad.dim(0);
    const int in_ch = w.grad.dim(1);
    const int taps = in_ch * kKernel * kKernel;
    const int pixels = oh * oh;
    s.col.resize(sz(pixels) * sz(taps));
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < oh; ++ox) {
            float* crow = s.col.data() + (sz(oy) * sz(oh) + sz(ox)) * sz(taps);
            for (int ic = 0; ic < in_ch; ++ic) {
                for (int ky = 0; ky < kKernel; ++ky) {
                    const int iy = oy * kStride - kPad + ky;
                    for (int kx = 0; kx < kKernel; ++kx) {
                        const int ix = ox * kStride - kPad + kx;
                        const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < h;
                        *crow++ = inside ? x[(sz(ic) * sz(h) + sz(iy)) * sz(h) + sz(ix)] : 0.0F;
                    }
                }
            }
        }
    }
    s.gw.assign(sz(out_ch) * sz(taps), 0.0F);
    k.gemm_tn_acc(dy, 1, pixels, s.col.data(), pixels, out_ch, taps, s.gw.data(), false);
    float* gw = w.grad.data().data();
    for (std::size_t i = 0; i < s.gw.size(); ++i) gw[i] += s.gw[i];
    for (int oc = 0; oc < out_ch; ++oc) {
        float gb = 0.0F;
        for (int p = 0; p < pixels; ++p) gb += dy[sz(oc) * sz(pixels) + sz(p)];
        b.grad[sz(oc)] += gb;
    }
    if (dx != nullptr) {
        k.conv2d_dx(wt, dy, in_ch, in_padded, h, h, out_ch, kKernel, kStride, kPad, oh, oh, dx);
    }
}

// One RNN layer's BPTT over a sequence of n steps, in the reference Rnn's
// orders (tests/nn_reference_layers.hpp): steps descending; within a step,
// hidden units ascending, skipping exact-zero pre-activation gradients.
// dU, dW and db sum into zeroed locals over the whole sweep and fold into
// the grads with one addition per element. `in` [n, in_l] is the layer's
// input and `h` [n, hidden] its hidden sequence; `dh` [n, hidden] is the
// gradient arriving at h from above; the input gradient accumulates into
// `din` [n, in_l], which the caller zeroes. `weights` is the forward's
// (U, W).
void rnn_layer_backward(nn::Parameter& u, nn::Parameter& w, nn::Parameter& b,
                        const std::pair<nn::Tensor, nn::Tensor>& weights, const float* in,
                        const float* h, const float* dh, int n, float* din) {
    const int hidden = w.grad.dim(0);
    const int in_l = u.grad.dim(1);
    const float* uv = weights.first.data().data();
    const float* wv = weights.second.data().data();
    std::vector<float> gu(u.grad.numel(), 0.0F);
    std::vector<float> gw(w.grad.numel(), 0.0F);
    std::vector<float> gb(sz(hidden), 0.0F);
    std::vector<float> carry(sz(hidden), 0.0F);  // dL/dh(t) via step t + 1
    std::vector<float> gpre(sz(hidden));
    for (int t = n - 1; t >= 0; --t) {
        const float* ht = h + sz(t) * sz(hidden);
        for (int k = 0; k < hidden; ++k) {
            const float gtotal = dh[sz(t) * sz(hidden) + sz(k)] + carry[sz(k)];
            gpre[sz(k)] = gtotal * (1.0F - ht[k] * ht[k]);
        }
        std::fill(carry.begin(), carry.end(), 0.0F);
        const float* xt = in + sz(t) * sz(in_l);
        float* dxt = din + sz(t) * sz(in_l);
        for (int k = 0; k < hidden; ++k) {
            const float gp = gpre[sz(k)];
            if (gp == 0.0F) continue;
            gb[sz(k)] += gp;
            for (int i = 0; i < in_l; ++i) {
                gu[sz(k) * sz(in_l) + sz(i)] += gp * xt[i];
                dxt[i] += gp * uv[sz(k) * sz(in_l) + sz(i)];
            }
            if (t > 0) {
                const float* hprev = ht - hidden;
                for (int i = 0; i < hidden; ++i) {
                    gw[sz(k) * sz(hidden) + sz(i)] += gp * hprev[i];
                    carry[sz(i)] += gp * wv[sz(k) * sz(hidden) + sz(i)];
                }
            }
        }
    }
    for (std::size_t i = 0; i < gu.size(); ++i) u.grad[i] += gu[i];
    for (std::size_t i = 0; i < gw.size(); ++i) w.grad[i] += gw[i];
    for (std::size_t i = 0; i < gb.size(); ++i) b.grad[i] += gb[i];
}

}  // namespace

PolicyNetwork::Layer::Layer(std::vector<int> w_shape, int fan_in, Rng* rng)
    : w(w_shape), b({w_shape.front()}) {
    if (rng != nullptr) nn::init_he(w.value, fan_in, *rng);
}

PolicyNetwork::RnnCell::RnnCell(int in, int hidden, Rng* rng)
    : u({hidden, in}), w({hidden, hidden}), b({hidden}) {
    if (rng != nullptr) {
        nn::init_xavier(u.value, in, hidden, *rng);
        nn::init_xavier(w.value, hidden, hidden, *rng);
    }
}

PolicyNetwork::PolicyNetwork(const PolicyConfig& cfg, bool init_weights)
    : cfg_(cfg),
      rng_(cfg.seed),
      init_(init_weights ? &rng_ : nullptr),
      head_({rl::kNumActions, cfg.rnn_hidden}, cfg.rnn_hidden, init_),
      conv1_({cfg.conv_base, 6, kKernel, kKernel}, 6 * kKernel * kKernel, init_),
      conv2_({cfg.conv_base * 2, cfg.conv_base, kKernel, kKernel},
             cfg.conv_base * kKernel * kKernel, init_),
      conv3_({cfg.conv_base * 4, cfg.conv_base * 2, kKernel, kKernel},
             cfg.conv_base * 2 * kKernel * kKernel, init_),
      fc_({cfg.embed_dim, flat_size(cfg)}, flat_size(cfg), init_) {
    if (cfg_.use_gnn) sage_.emplace(std::vector<int>{cfg_.embed_dim, 2 * cfg_.embed_dim},
                                    2 * cfg_.embed_dim, init_);
    if (cfg_.use_rnn) {
        rnn_.reserve(sz(cfg_.rnn_layers));
        for (int l = 0; l < cfg_.rnn_layers; ++l) {
            rnn_.emplace_back(l == 0 ? cfg_.embed_dim : cfg_.rnn_hidden, cfg_.rnn_hidden, init_);
        }
    } else {
        proj_.emplace(std::vector<int>{cfg_.rnn_hidden, cfg_.embed_dim}, cfg_.embed_dim, init_);
    }
}

nn::Tensor PolicyNetwork::forward(const std::vector<nn::Tensor>& features, const Graph& graph) {
    // Packed fresh from the current weights: callers may write them through
    // params() pointers between calls, which the plan cache cannot see.
    return forward(pack(), features, graph);
}

nn::Tensor PolicyNetwork::forward(std::shared_ptr<const PackedWeights> weights,
                                  const std::vector<nn::Tensor>& features, const Graph& graph) {
    tape_.valid = false;
    if (!weights || weights->back.head.empty() ||
        weights->back.fc.shape() != fc_.w.grad.shape() ||
        weights->back.head.shape() != head_.w.grad.shape() ||
        weights->back.sage.empty() == sage_.has_value() ||
        weights->back.proj.empty() == proj_.has_value() ||
        weights->back.rnn.size() != rnn_.size()) {
        throw std::invalid_argument(
            "PolicyNetwork::forward: weights not from pack() of this architecture");
    }
    const ClipRequest req{&features, &graph};
    const std::vector<float> logits = walk(*weights, {&req, 1}, tape_, true);
    tape_.graph = graph;
    tape_.weights = std::move(weights);
    tape_.valid = true;
    nn::Tensor out({graph.n, rl::kNumActions});
    std::memcpy(out.data().data(), logits.data(), logits.size() * sizeof(float));
    return out;
}

nn::Tensor PolicyNetwork::infer(const std::vector<nn::Tensor>& features,
                                const Graph& graph) const {
    const ClipRequest req{&features, &graph};
    return std::move(infer_batch({&req, 1}).front());
}

std::shared_ptr<const PackedWeights> PolicyNetwork::ensure_plan() const {
    const std::uint64_t version = weights_version_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(plan_mu_);
    if (plan_ && plan_->version == version) return plan_;
    auto plan = std::make_shared<PackedWeights>();
    pack_weights(false, *plan);
    plan->version = version;
    plan_ = plan;
    return plan;
}

std::shared_ptr<const PackedWeights> PolicyNetwork::pack() const {
    std::shared_ptr<PackedWeights> weights;
    repack(weights);
    return weights;
}

void PolicyNetwork::repack(std::shared_ptr<PackedWeights>& weights) const {
    // Rewritten in place only when no tape or other holder could see it.
    if (!weights || weights.use_count() > 1) weights = std::make_shared<PackedWeights>();
    pack_weights(true, *weights);
}

void PolicyNetwork::pack_weights(bool for_backward, PackedWeights& p) const {
    nn::pack_conv2d(conv1_.w.value, conv1_.b.value, kStride, kPad, p.conv1);
    nn::pack_conv2d(conv2_.w.value, conv2_.b.value, kStride, kPad, p.conv2);
    nn::pack_conv2d(conv3_.w.value, conv3_.b.value, kStride, kPad, p.conv3);
    nn::pack_linear(fc_.w.value, &fc_.b.value, p.fc);
    if (sage_) nn::pack_linear(sage_->w.value, &sage_->b.value, p.sage);
    p.rnn.resize(rnn_.size());
    for (std::size_t l = 0; l < rnn_.size(); ++l) {
        nn::pack_linear(rnn_[l].u.value, &rnn_[l].b.value, p.rnn[l].u);
        nn::pack_linear(rnn_[l].w.value, nullptr, p.rnn[l].w);
    }
    if (proj_) nn::pack_linear(proj_->w.value, &proj_->b.value, p.proj);
    nn::pack_linear(head_.w.value, &head_.b.value, p.head);
    if (for_backward) {
        PackedWeights::Backward& b = p.back;
        b.conv2_pad = pack_conv_dx(conv2_.w.value, b.conv2_dx);
        b.conv3_pad = pack_conv_dx(conv3_.w.value, b.conv3_dx);
        b.fc = fc_.w.value;
        if (sage_) b.sage = sage_->w.value;
        if (proj_) b.proj = proj_->w.value;
        b.head = head_.w.value;
        b.rnn.resize(rnn_.size());
        for (std::size_t l = 0; l < rnn_.size(); ++l) {
            b.rnn[l].first = rnn_[l].u.value;
            b.rnn[l].second = rnn_[l].w.value;
        }
    }
}

std::vector<nn::Tensor> PolicyNetwork::infer_batch(std::span<const ClipRequest> clips) const {
    FlatTape act;
    std::vector<float> logits;
    {
        const obs::Span span("core.policy.infer", infer_hist());
        logits = walk(*ensure_plan(), clips, act, false);
    }
    std::vector<nn::Tensor> out;
    out.reserve(clips.size());
    std::size_t offset = 0;
    for (const ClipRequest& req : clips) {
        nn::Tensor t({req.graph->n, rl::kNumActions});
        std::memcpy(t.data().data(), logits.data() + offset, t.numel() * sizeof(float));
        offset += t.numel();
        out.push_back(std::move(t));
    }
    return out;
}

std::vector<float> PolicyNetwork::walk(const PackedWeights& weights,
                                       std::span<const ClipRequest> clips, FlatTape& act,
                                       bool keep) const {
    const simd::Ops& k = simd::ops();
    const int S = cfg_.squish_size;
    const int embed = cfg_.embed_dim;
    const int hidden = cfg_.rnn_hidden;

    // Node bookkeeping: clip c's nodes occupy rows [start[c], start[c] + n_c)
    // of every activation matrix.
    std::vector<int> start(clips.size(), 0);
    int total = 0;
    int widest = 0;
    for (std::size_t c = 0; c < clips.size(); ++c) {
        const ClipRequest& req = clips[c];
        if (req.features == nullptr || req.graph == nullptr) {
            throw std::invalid_argument("PolicyNetwork: null clip request");
        }
        const int n = static_cast<int>(req.features->size());
        if (n == 0) throw std::invalid_argument("PolicyNetwork: empty node set");
        if (req.graph->n != n) {
            throw std::invalid_argument("PolicyNetwork: graph/feature size mismatch");
        }
        start[c] = total;
        total += n;
        widest = std::max(widest, n);
    }

    // Stage 1: the shared CNN encoder per node (its conv chain is
    // per-sample), then the flatten -> embed projection as ONE wide GEMM.
    const int s1 = weights.conv1.out_size(S);
    const int s2 = weights.conv2.out_size(s1);
    const int s3 = weights.conv3.out_size(s2);
    const std::size_t in_size = sz(weights.conv1.in_ch) * sz(S) * sz(S);
    const std::size_t size1 = sz(weights.conv1.out_ch) * sz(s1) * sz(s1);
    const std::size_t size2 = sz(weights.conv2.out_ch) * sz(s2) * sz(s2);
    const std::size_t flat = sz(weights.conv3.out_ch) * sz(s3) * sz(s3);
    if (flat != sz(weights.fc.in)) {
        throw std::logic_error("PolicyNetwork: packed geometry mismatch");
    }
    const std::size_t conv_rows = keep ? sz(total) : 1;
    if (keep) act.x.resize(sz(total) * in_size);
    act.a1.resize(conv_rows * size1);
    act.a2.resize(conv_rows * size2);
    act.flat.resize(sz(total) * flat);
    std::size_t row = 0;
    for (const ClipRequest& req : clips) {
        for (const nn::Tensor& f : *req.features) {
            if (f.rank() != 3 || f.dim(0) != weights.conv1.in_ch || f.dim(1) != S ||
                f.dim(2) != S) {
                throw std::invalid_argument("PolicyNetwork: bad squish feature shape");
            }
            const std::size_t slot = keep ? row : 0;
            float* a1 = act.a1.data() + slot * size1;
            float* a2 = act.a2.data() + slot * size2;
            float* out = act.flat.data() + row * flat;
            if (keep) {
                std::memcpy(act.x.data() + row * in_size, f.data().data(), in_size * sizeof(float));
            }
            conv(k, weights.conv1, f.data().data(), S, a1);
            relu_inplace(a1, size1);
            conv(k, weights.conv2, a1, s1, a2);
            relu_inplace(a2, size2);
            conv(k, weights.conv3, a2, s2, out);
            relu_inplace(out, flat);
            ++row;
        }
    }
    act.embed.resize(sz(total) * sz(embed));
    linear(k, weights.fc, act.flat.data(), total, act.embed.data());
    relu_inplace(act.embed.data(), act.embed.size());

    // Stage 2: GraphSAGE, h_i = ReLU(W [e_i ; mean_{j in N(i)} e_j]). The
    // neighbour mean accumulates in neighbour-list order; the projection is
    // one wide GEMM.
    const float* fused = act.embed.data();
    if (cfg_.use_gnn) {
        act.cat.assign(sz(total) * 2 * sz(embed), 0.0F);
        for (std::size_t c = 0; c < clips.size(); ++c) {
            const Graph& graph = *clips[c].graph;
            for (int i = 0; i < graph.n; ++i) {
                const std::size_t g = sz(start[c] + i);
                float* crow = act.cat.data() + g * 2 * sz(embed);
                std::memcpy(crow, act.embed.data() + g * sz(embed), sz(embed) * sizeof(float));
                const auto& nbrs = graph.neighbors[sz(i)];
                if (nbrs.empty()) continue;
                const float inv = 1.0F / static_cast<float>(nbrs.size());
                for (int j : nbrs) {
                    const float* ej = act.embed.data() + sz(start[c] + j) * sz(embed);
                    for (int d = 0; d < embed; ++d) crow[sz(embed + d)] += inv * ej[sz(d)];
                }
            }
        }
        act.fused.resize(sz(total) * sz(embed));
        linear(k, weights.sage, act.cat.data(), total, act.fused.data());
        relu_inplace(act.fused.data(), act.fused.size());
        fused = act.fused.data();
    }

    // Stage 3: sequential decision context. The RNN recurrence is per clip
    // and per step; the input contribution U x_t + b is one GEMM over the
    // clip's sequence, then the recurrence W h_{t-1} resumes each row's
    // accumulator — the reference cell's single accumulation chain.
    act.ctx.resize(sz(total) * sz(hidden));
    if (cfg_.use_rnn) {
        const std::size_t layers = weights.rnn.size();
        if (keep) act.hs.resize(layers * sz(total) * sz(hidden));
        std::vector<float> ping(sz(widest) * sz(hidden));
        std::vector<float> pong(ping.size());
        for (std::size_t c = 0; c < clips.size(); ++c) {
            const int n = clips[c].graph->n;
            const float* in = fused + sz(start[c]) * sz(embed);
            for (std::size_t l = 0; l < layers; ++l) {
                const PackedWeights::RnnCell& cell = weights.rnn[l];
                float* h = keep ? act.hs.data() + (l * sz(total) + sz(start[c])) * sz(hidden)
                                : (l % 2 == 0 ? ping : pong).data();
                linear(k, cell.u, in, n, h);
                for (int t = 0; t < n; ++t) {
                    float* ht = h + sz(t) * sz(hidden);
                    if (t > 0) linear(k, cell.w, ht - hidden, 1, ht, true);
                    for (int d = 0; d < hidden; ++d) ht[d] = std::tanh(ht[d]);
                }
                in = h;
            }
            std::memcpy(act.ctx.data() + sz(start[c]) * sz(hidden), in,
                        sz(n) * sz(hidden) * sizeof(float));
        }
    } else {
        linear(k, weights.proj, fused, total, act.ctx.data());
        relu_inplace(act.ctx.data(), act.ctx.size());
    }

    // Stage 4: the action head as one wide GEMM.
    std::vector<float> logits(sz(total) * rl::kNumActions);
    linear(k, weights.head, act.ctx.data(), total, logits.data());
    return logits;
}

void PolicyNetwork::backward(const nn::Tensor& dlogits) {
    if (!tape_.valid) throw std::logic_error("PolicyNetwork::backward without forward");
    FlatTape& t = tape_;
    const int n = t.graph.n;
    if (dlogits.rank() != 2 || dlogits.dim(0) != n || dlogits.dim(1) != rl::kNumActions) {
        throw std::invalid_argument("PolicyNetwork::backward: dlogits shape");
    }
    t.valid = false;
    // Held here, not by the tape, so the trainer can rewrite the pack in
    // place once every backward of its wave has returned.
    const std::shared_ptr<const PackedWeights> weights = std::move(t.weights);
    const PackedWeights::Backward& wb = weights->back;
    const simd::Ops& k = simd::ops();
    const int S = cfg_.squish_size;
    const int embed = cfg_.embed_dim;
    const int hidden = cfg_.rnn_hidden;
    const float* fused = cfg_.use_gnn ? t.fused.data() : t.embed.data();

    // Head: the reference runs it node by node in ascending order.
    std::vector<float> dctx(sz(n) * sz(hidden));
    dense_backward(k, head_.w, head_.b, wb.head, dlogits.data().data(), t.ctx.data(), n, false,
                   dctx.data());

    // RNN (full BPTT, layers descending; each layer's input gradient is the
    // gradient arriving at the layer below) or the projection (ascending).
    std::vector<float> dfused(sz(n) * sz(embed));
    if (cfg_.use_rnn) {
        std::vector<float> dh = std::move(dctx);
        std::vector<float> dbelow;
        for (std::size_t l = rnn_.size(); l-- > 0;) {
            const float* h = t.hs.data() + l * sz(n) * sz(hidden);
            float* din = dfused.data();
            if (l > 0) {
                dbelow.assign(sz(n) * sz(hidden), 0.0F);
                din = dbelow.data();
            }
            rnn_layer_backward(rnn_[l].u, rnn_[l].w, rnn_[l].b, wb.rnn[l],
                               l == 0 ? fused : h - sz(n) * sz(hidden), h, dh.data(), n, din);
            dh.swap(dbelow);
        }
    } else {
        relu_backward(dctx.data(), t.ctx.data(), dctx.size());
        dense_backward(k, proj_->w, proj_->b, wb.proj, dctx.data(), fused, n, false,
                       dfused.data());
    }

    // SAGE (descending), then its input gradient spread to each node and to
    // its neighbours in the reference's node order.
    std::vector<float> dembed;
    if (sage_) {
        relu_backward(dfused.data(), t.fused.data(), dfused.size());
        std::vector<float> dcat(sz(n) * 2 * sz(embed));
        dense_backward(k, sage_->w, sage_->b, wb.sage, dfused.data(), t.cat.data(), n, true,
                       dcat.data());
        dembed.assign(sz(n) * sz(embed), 0.0F);
        for (int i = n - 1; i >= 0; --i) {
            const float* gcat = dcat.data() + sz(i) * 2 * sz(embed);
            float* di = dembed.data() + sz(i) * sz(embed);
            for (int d = 0; d < embed; ++d) di[d] += gcat[d];
            const auto& nbrs = t.graph.neighbors[sz(i)];
            if (nbrs.empty()) continue;
            const float inv = 1.0F / static_cast<float>(nbrs.size());
            for (int j : nbrs) {
                float* dj = dembed.data() + sz(j) * sz(embed);
                for (int d = 0; d < embed; ++d) dj[d] += inv * gcat[sz(embed + d)];
            }
        }
    } else {
        dembed = std::move(dfused);
    }

    // Encoder: fc over all nodes (descending), then the convolutions node by
    // node, descending. conv1's input gradient is never needed.
    relu_backward(dembed.data(), t.embed.data(), dembed.size());
    const std::size_t flat = sz(fc_.w.grad.dim(1));
    std::vector<float> dflat(sz(n) * flat);
    dense_backward(k, fc_.w, fc_.b, wb.fc, dembed.data(), t.flat.data(), n, true, dflat.data());
    relu_backward(dflat.data(), t.flat.data(), dflat.size());

    const int s1 = conv_out(S);
    const int s2 = conv_out(s1);
    const int s3 = conv_out(s2);
    const std::size_t in_size = 6 * sz(S) * sz(S);
    const std::size_t size1 = sz(conv1_.w.grad.dim(0)) * sz(s1) * sz(s1);
    const std::size_t size2 = sz(conv2_.w.grad.dim(0)) * sz(s2) * sz(s2);
    std::vector<float> d2(size2);
    std::vector<float> d1(size1);
    ConvScratch scratch;
    for (int i = n - 1; i >= 0; --i) {
        const float* a1 = t.a1.data() + sz(i) * size1;
        const float* a2 = t.a2.data() + sz(i) * size2;
        conv_backward(k, conv3_.w, conv3_.b, dflat.data() + sz(i) * flat, a2, s2, s3,
                      wb.conv3_dx.data(), wb.conv3_pad, d2.data(), scratch);
        relu_backward(d2.data(), a2, size2);
        conv_backward(k, conv2_.w, conv2_.b, d2.data(), a1, s1, s2, wb.conv2_dx.data(),
                      wb.conv2_pad, d1.data(), scratch);
        relu_backward(d1.data(), a1, size1);
        conv_backward(k, conv1_.w, conv1_.b, d1.data(), t.x.data() + sz(i) * in_size, S, s1,
                      nullptr, 0, nullptr, scratch);
    }
}

std::vector<nn::Parameter*> PolicyNetwork::params() {
    // Handing out mutable parameter pointers (optimizers, trainers) may be
    // followed by in-place weight updates the plan cache cannot observe;
    // conservatively invalidate so the next infer() repacks.
    invalidate_plan();
    return param_list();
}

std::vector<nn::Tensor*> PolicyNetwork::grads() {
    std::vector<nn::Tensor*> out;
    for (nn::Parameter* p : param_list()) out.push_back(&p->grad);
    return out;
}

std::vector<nn::Parameter*> PolicyNetwork::param_list() {
    std::vector<nn::Parameter*> out = {&conv1_.w, &conv1_.b, &conv2_.w, &conv2_.b,
                                       &conv3_.w, &conv3_.b, &fc_.w,    &fc_.b};
    if (sage_) out.insert(out.end(), {&sage_->w, &sage_->b});
    for (RnnCell& cell : rnn_) out.insert(out.end(), {&cell.u, &cell.w, &cell.b});
    if (proj_) out.insert(out.end(), {&proj_->w, &proj_->b});
    out.insert(out.end(), {&head_.w, &head_.b});
    return out;
}

void PolicyNetwork::save(const std::string& path) { nn::save_params(path, param_list()); }

bool PolicyNetwork::load(const std::string& path) {
    const bool ok = nn::load_params(path, params());
    // Repack eagerly on a successful load: a freshly deserialized network is
    // (in the serving paths) about to run inference, and packing here keeps
    // the first batched wave's latency flat.
    if (ok) (void)ensure_plan();
    return ok;
}

}  // namespace camo::core
