// Bit-level oracle for PolicyNetwork's batched training path.
//
// ReferencePolicy below is PolicyNetwork written per node: a Sequential of
// the naive Conv2d/Linear/ReLU layers (nn_reference_layers.hpp) run once
// per graph node, with one nn::Tape per node and per layer, and the
// reference nn::Rnn run once over the node sequence. It is the
// bit-level specification of the batched walk. The tests memcmp
// PolicyNetwork's logits and every parameter gradient against it, at every
// SIMD level, over use_gnn x use_rnn, n in {1, 2, 24} with isolated nodes,
// conv_base 8 and 6 (lane tails), gradients that ReLU zeroes, and non-zero
// starting gradients (the accumulation order into an existing value is
// part of the contract). The accumulation orders this pins:
//   * head and projection dW/db: nodes ascending, straight into the grad;
//   * SAGE and fc dW/db: nodes descending, straight into the grad;
//   * conv dW/db: a per-node sum over output pixels, added into the grad in
//     descending node order;
//   * conv dX: accumulated in (oc, oy, ox) order;
//   * RNN dU/dW/db: summed into zeroed locals over steps descending (hidden
//     units ascending, zero pre-activation gradients skipped), then added
//     into the grad once per layer.
// Inputs are finite: in the conv weight gradient the reference skips zero
// output gradients and out-of-image taps, which the batched path adds as
// exact zeros — a no-op for finite values only.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/policy.hpp"
#include "rl/trajectory.hpp"

#include "nn_reference_layers.hpp"

namespace camo::core {
namespace {

int conv_out_size(int s) { return s / 8; }  // three stride-2 stages

class ReferencePolicy {
public:
    explicit ReferencePolicy(const PolicyConfig& cfg);

    nn::Tensor forward(const std::vector<nn::Tensor>& features, const Graph& graph) {
        cache_ = Cache{};
        return run_forward(features, graph, cache_);
    }
    void backward(const nn::Tensor& dlogits);
    std::vector<nn::Parameter*> params();

private:
    PolicyConfig cfg_;
    Rng rng_;

    nn::Sequential cnn_;                    // shared encoder -> embed_dim
    std::unique_ptr<nn::Sequential> sage_;  // Linear(2*embed -> embed) + ReLU
    std::unique_ptr<nn::Rnn> rnn_;          // embed -> rnn_hidden
    std::unique_ptr<nn::Sequential> proj_;  // no-RNN path: embed -> rnn_hidden
    nn::Linear head_;                       // rnn_hidden -> 5

    struct Cache {
        Graph graph;
        std::vector<nn::Tape> cnn_tapes;
        std::vector<nn::Tensor> embeds;  // e_i, kept for SAGE backward
        std::vector<nn::Tape> sage_tapes;
        nn::Tape rnn_tape;
        std::vector<nn::Tape> proj_tapes;
        std::vector<nn::Tape> head_tapes;
        int n = 0;
        bool valid = false;
    };
    Cache cache_;

    nn::Tensor run_forward(const std::vector<nn::Tensor>& features, const Graph& graph,
                           Cache& cache) const;
};

ReferencePolicy::ReferencePolicy(const PolicyConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), head_(cfg.rnn_hidden, rl::kNumActions, rng_) {
    const int c1 = cfg_.conv_base;
    cnn_.emplace<nn::Conv2d>(6, c1, 3, 2, 1, rng_);
    cnn_.emplace<nn::ReLU>();
    cnn_.emplace<nn::Conv2d>(c1, c1 * 2, 3, 2, 1, rng_);
    cnn_.emplace<nn::ReLU>();
    cnn_.emplace<nn::Conv2d>(c1 * 2, c1 * 4, 3, 2, 1, rng_);
    cnn_.emplace<nn::ReLU>();

    const int flat = c1 * 4 * conv_out_size(cfg_.squish_size) * conv_out_size(cfg_.squish_size);
    cnn_.emplace<nn::Linear>(flat, cfg_.embed_dim, rng_);
    cnn_.emplace<nn::ReLU>();

    if (cfg_.use_gnn) {
        sage_ = std::make_unique<nn::Sequential>();
        sage_->emplace<nn::Linear>(2 * cfg_.embed_dim, cfg_.embed_dim, rng_);
        sage_->emplace<nn::ReLU>();
    }
    if (cfg_.use_rnn) {
        rnn_ = std::make_unique<nn::Rnn>(cfg_.embed_dim, cfg_.rnn_hidden, cfg_.rnn_layers, rng_);
    } else {
        proj_ = std::make_unique<nn::Sequential>();
        proj_->emplace<nn::Linear>(cfg_.embed_dim, cfg_.rnn_hidden, rng_);
        proj_->emplace<nn::ReLU>();
    }
}


nn::Tensor ReferencePolicy::run_forward(const std::vector<nn::Tensor>& features,
                                      const Graph& graph, Cache& cache) const {
    const int n = static_cast<int>(features.size());
    if (n == 0) throw std::invalid_argument("PolicyNetwork: empty node set");
    if (graph.n != n) throw std::invalid_argument("PolicyNetwork: graph/feature size mismatch");

    cache.graph = graph;
    cache.n = n;
    cache.cnn_tapes.resize(static_cast<std::size_t>(n));
    cache.embeds.resize(static_cast<std::size_t>(n));
    cache.head_tapes.resize(static_cast<std::size_t>(n));

    // Shared CNN encoder per node. The flatten is a pure reshape.
    for (int i = 0; i < n; ++i) {
        const nn::Tensor& f = features[static_cast<std::size_t>(i)];
        cache.embeds[static_cast<std::size_t>(i)] =
            cnn_.forward(f, cache.cnn_tapes[static_cast<std::size_t>(i)]);
    }

    // GraphSAGE: h_i = ReLU(W [e_i ; mean_{j in N(i)} e_j]).
    std::vector<nn::Tensor> fused(static_cast<std::size_t>(n));
    if (cfg_.use_gnn) {
        cache.sage_tapes.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            nn::Tensor cat({2 * cfg_.embed_dim});
            const auto& e = cache.embeds[static_cast<std::size_t>(i)];
            for (int d = 0; d < cfg_.embed_dim; ++d) cat[static_cast<std::size_t>(d)] = e[static_cast<std::size_t>(d)];
            const auto& nbrs = graph.neighbors[static_cast<std::size_t>(i)];
            if (!nbrs.empty()) {
                const float inv = 1.0F / static_cast<float>(nbrs.size());
                for (int j : nbrs) {
                    const auto& ej = cache.embeds[static_cast<std::size_t>(j)];
                    for (int d = 0; d < cfg_.embed_dim; ++d) {
                        cat[static_cast<std::size_t>(cfg_.embed_dim + d)] += inv * ej[static_cast<std::size_t>(d)];
                    }
                }
            }
            fused[static_cast<std::size_t>(i)] =
                sage_->forward(cat, cache.sage_tapes[static_cast<std::size_t>(i)]);
        }
    } else {
        for (int i = 0; i < n; ++i) fused[static_cast<std::size_t>(i)] = cache.embeds[static_cast<std::size_t>(i)].reshaped({cfg_.embed_dim});
    }

    // Sequential decision context.
    std::vector<nn::Tensor> ctx(static_cast<std::size_t>(n));
    if (cfg_.use_rnn) {
        nn::Tensor seq({n, cfg_.embed_dim});
        for (int i = 0; i < n; ++i) {
            for (int d = 0; d < cfg_.embed_dim; ++d) {
                seq.at(i, d) = fused[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
            }
        }
        const nn::Tensor hidden = rnn_->forward(seq, cache.rnn_tape);
        for (int i = 0; i < n; ++i) {
            nn::Tensor h({cfg_.rnn_hidden});
            for (int d = 0; d < cfg_.rnn_hidden; ++d) h[static_cast<std::size_t>(d)] = hidden.at(i, d);
            ctx[static_cast<std::size_t>(i)] = std::move(h);
        }
    } else {
        cache.proj_tapes.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            ctx[static_cast<std::size_t>(i)] = proj_->forward(
                fused[static_cast<std::size_t>(i)], cache.proj_tapes[static_cast<std::size_t>(i)]);
        }
    }

    nn::Tensor logits({n, rl::kNumActions});
    for (int i = 0; i < n; ++i) {
        const nn::Tensor o =
            head_.forward(ctx[static_cast<std::size_t>(i)], cache.head_tapes[static_cast<std::size_t>(i)]);
        for (int a = 0; a < rl::kNumActions; ++a) logits.at(i, a) = o[static_cast<std::size_t>(a)];
    }
    cache.valid = true;
    return logits;
}

void ReferencePolicy::backward(const nn::Tensor& dlogits) {
    if (!cache_.valid) throw std::logic_error("PolicyNetwork::backward without forward");
    const int n = cache_.n;

    // Head backward per node.
    std::vector<nn::Tensor> dctx(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        nn::Tensor g({rl::kNumActions});
        for (int a = 0; a < rl::kNumActions; ++a) g[static_cast<std::size_t>(a)] = dlogits.at(i, a);
        dctx[static_cast<std::size_t>(i)] =
            head_.backward(g, cache_.head_tapes[static_cast<std::size_t>(i)]);
    }

    // RNN (or projection) backward.
    std::vector<nn::Tensor> dfused(static_cast<std::size_t>(n));
    if (cfg_.use_rnn) {
        nn::Tensor gseq({n, cfg_.rnn_hidden});
        for (int i = 0; i < n; ++i) {
            for (int d = 0; d < cfg_.rnn_hidden; ++d) {
                gseq.at(i, d) = dctx[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
            }
        }
        const nn::Tensor gx = rnn_->backward(gseq, cache_.rnn_tape);
        for (int i = 0; i < n; ++i) {
            nn::Tensor g({cfg_.embed_dim});
            for (int d = 0; d < cfg_.embed_dim; ++d) g[static_cast<std::size_t>(d)] = gx.at(i, d);
            dfused[static_cast<std::size_t>(i)] = std::move(g);
        }
    } else {
        for (int i = 0; i < n; ++i) {
            dfused[static_cast<std::size_t>(i)] = proj_->backward(
                dctx[static_cast<std::size_t>(i)], cache_.proj_tapes[static_cast<std::size_t>(i)]);
        }
    }

    // SAGE backward: distribute into d(embeds).
    std::vector<nn::Tensor> dembed(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) dembed[static_cast<std::size_t>(i)] = nn::Tensor({cfg_.embed_dim});
    if (cfg_.use_gnn) {
        for (int i = n - 1; i >= 0; --i) {
            const nn::Tensor gcat = sage_->backward(dfused[static_cast<std::size_t>(i)],
                                                    cache_.sage_tapes[static_cast<std::size_t>(i)]);
            for (int d = 0; d < cfg_.embed_dim; ++d) {
                dembed[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] += gcat[static_cast<std::size_t>(d)];
            }
            const auto& nbrs = cache_.graph.neighbors[static_cast<std::size_t>(i)];
            if (!nbrs.empty()) {
                const float inv = 1.0F / static_cast<float>(nbrs.size());
                for (int j : nbrs) {
                    for (int d = 0; d < cfg_.embed_dim; ++d) {
                        dembed[static_cast<std::size_t>(j)][static_cast<std::size_t>(d)] +=
                            inv * gcat[static_cast<std::size_t>(cfg_.embed_dim + d)];
                    }
                }
            }
        }
    } else {
        for (int i = 0; i < n; ++i) dembed[static_cast<std::size_t>(i)] = std::move(dfused[static_cast<std::size_t>(i)]);
    }

    // Shared CNN backward per node (gradients accumulate in the weights).
    for (int i = n - 1; i >= 0; --i) {
        (void)cnn_.backward(dembed[static_cast<std::size_t>(i)],
                            cache_.cnn_tapes[static_cast<std::size_t>(i)]);
    }
    cache_.valid = false;
}

std::vector<nn::Parameter*> ReferencePolicy::params() {
    std::vector<nn::Parameter*> out = cnn_.params();
    if (sage_) {
        auto p = sage_->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    if (rnn_) {
        auto p = rnn_->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    if (proj_) {
        auto p = proj_->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    auto p = head_.params();
    out.insert(out.end(), p.begin(), p.end());
    return out;
}

// ---- the memcmp comparisons --------------------------------------------

struct Shape {
    int conv_base;
    int squish;
    int embed;
    int hidden;
    int layers;
};

PolicyConfig make_config(const Shape& s, bool gnn, bool rnn) {
    PolicyConfig cfg;
    cfg.squish_size = s.squish;
    cfg.embed_dim = s.embed;
    cfg.rnn_hidden = s.hidden;
    cfg.rnn_layers = s.layers;
    cfg.conv_base = s.conv_base;
    cfg.use_gnn = gnn;
    cfg.use_rnn = rnn;
    cfg.seed = 17;
    return cfg;
}

// Node features in [-1, 1] (so ReLUs clip at every layer), with every
// fourth node all zero and every fifth all negative: ReLU then zeroes most
// or all of that node's conv gradients.
std::vector<nn::Tensor> make_features(int n, int s, Rng& rng) {
    std::vector<nn::Tensor> feats;
    for (int i = 0; i < n; ++i) {
        nn::Tensor t({6, s, s});
        for (float& v : t.data()) {
            v = i % 4 == 3 ? 0.0F
                : i % 5 == 4 ? -static_cast<float>(rng.uniform(0.0, 1.0))
                             : static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        feats.push_back(std::move(t));
    }
    return feats;
}

// A chain with a few extra edges; every third node is isolated.
Graph make_graph(int n) {
    Graph g;
    g.n = n;
    g.neighbors.assign(static_cast<std::size_t>(n), {});
    const auto link = [&](int a, int b) {
        g.neighbors[static_cast<std::size_t>(a)].push_back(b);
        g.neighbors[static_cast<std::size_t>(b)].push_back(a);
    };
    for (int i = 0; i + 1 < n; ++i) {
        if (i % 3 == 2 || (i + 1) % 3 == 2) continue;
        link(i, i + 1);
    }
    for (int i = 0; i + 4 < n; i += 4) {
        if (i % 3 != 2 && (i + 4) % 3 != 2) link(i, i + 4);
    }
    return g;
}

// dlogits with exact zeros and negative zeros mixed in.
nn::Tensor make_dlogits(int n, Rng& rng) {
    nn::Tensor d({n, rl::kNumActions});
    for (std::size_t i = 0; i < d.numel(); ++i) {
        d[i] = i % 7 == 3 ? 0.0F : i % 11 == 5 ? -0.0F : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return d;
}

bool bytes_equal(const nn::Tensor& a, const nn::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(), a.numel() * sizeof(float)) == 0;
}

std::vector<simd::Level> levels() {
    std::vector<simd::Level> out{simd::Level::kScalar};
    if (simd::detected_level() != simd::Level::kScalar) out.push_back(simd::detected_level());
    return out;
}

// Two forward/backward rounds on each network, from identical non-zero
// starting gradients; logits and every gradient must match byte for byte.
void expect_matches_reference(const PolicyConfig& cfg, int n) {
    for (const simd::Level level : levels()) {
        SCOPED_TRACE(simd::level_name(level));
        const simd::ScopedOverride force(level);
        ReferencePolicy ref(cfg);
        PolicyNetwork net(cfg);
        const std::vector<nn::Parameter*> rp = ref.params();
        const std::vector<nn::Parameter*> np = net.params();
        ASSERT_EQ(rp.size(), np.size());
        Rng rng(static_cast<std::uint64_t>(n) * 31U + static_cast<std::uint64_t>(cfg.conv_base));
        for (std::size_t p = 0; p < rp.size(); ++p) {
            ASSERT_TRUE(bytes_equal(rp[p]->value, np[p]->value)) << "init of param " << p;
            for (float& g : rp[p]->grad.data()) g = static_cast<float>(rng.uniform(-0.5, 0.5));
            np[p]->grad = rp[p]->grad;
        }
        const Graph g = make_graph(n);
        for (int round = 0; round < 2; ++round) {
            const std::vector<nn::Tensor> feats = make_features(n, cfg.squish_size, rng);
            const nn::Tensor want = ref.forward(feats, g);
            const nn::Tensor got = net.forward(feats, g);
            ASSERT_TRUE(bytes_equal(want, got)) << "logits, round " << round;
            const nn::Tensor d = make_dlogits(n, rng);
            ref.backward(d);
            net.backward(d);
            for (std::size_t p = 0; p < rp.size(); ++p) {
                EXPECT_TRUE(bytes_equal(rp[p]->grad, np[p]->grad))
                    << "grad of param " << p << ", round " << round;
            }
        }
    }
}

struct OracleCase {
    Shape shape;
    bool gnn;
    bool rnn;
};

class PolicyOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(PolicyOracle, ForwardAndGradientsBitIdenticalToPerNodeReference) {
    const OracleCase c = GetParam();
    const PolicyConfig cfg = make_config(c.shape, c.gnn, c.rnn);
    for (const int n : {1, 2, 24}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        expect_matches_reference(cfg, n);
    }
}

// Paper-width layers (embed 256, hidden 64, 3 RNN layers) at S = 32 with
// conv_base 8 and 6, plus narrow layers whose widths are not multiples of
// the 8-lane block anywhere.
const Shape kBase8{8, 32, 256, 64, 3};
const Shape kBase6{6, 32, 256, 64, 3};
const Shape kNarrow{6, 16, 20, 12, 2};

INSTANTIATE_TEST_SUITE_P(
    Variants, PolicyOracle,
    ::testing::Values(OracleCase{kBase8, true, true}, OracleCase{kBase8, true, false},
                      OracleCase{kBase8, false, true}, OracleCase{kBase8, false, false},
                      OracleCase{kBase6, true, true}, OracleCase{kBase6, true, false},
                      OracleCase{kBase6, false, true}, OracleCase{kBase6, false, false},
                      OracleCase{kNarrow, true, true}, OracleCase{kNarrow, false, false}));

// Inference runs the training forward's walk on the same kernel table, so
// at every level its logits equal the training forward's, and both equal the
// scalar level's.
TEST(PolicyOracle, InferEqualsTrainingForwardAtEveryLevel) {
    PolicyNetwork net(make_config(kBase6, true, true));
    Rng rng(3);
    const std::vector<nn::Tensor> feats = make_features(5, 32, rng);
    const Graph g = make_graph(5);
    nn::Tensor scalar_logits;
    {
        const simd::ScopedOverride force(simd::Level::kScalar);
        scalar_logits = net.forward(feats, g);
    }
    for (const simd::Level level : levels()) {
        SCOPED_TRACE(simd::level_name(level));
        const simd::ScopedOverride force(level);
        const nn::Tensor inferred = net.infer(feats, g);
        EXPECT_TRUE(bytes_equal(net.forward(feats, g), inferred));
        EXPECT_TRUE(bytes_equal(scalar_logits, inferred));
    }
}

}  // namespace
}  // namespace camo::core
