#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "core/camo.hpp"
#include "core/policy.hpp"

namespace camo::core {
namespace {

PolicyConfig tiny_config(bool gnn, bool rnn) {
    PolicyConfig cfg;
    cfg.squish_size = 8;
    cfg.embed_dim = 16;
    cfg.rnn_hidden = 8;
    cfg.rnn_layers = 2;
    cfg.conv_base = 4;
    cfg.use_gnn = gnn;
    cfg.use_rnn = rnn;
    cfg.seed = 3;
    return cfg;
}

std::vector<nn::Tensor> random_features(int n, int s, Rng& rng) {
    std::vector<nn::Tensor> f;
    for (int i = 0; i < n; ++i) {
        nn::Tensor t({6, s, s});
        for (float& v : t.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
        f.push_back(std::move(t));
    }
    return f;
}

Graph chain_graph(int n) {
    Graph g;
    g.n = n;
    g.neighbors.assign(static_cast<std::size_t>(n), {});
    for (int i = 0; i + 1 < n; ++i) {
        g.neighbors[static_cast<std::size_t>(i)].push_back(i + 1);
        g.neighbors[static_cast<std::size_t>(i + 1)].push_back(i);
    }
    return g;
}

TEST(Policy, ForwardShapeAndDeterminism) {
    PolicyNetwork net(tiny_config(true, true));
    Rng rng(5);
    const auto feats = random_features(4, 8, rng);
    const Graph g = chain_graph(4);
    const nn::Tensor a = net.forward(feats, g);
    const nn::Tensor b = net.forward(feats, g);
    ASSERT_EQ(a.shape(), (std::vector<int>{4, 5}));
    for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Policy, GnnFusionChangesWithNeighborFeatures) {
    PolicyNetwork net(tiny_config(true, false));
    Rng rng(6);
    auto feats = random_features(3, 8, rng);
    const Graph g = chain_graph(3);
    const nn::Tensor before = net.forward(feats, g);

    // Perturb only node 2's feature: node 1 (its neighbour) must react,
    // node 0 (not adjacent to 2) must not.
    for (float& v : feats[2].data()) v += 0.5F;
    const nn::Tensor after = net.forward(feats, g);

    double d0 = 0.0;
    double d1 = 0.0;
    for (int a = 0; a < 5; ++a) {
        d0 += std::abs(after.at(0, a) - before.at(0, a));
        d1 += std::abs(after.at(1, a) - before.at(1, a));
    }
    EXPECT_LT(d0, 1e-6);
    EXPECT_GT(d1, 1e-6);
}

TEST(Policy, RnnMakesDecisionsSequenceDependent) {
    PolicyNetwork net(tiny_config(false, true));
    Rng rng(7);
    auto feats = random_features(3, 8, rng);
    const Graph g = chain_graph(3);
    const nn::Tensor before = net.forward(feats, g);

    // Perturb node 0: with an RNN, later nodes' outputs must change.
    for (float& v : feats[0].data()) v += 0.5F;
    const nn::Tensor after = net.forward(feats, g);
    double d2 = 0.0;
    for (int a = 0; a < 5; ++a) d2 += std::abs(after.at(2, a) - before.at(2, a));
    EXPECT_GT(d2, 1e-7);
}

TEST(Policy, BaselineIsIndependentAcrossNodes) {
    // RL-OPC configuration: no GNN, no RNN -> node 1 is unaffected by 0.
    PolicyNetwork net(tiny_config(false, false));
    Rng rng(8);
    auto feats = random_features(2, 8, rng);
    const Graph g = chain_graph(2);
    const nn::Tensor before = net.forward(feats, g);
    for (float& v : feats[0].data()) v += 0.5F;
    const nn::Tensor after = net.forward(feats, g);
    double d1 = 0.0;
    for (int a = 0; a < 5; ++a) d1 += std::abs(after.at(1, a) - before.at(1, a));
    EXPECT_LT(d1, 1e-7);
}

struct PolicyVariant {
    bool gnn;
    bool rnn;
};

class PolicyGradSweep : public ::testing::TestWithParam<PolicyVariant> {};

TEST_P(PolicyGradSweep, BackwardMatchesFiniteDifferences) {
    // Full-network gradient check on a scalar probe loss, spot-checking a
    // subset of parameters from every module.
    const auto variant = GetParam();
    PolicyNetwork net(tiny_config(variant.gnn, variant.rnn));
    Rng rng(9);
    const int n = 3;
    const auto feats = random_features(n, 8, rng);
    const Graph g = chain_graph(n);

    nn::Tensor probe({n, 5});
    for (float& v : probe.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    auto loss = [&]() {
        const nn::Tensor out = net.forward(feats, g);
        double s = 0.0;
        for (std::size_t i = 0; i < out.numel(); ++i) s += static_cast<double>(out[i]) * probe[i];
        return s;
    };

    (void)net.forward(feats, g);
    for (nn::Parameter* p : net.params()) p->zero_grad();
    net.backward(probe);

    const float eps = 5e-3F;
    int checked = 0;
    for (nn::Parameter* p : net.params()) {
        // Check a few entries of each parameter tensor.
        const std::size_t stride = std::max<std::size_t>(1, p->value.numel() / 3);
        for (std::size_t i = 0; i < p->value.numel(); i += stride) {
            const float orig = p->value[i];
            p->value[i] = orig + eps;
            const double lp = loss();
            p->value[i] = orig - eps;
            const double lm = loss();
            p->value[i] = orig;
            const double numeric = (lp - lm) / (2.0 * eps);
            const double analytic = p->grad[i];
            const double denom = std::max({std::abs(numeric), std::abs(analytic), 5e-2});
            EXPECT_LT(std::abs(numeric - analytic) / denom, 0.1)
                << "param entry " << i << " numeric " << numeric << " analytic " << analytic;
            ++checked;
        }
    }
    EXPECT_GT(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Variants, PolicyGradSweep,
                         ::testing::Values(PolicyVariant{true, true}, PolicyVariant{true, false},
                                           PolicyVariant{false, true},
                                           PolicyVariant{false, false}));

TEST(Policy, SaveLoadRoundtrip) {
    const std::string path = testing::TempDir() + "camo_policy.bin";
    PolicyNetwork a(tiny_config(true, true));
    PolicyConfig cfg2 = tiny_config(true, true);
    cfg2.seed = 99;  // different init
    PolicyNetwork b(cfg2);

    Rng rng(10);
    const auto feats = random_features(2, 8, rng);
    const Graph g = chain_graph(2);

    a.save(path);
    ASSERT_TRUE(b.load(path));
    const nn::Tensor ya = a.forward(feats, g);
    const nn::Tensor yb = b.forward(feats, g);
    for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
    std::remove(path.c_str());
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(), a.numel() * sizeof(float)) == 0;
}

// The stale-pack guard: `net`'s training forward, both the one that packs
// for itself and the trainer's on a pack() taken now, is bit-identical to
// the forward of a freshly built network (another seed) loaded with net's
// current weights.
void expect_forward_matches_fresh_load(PolicyNetwork& net, const std::vector<nn::Tensor>& feats,
                                       const Graph& g, const std::string& what) {
    const std::string path = testing::TempDir() + "camo_policy_fresh.bin";
    net.save(path);
    PolicyConfig cfg = net.config();
    cfg.seed += 1000;
    PolicyNetwork fresh(cfg);
    ASSERT_TRUE(fresh.load(path)) << what;
    std::remove(path.c_str());
    const nn::Tensor want = fresh.forward(feats, g);
    EXPECT_TRUE(same_bits(net.forward(feats, g), want)) << what << ": forward";
    EXPECT_TRUE(same_bits(net.forward(net.pack(), feats, g), want)) << what << ": forward(pack())";
}

TEST(PolicyPack, TrainingForwardNeverSeesStaleWeights) {
    PolicyNetwork net(tiny_config(true, true));
    Rng rng(12);
    const auto feats = random_features(3, 8, rng);
    const Graph g = chain_graph(3);

    // A write through a params() vector held across forwards.
    const std::vector<nn::Parameter*> held = net.params();
    (void)net.forward(feats, g);
    (void)net.forward(net.pack(), feats, g);
    for (nn::Parameter* p : held) p->value[0] += 0.25F;
    expect_forward_matches_fresh_load(net, feats, g, "params() write");

    // load() over weights the network has already run on.
    PolicyConfig other = tiny_config(true, true);
    other.seed = 77;
    const std::string path = testing::TempDir() + "camo_policy_other.bin";
    PolicyNetwork(other).save(path);
    ASSERT_TRUE(net.load(path));
    std::remove(path.c_str());
    expect_forward_matches_fresh_load(net, feats, g, "load");
}

TEST(PolicyPack, OptimizerStepsReachTheNextPack) {
    // run_phase1_epoch closes every minibatch with an optimizer step and
    // packs the master afresh for the next one; serially and on the pool.
    for (const int workers : {1, 2}) {
        CamoConfig cfg;
        cfg.policy = tiny_config(true, true);
        cfg.squish.size = cfg.policy.squish_size;
        cfg.train_workers = workers;
        cfg.phase1_batch = 2;
        CamoEngine engine(cfg);
        Rng rng(13);
        Phase1Dataset data;
        data.graphs = {chain_graph(3), chain_graph(2)};
        data.action_weight.fill(1.0F);
        for (int k = 0; k < 5; ++k) {
            TeacherSample s;
            s.clip = k % 2;
            s.features = random_features(data.graphs[static_cast<std::size_t>(s.clip)].n, 8, rng);
            for (int i = 0; i < data.graphs[static_cast<std::size_t>(s.clip)].n; ++i) {
                s.actions.push_back((k + i) % 5);
            }
            data.samples.push_back(std::move(s));
        }
        const auto feats = random_features(3, 8, rng);
        const Graph g = chain_graph(3);
        PolicyNetwork& net = engine.policy();
        const nn::Tensor before = net.forward(net.pack(), feats, g);
        (void)engine.run_phase1_epoch(data);
        const nn::Tensor after = net.forward(net.pack(), feats, g);
        EXPECT_FALSE(same_bits(before, after)) << "workers " << workers;
        expect_forward_matches_fresh_load(net, feats, g,
                                          "optimizer step, workers " + std::to_string(workers));
    }
}

TEST(PolicyPack, ReplicaOnMastersPackGetsMastersGradient) {
    // The trainer's replicas never copy the master's weights: a forward on
    // the master's pack, then backward, must give a network with other
    // weights exactly the master's own gradient.
    PolicyNetwork master(tiny_config(true, true));
    PolicyConfig other = tiny_config(true, true);
    other.seed = 55;
    PolicyNetwork replica(other);
    Rng rng(14);
    const auto feats = random_features(4, 8, rng);
    const Graph g = chain_graph(4);
    nn::Tensor dlogits({4, 5});
    for (float& v : dlogits.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    const auto weights = master.pack();
    const nn::Tensor lm = master.forward(weights, feats, g);
    master.backward(dlogits);
    const nn::Tensor lr = replica.forward(weights, feats, g);
    replica.backward(dlogits);
    EXPECT_TRUE(same_bits(lm, lr));
    const std::vector<nn::Tensor*> gm = master.grads();
    const std::vector<nn::Tensor*> gr = replica.grads();
    ASSERT_EQ(gm.size(), gr.size());
    for (std::size_t i = 0; i < gm.size(); ++i) EXPECT_TRUE(same_bits(*gm[i], *gr[i])) << i;

    // A pack from another architecture is refused.
    PolicyNetwork no_rnn(tiny_config(true, false));
    EXPECT_THROW((void)no_rnn.forward(weights, feats, g), std::invalid_argument);
}

TEST(Policy, LoadRejectsDifferentArchitecture) {
    const std::string path = testing::TempDir() + "camo_policy_arch.bin";
    PolicyNetwork a(tiny_config(true, true));
    a.save(path);
    PolicyNetwork c(tiny_config(false, false));
    EXPECT_FALSE(c.load(path));
    std::remove(path.c_str());
}

TEST(Policy, RejectsMismatchedGraph) {
    PolicyNetwork net(tiny_config(true, true));
    Rng rng(11);
    const auto feats = random_features(3, 8, rng);
    const Graph g = chain_graph(4);
    EXPECT_THROW((void)net.forward(feats, g), std::invalid_argument);
    EXPECT_THROW((void)net.forward({}, chain_graph(0)), std::invalid_argument);
}

TEST(Policy, BackwardRequiresForward) {
    PolicyNetwork net(tiny_config(true, true));
    nn::Tensor g({2, 5});
    EXPECT_THROW(net.backward(g), std::logic_error);
}

}  // namespace
}  // namespace camo::core
