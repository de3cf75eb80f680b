#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/grad_buffer.hpp"
#include "nn/serialize.hpp"
#include "nn/softmax.hpp"

#include "nn_reference_layers.hpp"

namespace camo::nn {
namespace {

TEST(Softmax, NormalizedAndOrderPreserving) {
    const std::vector<float> logits = {1.0F, 3.0F, 2.0F, -1.0F, 0.0F};
    const auto p = softmax(logits);
    float sum = 0.0F;
    for (float v : p) sum += v;
    EXPECT_NEAR(sum, 1.0F, 1e-6F);
    EXPECT_GT(p[1], p[2]);
    EXPECT_GT(p[2], p[0]);
    EXPECT_GT(p[4], p[3]);
}

TEST(Softmax, StableUnderLargeLogits) {
    const std::vector<float> logits = {1000.0F, 999.0F, 998.0F};
    const auto p = softmax(logits);
    EXPECT_FALSE(std::isnan(p[0]));
    EXPECT_GT(p[0], p[1]);
    float sum = 0.0F;
    for (float v : p) sum += v;
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
}

TEST(Softmax, LogProbConsistent) {
    const std::vector<float> logits = {0.3F, -1.2F, 2.0F, 0.0F, 0.7F};
    const auto p = softmax(logits);
    for (int a = 0; a < 5; ++a) {
        EXPECT_NEAR(log_prob(logits, a), std::log(p[static_cast<std::size_t>(a)]), 1e-5F);
    }
}

TEST(Softmax, PolicyLogitGradMatchesNumeric) {
    std::vector<float> logits = {0.5F, -0.3F, 1.1F, 0.0F, -0.9F};
    const int action = 2;
    const float coef = 0.7F;
    const auto g = policy_logit_grad(logits, action, coef);

    const float eps = 1e-3F;
    for (int i = 0; i < 5; ++i) {
        const float orig = logits[static_cast<std::size_t>(i)];
        logits[static_cast<std::size_t>(i)] = orig + eps;
        const float lp = coef * log_prob(logits, action);
        logits[static_cast<std::size_t>(i)] = orig - eps;
        const float lm = coef * log_prob(logits, action);
        logits[static_cast<std::size_t>(i)] = orig;
        EXPECT_NEAR(g[static_cast<std::size_t>(i)], (lp - lm) / (2 * eps), 5e-3F);
    }
}

TEST(Training, OverfitsTinyClassification) {
    // 4 points, 2 classes, tiny MLP: cross-entropy must fall substantially.
    Rng rng(13);
    Sequential net;
    net.emplace<Linear>(2, 16, rng);
    net.emplace<ReLU>();
    net.emplace<Linear>(16, 2, rng);

    const std::vector<std::pair<std::vector<float>, int>> data = {
        {{0.0F, 0.0F}, 0}, {{1.0F, 1.0F}, 0}, {{0.0F, 1.0F}, 1}, {{1.0F, 0.0F}, 1}};

    Adam opt(net.params(), {.lr = 0.01F});
    double first_loss = 0.0;
    double last_loss = 0.0;
    for (int epoch = 0; epoch < 200; ++epoch) {
        double loss = 0.0;
        for (const auto& [xv, label] : data) {
            Tensor x({2});
            x[0] = xv[0];
            x[1] = xv[1];
            Tape tape;
            const Tensor logits = net.forward(x, tape);
            loss += -log_prob(logits.data(), label);
            // Gradient ascent on log prob == descent on NLL: negate.
            const auto g = policy_logit_grad(logits.data(), label, -1.0F);
            Tensor gy({2});
            gy[0] = g[0];
            gy[1] = g[1];
            (void)net.backward(gy, tape);
        }
        opt.step();
        if (epoch == 0) first_loss = loss;
        last_loss = loss;
    }
    EXPECT_LT(last_loss, first_loss * 0.1);
}

// ---- Accumulate-then-reduce gradient path ----------------------------------
// The data-parallel trainer captures per-sample gradients into detached
// buffers (nn/grad_buffer.hpp) and folds them back in fixed order. Because
// every Layer::backward adds exactly one value per parameter element per
// call (the accumulation contract in nn_reference_layers.hpp), the reduced
// gradients must equal direct single-buffer accumulation to 0 ULP — this
// is what makes training results independent of the worker count.

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
    Tensor t(std::move(shape));
    for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

void zero_all(const std::vector<Parameter*>& params) {
    for (Parameter* p : params) p->zero_grad();
}

std::vector<Tensor> grads_snapshot(const std::vector<Parameter*>& params) {
    std::vector<Tensor> out;
    out.reserve(params.size());
    for (Parameter* p : params) out.push_back(p->grad);
    return out;
}

void expect_reduce_matches_single_buffer(Layer& layer, const std::vector<Tensor>& inputs,
                                         const std::vector<Tensor>& probes) {
    const auto params = layer.params();
    ASSERT_FALSE(params.empty());

    // Path A: the whole minibatch accumulates into the shared grads.
    zero_all(params);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        Tape tape;
        (void)layer.forward(inputs[k], tape);
        (void)layer.backward(probes[k], tape);
    }
    const std::vector<Tensor> single = grads_snapshot(params);

    // Path B: per-sample buffers captured from zeroed grads, then reduced
    // in sample order.
    zero_all(params);
    std::vector<GradBuffer> buffers(inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        Tape tape;
        (void)layer.forward(inputs[k], tape);
        (void)layer.backward(probes[k], tape);
        buffers[k].capture(params);
    }
    reduce_in_order(buffers, params);

    for (std::size_t i = 0; i < params.size(); ++i) {
        ASSERT_EQ(params[i]->grad.numel(), single[i].numel());
        EXPECT_EQ(0, std::memcmp(params[i]->grad.data().data(), single[i].data().data(),
                                 single[i].numel() * sizeof(float)))
            << "param " << i << ": reduced grads differ from single-buffer grads";
    }
    zero_all(params);
}

TEST(GradReduce, LinearReducedMatchesSingleBufferToZeroUlp) {
    Rng rng(21);
    Linear layer(7, 5, rng);
    std::vector<Tensor> inputs;
    std::vector<Tensor> probes;
    for (int k = 0; k < 6; ++k) {
        inputs.push_back(random_tensor({7}, rng));
        probes.push_back(random_tensor({5}, rng));
    }
    expect_reduce_matches_single_buffer(layer, inputs, probes);
}

TEST(GradReduce, Conv2dReducedMatchesSingleBufferToZeroUlp) {
    Rng rng(22);
    Conv2d layer(3, 4, 3, 2, 1, rng);
    std::vector<Tensor> inputs;
    std::vector<Tensor> probes;
    for (int k = 0; k < 5; ++k) {
        inputs.push_back(random_tensor({3, 8, 8}, rng));
        probes.push_back(random_tensor({4, 4, 4}, rng));
    }
    expect_reduce_matches_single_buffer(layer, inputs, probes);
}

TEST(GradReduce, RnnReducedMatchesSingleBufferToZeroUlp) {
    Rng rng(23);
    Rnn layer(6, 5, 2, rng);
    std::vector<Tensor> inputs;
    std::vector<Tensor> probes;
    for (int k = 0; k < 5; ++k) {
        inputs.push_back(random_tensor({4, 6}, rng));
        probes.push_back(random_tensor({4, 5}, rng));
    }
    expect_reduce_matches_single_buffer(layer, inputs, probes);
}

TEST(GradReduce, AnalyticGradientsSurviveLocalAccumulation) {
    // The local-accumulate-then-add refactor must not change what the
    // gradients mean, only how they are folded in: central differences
    // still agree for every layer the trainer reduces.
    {
        Rng rng(24);
        Linear layer(6, 4, rng);
        const Tensor x = random_tensor({6}, rng);
        EXPECT_TRUE(gradient_check(layer, x, rng).ok());
    }
    {
        Rng rng(25);
        Conv2d layer(2, 3, 3, 2, 1, rng);
        const Tensor x = random_tensor({2, 8, 8}, rng);
        EXPECT_TRUE(gradient_check(layer, x, rng).ok());
    }
    {
        Rng rng(26);
        Rnn layer(5, 4, 2, rng);
        const Tensor x = random_tensor({3, 5}, rng);
        EXPECT_TRUE(gradient_check(layer, x, rng).ok());
    }
}

TEST(GradBufferApi, CaptureZeroesSourceAndAddRestores) {
    Rng rng(27);
    Linear layer(3, 2, rng);
    const auto params = layer.params();

    Tape tape;
    const Tensor x = random_tensor({3}, rng);
    (void)layer.forward(x, tape);
    Tensor gy({2});
    gy[0] = 1.0F;
    gy[1] = -0.5F;
    (void)layer.backward(gy, tape);
    const std::vector<Tensor> before = grads_snapshot(params);

    GradBuffer buf;
    buf.capture(params);
    for (Parameter* p : params) {
        for (float v : p->grad.data()) EXPECT_EQ(v, 0.0F);
    }

    buf.add_to(params);
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(params[i]->grad.data().data(), before[i].data().data(),
                                 before[i].numel() * sizeof(float)));
    }
    zero_all(params);
}

TEST(GradBufferApi, MergeSumsAndRejectsMismatch) {
    Rng rng(28);
    Linear a(2, 2, rng);
    Linear other(3, 1, rng);

    const auto fill_grads = [](Linear& l, float v) {
        for (Parameter* p : l.params()) p->grad.fill(v);
    };

    fill_grads(a, 1.5F);
    GradBuffer b1;
    b1.capture(a.params());
    fill_grads(a, 2.0F);
    GradBuffer b2;
    b2.capture(a.params());

    b1.merge(b2);
    b1.add_to(a.params());
    for (Parameter* p : a.params()) {
        for (float v : p->grad.data()) EXPECT_EQ(v, 3.5F);
    }

    GradBuffer wrong;
    wrong.capture(other.params());
    EXPECT_THROW(b1.merge(wrong), std::invalid_argument);
    EXPECT_THROW(wrong.add_to(a.params()), std::invalid_argument);

    // Merging into an empty buffer adopts the other's contents.
    GradBuffer empty;
    empty.merge(b2);
    EXPECT_EQ(empty.size(), b2.size());
}

TEST(Serialize, RoundtripRestoresWeights) {
    const std::string path = testing::TempDir() + "camo_net_test.bin";
    Rng rng(14);
    Linear a(3, 4, rng);
    Linear b(3, 4, rng);  // different init

    save_params(path, a.params());
    ASSERT_TRUE(load_params(path, b.params()));
    for (std::size_t i = 0; i < a.params()[0]->value.numel(); ++i) {
        EXPECT_FLOAT_EQ(a.params()[0]->value[i], b.params()[0]->value[i]);
    }
    std::remove(path.c_str());
}

TEST(Serialize, RejectsShapeMismatch) {
    const std::string path = testing::TempDir() + "camo_net_mismatch.bin";
    Rng rng(15);
    Linear a(3, 4, rng);
    Linear c(5, 2, rng);
    save_params(path, a.params());
    EXPECT_FALSE(load_params(path, c.params()));
    std::remove(path.c_str());
}

TEST(Serialize, RejectsTrailingBytes) {
    // A concatenated or truncated-then-appended weights file must not load:
    // the stream has to end exactly where the last parameter does.
    const std::string path = testing::TempDir() + "camo_net_trailing.bin";
    Rng rng(17);
    Linear a(3, 4, rng);
    Linear b(3, 4, rng);
    save_params(path, a.params());
    {
        std::ofstream app(path, std::ios::binary | std::ios::app);
        const char junk[4] = {0, 1, 2, 3};
        app.write(junk, sizeof junk);
    }
    EXPECT_FALSE(load_params(path, b.params()));
    std::remove(path.c_str());
}

TEST(Serialize, RejectsFlippedWeightByte) {
    // The file ends in an FNV-1a seal: a flipped byte inside a float keeps
    // every shape valid, so only the seal can catch it.
    const std::string path = testing::TempDir() + "camo_net_flipped.bin";
    Rng rng(18);
    Linear a(3, 4, rng);
    Linear b(3, 4, rng);
    save_params(path, a.params());
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    // magic, version, count; then the first parameter's rank, dims, floats.
    const std::size_t first_float = 4 + 4 + 8 + 8 + 4 * a.params()[0]->value.shape().size();
    ASSERT_LT(first_float + 1, bytes.size());
    bytes[first_float + 1] = static_cast<char>(bytes[first_float + 1] ^ 0x10);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::vector<std::vector<float>> before;
    for (const Parameter* p : b.params()) {
        before.emplace_back(p->value.data().begin(), p->value.data().end());
    }
    EXPECT_FALSE(load_params(path, b.params()));
    for (std::size_t i = 0; i < before.size(); ++i) {
        const std::span<const float> now = b.params()[i]->value.data();
        EXPECT_TRUE(std::equal(now.begin(), now.end(), before[i].begin(), before[i].end()))
            << "parameter " << i << " changed";
    }
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileReturnsFalse) {
    Rng rng(16);
    Linear a(2, 2, rng);
    EXPECT_FALSE(load_params("/nonexistent/dir/weights.bin", a.params()));
}

}  // namespace
}  // namespace camo::nn
