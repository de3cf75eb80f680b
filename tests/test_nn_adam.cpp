#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/softmax.hpp"

#include "nn_reference_layers.hpp"

namespace camo::nn {
namespace {

TEST(Adam, ConvergesOnQuadratic) {
    Rng rng(20);
    Linear layer(3, 1, rng);
    Tensor x({3});
    x[0] = 1.0F;
    x[1] = -2.0F;
    x[2] = 0.5F;
    Adam opt(layer.params(), {.lr = 0.05F});
    float loss = 1e9F;
    for (int it = 0; it < 300; ++it) {
        Tape tape;
        const Tensor y = layer.forward(x, tape);
        Tensor gy({1});
        gy[0] = 2.0F * (y[0] - 1.5F);
        loss = (y[0] - 1.5F) * (y[0] - 1.5F);
        (void)layer.backward(gy, tape);
        opt.step();
    }
    EXPECT_LT(loss, 1e-5F);
}

TEST(Adam, HandlesIllConditionedScales) {
    // One input dimension is 100x larger: plain SGD at a workable lr for
    // the big coordinate crawls on the small one; Adam equalizes progress.
    Rng rng(21);
    Linear layer(2, 1, rng);
    Tensor x({2});
    x[0] = 100.0F;
    x[1] = 0.01F;
    Adam opt(layer.params(), {.lr = 0.05F});
    float loss = 1e9F;
    for (int it = 0; it < 500; ++it) {
        Tape tape;
        const Tensor y = layer.forward(x, tape);
        Tensor gy({1});
        gy[0] = 2.0F * (y[0] - 2.0F);
        loss = (y[0] - 2.0F) * (y[0] - 2.0F);
        (void)layer.backward(gy, tape);
        opt.step();
    }
    EXPECT_LT(loss, 1e-4F);
}

TEST(Adam, ClipNormBoundsFirstStep) {
    Rng rng(22);
    Linear layer(2, 1, rng);
    const Tensor before = layer.params()[0]->value.reshaped({2});

    Tensor x({2});
    x.fill(1000.0F);
    Tape tape;
    (void)layer.forward(x, tape);
    Tensor gy({1});
    gy[0] = 1000.0F;
    (void)layer.backward(gy, tape);

    Adam opt(layer.params(), {.lr = 0.01F, .clip_norm = 1.0F});
    opt.step();
    // Adam normalizes per-parameter, so the step is bounded by lr per
    // element regardless; clip_norm additionally tames the moments.
    const Tensor after = layer.params()[0]->value.reshaped({2});
    for (int i = 0; i < 2; ++i) {
        EXPECT_LE(std::abs(after[static_cast<std::size_t>(i)] -
                           before[static_cast<std::size_t>(i)]),
                  0.011F);
    }
}

TEST(Adam, WeightDecayShrinksWithoutGradient) {
    Rng rng(23);
    Linear layer(4, 2, rng);
    double before = 0.0;
    for (float v : layer.params()[0]->value.data()) before += v * v;
    Adam opt(layer.params(), {.lr = 0.1F, .weight_decay = 0.1F});
    opt.step();
    double after = 0.0;
    for (float v : layer.params()[0]->value.data()) after += v * v;
    EXPECT_LT(after, before);
}

TEST(Adam, SeparatesNearIdenticalInputs) {
    // Regression test for the CAMO training fix: two inputs differing in a
    // single small entry must be separable into different classes quickly.
    Rng rng(24);
    Sequential net;
    net.emplace<Linear>(8, 32, rng);
    net.emplace<ReLU>();
    net.emplace<Linear>(32, 3, rng);

    Tensor a({8});
    Tensor b({8});
    a.fill(0.5F);
    b.fill(0.5F);
    b[3] += 0.2F;  // the only difference

    Adam opt(net.params(), {.lr = 1e-2F});
    double nll = 1e9;
    for (int epoch = 0; epoch < 500; ++epoch) {
        nll = 0.0;
        int which = 0;
        for (const Tensor* x : {&a, &b}) {
            const int label = which++;
            Tape tape;
            const Tensor logits = net.forward(*x, tape);
            nll -= log_prob(logits.data(), label);
            const auto g = policy_logit_grad(logits.data(), label, -1.0F);
            Tensor gy({3});
            for (int i = 0; i < 3; ++i) gy[static_cast<std::size_t>(i)] = g[static_cast<std::size_t>(i)];
            (void)net.backward(gy, tape);
            opt.step();
        }
    }
    EXPECT_LT(nll, 0.2);
}

}  // namespace
}  // namespace camo::nn
