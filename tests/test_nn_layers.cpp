#include <gtest/gtest.h>

#include "common/rng.hpp"

#include "nn_reference_layers.hpp"

namespace camo::nn {
namespace {

Tensor random_tensor(std::vector<int> shape, Rng& rng, double scale = 1.0) {
    Tensor t(std::move(shape));
    for (float& v : t.data()) v = static_cast<float>(rng.uniform(-scale, scale));
    return t;
}

TEST(Tensor, ShapeAndIndexing) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.numel(), 24U);
    t.at(1, 2, 3) = 5.0F;
    EXPECT_FLOAT_EQ(t.at(1, 2, 3), 5.0F);
    EXPECT_FLOAT_EQ(t[23], 5.0F);
    EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
}

TEST(Tensor, Arithmetic) {
    Tensor a({4});
    Tensor b({4});
    a.fill(2.0F);
    b.fill(3.0F);
    a.add_(b);
    EXPECT_FLOAT_EQ(a[0], 5.0F);
    a.axpy_(2.0F, b);
    EXPECT_FLOAT_EQ(a[1], 11.0F);
    a.scale_(0.5F);
    EXPECT_FLOAT_EQ(a[2], 5.5F);
    EXPECT_FLOAT_EQ(a.sum(), 22.0F);
    EXPECT_FLOAT_EQ(a.abs_max(), 5.5F);
}

TEST(Tensor, ReshapeChecksNumel) {
    Tensor t({2, 6});
    const Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_THROW(t.reshaped({5}), std::invalid_argument);
}

TEST(GradCheck, Linear) {
    Rng rng(1);
    Linear layer(7, 5, rng);
    const Tensor x = random_tensor({7}, rng);
    const auto res = gradient_check(layer, x, rng);
    EXPECT_TRUE(res.ok()) << "input err " << res.max_rel_error_input << " param err "
                          << res.max_rel_error_params;
}

struct ConvSpec {
    int in_ch;
    int out_ch;
    int kernel;
    int stride;
    int pad;
    int hw;
};

class ConvGradSweep : public ::testing::TestWithParam<ConvSpec> {};

TEST_P(ConvGradSweep, MatchesFiniteDifferences) {
    const ConvSpec s = GetParam();
    Rng rng(2);
    Conv2d layer(s.in_ch, s.out_ch, s.kernel, s.stride, s.pad, rng);
    const Tensor x = random_tensor({s.in_ch, s.hw, s.hw}, rng);
    const auto res = gradient_check(layer, x, rng);
    EXPECT_TRUE(res.ok()) << "input err " << res.max_rel_error_input << " param err "
                          << res.max_rel_error_params;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvGradSweep,
                         ::testing::Values(ConvSpec{1, 2, 3, 1, 1, 6}, ConvSpec{2, 3, 3, 2, 1, 8},
                                           ConvSpec{3, 2, 5, 2, 2, 9}, ConvSpec{2, 4, 3, 1, 0, 5},
                                           ConvSpec{6, 4, 3, 2, 1, 8}));

TEST(GradCheck, ReLU) {
    Rng rng(3);
    ReLU layer;
    const Tensor x = random_tensor({3, 4, 4}, rng);
    const auto res = gradient_check(layer, x, rng);
    EXPECT_TRUE(res.ok());
}

TEST(GradCheck, Tanh) {
    Rng rng(4);
    Tanh layer;
    const Tensor x = random_tensor({10}, rng);
    const auto res = gradient_check(layer, x, rng, 5e-3F);
    EXPECT_TRUE(res.ok());
}

TEST(GradCheck, MaxPool) {
    Rng rng(5);
    MaxPool2d layer(2);
    // Well-separated values avoid argmax flips under the FD epsilon.
    Tensor x({2, 4, 4});
    float v = 0.0F;
    for (float& e : x.data()) {
        e = v;
        v += 0.37F;
    }
    const auto res = gradient_check(layer, x, rng);
    EXPECT_TRUE(res.ok());
}

struct RnnSpec {
    int input;
    int hidden;
    int layers;
    int steps;
};

class RnnGradSweep : public ::testing::TestWithParam<RnnSpec> {};

TEST_P(RnnGradSweep, BpttMatchesFiniteDifferences) {
    const RnnSpec s = GetParam();
    Rng rng(6);
    Rnn rnn(s.input, s.hidden, s.layers, rng);
    const Tensor x = random_tensor({s.steps, s.input}, rng);
    const auto res = gradient_check(rnn, x, rng, 5e-3F);
    EXPECT_TRUE(res.ok()) << "input err " << res.max_rel_error_input << " param err "
                          << res.max_rel_error_params;
}

INSTANTIATE_TEST_SUITE_P(Shapes, RnnGradSweep,
                         ::testing::Values(RnnSpec{3, 4, 1, 1}, RnnSpec{3, 4, 1, 5},
                                           RnnSpec{4, 6, 2, 4}, RnnSpec{5, 4, 3, 6}));

TEST(GradCheck, SequentialCnnStack) {
    // Tanh keeps the composite loss smooth: finite differences across a
    // ReLU kink produce spurious mismatches in deep stacks.
    Rng rng(7);
    Sequential net;
    net.emplace<Conv2d>(2, 3, 3, 2, 1, rng);
    net.emplace<Tanh>();
    net.emplace<Conv2d>(3, 4, 3, 2, 1, rng);
    net.emplace<Tanh>();
    const Tensor x = random_tensor({2, 8, 8}, rng);
    const auto res = gradient_check(net, x, rng, 5e-3F);
    EXPECT_TRUE(res.ok()) << "input err " << res.max_rel_error_input << " param err "
                          << res.max_rel_error_params;
}

TEST(GradCheck, ConvReluPair) {
    Rng rng(21);
    Sequential net;
    net.emplace<Conv2d>(2, 3, 3, 2, 1, rng);
    net.emplace<ReLU>();
    const Tensor x = random_tensor({2, 8, 8}, rng);
    const auto res = gradient_check(net, x, rng);
    EXPECT_TRUE(res.ok()) << "input err " << res.max_rel_error_input << " param err "
                          << res.max_rel_error_params;
}

TEST(Rnn, OutputShapeAndDeterminism) {
    Rng rng(8);
    Rnn rnn(4, 6, 3, rng);
    Tensor x = random_tensor({5, 4}, rng);
    Tape t1;
    Tape t2;
    const Tensor y1 = rnn.forward(x, t1);
    const Tensor y2 = rnn.forward(x, t2);
    ASSERT_EQ(y1.shape(), (std::vector<int>{5, 6}));
    for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(Rnn, HiddenStateCarriesContext) {
    // Same input at t=0 and t=1 must give different outputs (state evolves)
    // unless the recurrent weight happens to be zero, which Xavier init
    // makes vanishingly unlikely.
    Rng rng(9);
    Rnn rnn(3, 5, 1, rng);
    Tensor x({2, 3});
    x.at(0, 0) = x.at(1, 0) = 1.0F;
    Tape tape;
    const Tensor y = rnn.forward(x, tape);
    double diff = 0.0;
    for (int h = 0; h < 5; ++h) diff += std::abs(y.at(0, h) - y.at(1, h));
    EXPECT_GT(diff, 1e-6);
}

TEST(Tape, PushPopLifo) {
    Tape tape;
    Tensor a({1});
    a[0] = 1.0F;
    Tensor b({1});
    b[0] = 2.0F;
    tape.push(std::move(a));
    tape.push(std::move(b));
    EXPECT_FLOAT_EQ(tape.pop()[0], 2.0F);
    EXPECT_FLOAT_EQ(tape.pop()[0], 1.0F);
    EXPECT_THROW(tape.pop(), std::logic_error);
}

}  // namespace
}  // namespace camo::nn
