// The reference layer framework: the tape-based Layer interface and the
// naive per-sample Conv2d, Linear and multi-layer Rnn loops that specify
// PolicyNetwork's batched forward and backward. Their accumulation orders,
// run once per graph node (the Rnn once per node sequence), are what the
// SIMD kernels (common/simd.hpp, simd::Ops) and the policy's
// flat BPTT reproduce; tests/test_core_policy_oracle.cpp memcmp's the
// batched path against them, and the nn tests use them as gradient-check
// and optimizer fixtures. The ReLU/Tanh/MaxPool2d layers, the Sequential
// container and the finite-difference gradient check below serve the same
// tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/tensor.hpp"

namespace camo::nn {

// ---- Tape and Layer: the per-call activation stack and the layer interface

/// LIFO activation storage. forward() pushes, backward() pops; a layer must
/// pop exactly what it pushed, in reverse order.
class Tape {
public:
    void push(Tensor t) { stack_.push_back(std::move(t)); }

    Tensor pop() {
        if (stack_.empty()) throw std::logic_error("Tape::pop on empty tape");
        Tensor t = std::move(stack_.back());
        stack_.pop_back();
        return t;
    }

    [[nodiscard]] bool empty() const { return stack_.empty(); }
    [[nodiscard]] std::size_t size() const { return stack_.size(); }
    void clear() { stack_.clear(); }

private:
    std::vector<Tensor> stack_;
};

class Layer {
public:
    virtual ~Layer() = default;

    /// forward() is const: it reads parameters and pushes activations onto
    /// the caller-owned tape, never mutating layer state. This is the
    /// thread-safety contract the batch runtime relies on — one set of
    /// weights may run concurrent forwards as long as each caller owns its
    /// own Tape.
    virtual Tensor forward(const Tensor& x, Tape& tape) const = 0;

    /// Propagate grad_out to the input gradient; parameter gradients are
    /// *accumulated* into params()[i]->grad.
    ///
    /// Accumulation contract: one backward() call adds exactly ONE value per
    /// parameter element (the per-call gradient is computed into a local
    /// buffer and folded in with a single addition). Capturing each call
    /// into a detached buffer (nn/grad_buffer.hpp) and reducing the buffers
    /// in call order then reproduces direct shared-buffer accumulation bit
    /// for bit — float addition is not associative, so interleaving a
    /// call's partial sums with the shared buffer would round differently.
    /// Note the granularity: the equality is per backward() CALL. A trainer
    /// sample that feeds a shared weight several times (e.g. the policy's
    /// CNN encoder, once per graph node) makes its per-sample buffer a partial
    /// sum, which is why the data-parallel trainer uses the buffered path
    /// at every worker count rather than treating serial direct
    /// accumulation as equivalent.
    virtual Tensor backward(const Tensor& grad_out, Tape& tape) = 0;

    virtual std::vector<Parameter*> params() { return {}; }
};

/// Collect the parameters of several layers/modules into one flat list.
template <typename... Modules>
std::vector<Parameter*> collect_params(Modules&... modules) {
    std::vector<Parameter*> out;
    (
        [&out](auto& m) {
            auto p = m.params();
            out.insert(out.end(), p.begin(), p.end());
        }(modules),
        ...);
    return out;
}

// ---- Conv2d: 2D convolution over a single CHW sample -----------------------

class Conv2d : public Layer {
public:
    Conv2d(int in_ch, int out_ch, int kernel, int stride, int padding, Rng& rng);

    /// x: [in_ch, H, W] -> [out_ch, H', W'] with
    /// H' = (H + 2*padding - kernel) / stride + 1.
    Tensor forward(const Tensor& x, Tape& tape) const override;
    Tensor backward(const Tensor& grad_out, Tape& tape) override;
    std::vector<Parameter*> params() override { return {&w_, &b_}; }

    [[nodiscard]] int out_size(int in_size) const {
        return (in_size + 2 * pad_ - k_) / stride_ + 1;
    }

    [[nodiscard]] int in_channels() const { return in_ch_; }
    [[nodiscard]] int out_channels() const { return out_ch_; }
    [[nodiscard]] int kernel() const { return k_; }
    [[nodiscard]] int stride() const { return stride_; }
    [[nodiscard]] int padding() const { return pad_; }

    /// Read-only parameter views (the backend tests pack them).
    [[nodiscard]] const Parameter& weight() const { return w_; }
    [[nodiscard]] const Parameter& bias() const { return b_; }

private:
    int in_ch_;
    int out_ch_;
    int k_;
    int stride_;
    int pad_;
    Parameter w_;  // [out_ch, in_ch, k, k]
    Parameter b_;  // [out_ch]
};

inline Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int padding, Rng& rng)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      w_({out_ch, in_ch, kernel, kernel}),
      b_({out_ch}) {
    init_he(w_.value, in_ch * kernel * kernel, rng);
}

inline Tensor Conv2d::forward(const Tensor& x, Tape& tape) const {
    if (x.rank() != 3 || x.dim(0) != in_ch_) throw std::invalid_argument("Conv2d: input shape");
    const int h = x.dim(1);
    const int w = x.dim(2);
    const int oh = out_size(h);
    const int ow = out_size(w);

    Tensor y({out_ch_, oh, ow});
    for (int oc = 0; oc < out_ch_; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float acc = b_.value[static_cast<std::size_t>(oc)];
                const int iy0 = oy * stride_ - pad_;
                const int ix0 = ox * stride_ - pad_;
                for (int ic = 0; ic < in_ch_; ++ic) {
                    for (int ky = 0; ky < k_; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k_; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= w) continue;
                            acc += w_.value.at(oc, ic, ky, kx) * x.at(ic, iy, ix);
                        }
                    }
                }
                y.at(oc, oy, ox) = acc;
            }
        }
    }
    tape.push(x.reshaped(x.shape()));
    return y;
}

inline Tensor Conv2d::backward(const Tensor& grad_out, Tape& tape) {
    const Tensor x = tape.pop();
    const int h = x.dim(1);
    const int w = x.dim(2);
    const int oh = grad_out.dim(1);
    const int ow = grad_out.dim(2);

    // Per-call gradients accumulate into locals and fold in with one
    // addition per element (the Layer::backward accumulation contract).
    Tensor gw(w_.grad.shape());
    Tensor gb(b_.grad.shape());
    Tensor gx(x.shape());
    for (int oc = 0; oc < out_ch_; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                const float go = grad_out.at(oc, oy, ox);
                if (go == 0.0F) continue;
                gb[static_cast<std::size_t>(oc)] += go;
                const int iy0 = oy * stride_ - pad_;
                const int ix0 = ox * stride_ - pad_;
                for (int ic = 0; ic < in_ch_; ++ic) {
                    for (int ky = 0; ky < k_; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < k_; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= w) continue;
                            gw.at(oc, ic, ky, kx) += go * x.at(ic, iy, ix);
                            gx.at(ic, iy, ix) += go * w_.value.at(oc, ic, ky, kx);
                        }
                    }
                }
            }
        }
    }
    w_.grad.add_(gw);
    b_.grad.add_(gb);
    return gx;
}

// ---- Linear: fully connected layer, y = W x + b for a rank-1 input [in] ----

class Linear : public Layer {
public:
    Linear(int in, int out, Rng& rng);

    Tensor forward(const Tensor& x, Tape& tape) const override;
    Tensor backward(const Tensor& grad_out, Tape& tape) override;
    std::vector<Parameter*> params() override { return {&w_, &b_}; }

    [[nodiscard]] int in_features() const { return in_; }
    [[nodiscard]] int out_features() const { return out_; }

    /// Read-only parameter views (the backend tests pack them).
    [[nodiscard]] const Parameter& weight() const { return w_; }
    [[nodiscard]] const Parameter& bias() const { return b_; }

private:
    int in_;
    int out_;
    Parameter w_;  // [out, in]
    Parameter b_;  // [out]
};

inline Linear::Linear(int in, int out, Rng& rng) : in_(in), out_(out), w_({out, in}), b_({out}) {
    init_he(w_.value, in, rng);
}

inline Tensor Linear::forward(const Tensor& x, Tape& tape) const {
    if (static_cast<int>(x.numel()) != in_) throw std::invalid_argument("Linear: input size");
    Tensor y({out_});
    const auto xd = x.data();
    for (int o = 0; o < out_; ++o) {
        float acc = b_.value[static_cast<std::size_t>(o)];
        const std::size_t row = static_cast<std::size_t>(o) * static_cast<std::size_t>(in_);
        for (int i = 0; i < in_; ++i) {
            acc += w_.value[row + static_cast<std::size_t>(i)] * xd[static_cast<std::size_t>(i)];
        }
        y[static_cast<std::size_t>(o)] = acc;
    }
    tape.push(x.reshaped({static_cast<int>(x.numel())}));
    return y;
}

inline Tensor Linear::backward(const Tensor& grad_out, Tape& tape) {
    const Tensor x = tape.pop();
    Tensor gx({in_});
    for (int o = 0; o < out_; ++o) {
        const float go = grad_out[static_cast<std::size_t>(o)];
        b_.grad[static_cast<std::size_t>(o)] += go;
        const std::size_t row = static_cast<std::size_t>(o) * static_cast<std::size_t>(in_);
        for (int i = 0; i < in_; ++i) {
            w_.grad[row + static_cast<std::size_t>(i)] += go * x[static_cast<std::size_t>(i)];
            gx[static_cast<std::size_t>(i)] += go * w_.value[row + static_cast<std::size_t>(i)];
        }
    }
    return gx;
}

// ---- Activations: ReLU, Tanh and non-overlapping max pooling ---------------

class ReLU : public Layer {
public:
    Tensor forward(const Tensor& x, Tape& tape) const override;
    Tensor backward(const Tensor& grad_out, Tape& tape) override;
};

class Tanh : public Layer {
public:
    Tensor forward(const Tensor& x, Tape& tape) const override;
    Tensor backward(const Tensor& grad_out, Tape& tape) override;
};

/// Max pooling over non-overlapping windows on a CHW tensor. Input height
/// and width must be divisible by the window size.
class MaxPool2d : public Layer {
public:
    explicit MaxPool2d(int window) : window_(window) {}

    Tensor forward(const Tensor& x, Tape& tape) const override;
    Tensor backward(const Tensor& grad_out, Tape& tape) override;

private:
    int window_;
};

inline Tensor ReLU::forward(const Tensor& x, Tape& tape) const {
    Tensor y(x.shape());
    const auto xd = x.data();
    auto yd = y.data();
    for (std::size_t i = 0; i < xd.size(); ++i) yd[i] = xd[i] > 0.0F ? xd[i] : 0.0F;
    tape.push(x.reshaped(x.shape()));
    return y;
}

inline Tensor ReLU::backward(const Tensor& grad_out, Tape& tape) {
    const Tensor x = tape.pop();
    Tensor gx(x.shape());
    const auto xd = x.data();
    const auto gd = grad_out.data();
    auto gxd = gx.data();
    for (std::size_t i = 0; i < xd.size(); ++i) gxd[i] = xd[i] > 0.0F ? gd[i] : 0.0F;
    return gx;
}

inline Tensor Tanh::forward(const Tensor& x, Tape& tape) const {
    Tensor y(x.shape());
    const auto xd = x.data();
    auto yd = y.data();
    for (std::size_t i = 0; i < xd.size(); ++i) yd[i] = std::tanh(xd[i]);
    tape.push(y.reshaped(y.shape()));  // store the output: dtanh = 1 - y^2
    return y;
}

inline Tensor Tanh::backward(const Tensor& grad_out, Tape& tape) {
    const Tensor y = tape.pop();
    Tensor gx(y.shape());
    const auto yd = y.data();
    const auto gd = grad_out.data();
    auto gxd = gx.data();
    for (std::size_t i = 0; i < yd.size(); ++i) gxd[i] = gd[i] * (1.0F - yd[i] * yd[i]);
    return gx;
}

inline Tensor MaxPool2d::forward(const Tensor& x, Tape& tape) const {
    if (x.rank() != 3 || x.dim(1) % window_ != 0 || x.dim(2) % window_ != 0) {
        throw std::invalid_argument("MaxPool2d: shape not divisible by window");
    }
    const int c = x.dim(0);
    const int oh = x.dim(1) / window_;
    const int ow = x.dim(2) / window_;

    Tensor y({c, oh, ow});
    Tensor argmax({c, oh, ow});  // flat input index of each window max
    for (int ch = 0; ch < c; ++ch) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float best = -1e30F;
                int best_iy = 0;
                int best_ix = 0;
                for (int wy = 0; wy < window_; ++wy) {
                    for (int wx = 0; wx < window_; ++wx) {
                        const int iy = oy * window_ + wy;
                        const int ix = ox * window_ + wx;
                        const float v = x.at(ch, iy, ix);
                        if (v > best) {
                            best = v;
                            best_iy = iy;
                            best_ix = ix;
                        }
                    }
                }
                y.at(ch, oy, ox) = best;
                argmax.at(ch, oy, ox) = static_cast<float>(best_iy * x.dim(2) + best_ix);
            }
        }
    }
    Tensor shape_token({3});
    shape_token[0] = static_cast<float>(c);
    shape_token[1] = static_cast<float>(x.dim(1));
    shape_token[2] = static_cast<float>(x.dim(2));
    tape.push(std::move(shape_token));
    tape.push(std::move(argmax));
    return y;
}

inline Tensor MaxPool2d::backward(const Tensor& grad_out, Tape& tape) {
    const Tensor argmax = tape.pop();
    const Tensor shape_token = tape.pop();
    const int c = static_cast<int>(shape_token[0]);
    const int h = static_cast<int>(shape_token[1]);
    const int w = static_cast<int>(shape_token[2]);

    Tensor gx({c, h, w});
    const int oh = grad_out.dim(1);
    const int ow = grad_out.dim(2);
    for (int ch = 0; ch < c; ++ch) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                const int flat = static_cast<int>(argmax.at(ch, oy, ox));
                gx.at(ch, flat / w, flat % w) += grad_out.at(ch, oy, ox);
            }
        }
    }
    return gx;
}

// ---- Rnn: multi-layer Elman RNN over a node sequence ----------------------
//
// Layer l at step t: h_l(t) = tanh(U_l in_l(t) + W_l h_l(t-1) + b_l), where
// in_0 = the input sequence and in_l = h_{l-1}. The output is the top
// layer's hidden sequence.

class Rnn : public Layer {
public:
    Rnn(int input, int hidden, int layers, Rng& rng);

    /// x: [T, input] -> [T, hidden]. Full BPTT on backward.
    Tensor forward(const Tensor& x, Tape& tape) const override;
    Tensor backward(const Tensor& grad_out, Tape& tape) override;
    std::vector<Parameter*> params() override;

    [[nodiscard]] int hidden_size() const { return hidden_; }
    [[nodiscard]] int input_size() const { return input_; }
    [[nodiscard]] int num_layers() const { return layers_; }

    /// Read-only per-layer parameter views for the inference backend.
    [[nodiscard]] const Parameter& u(int layer) const {
        return u_[static_cast<std::size_t>(layer)];
    }
    [[nodiscard]] const Parameter& w(int layer) const {
        return w_[static_cast<std::size_t>(layer)];
    }
    [[nodiscard]] const Parameter& b(int layer) const {
        return b_[static_cast<std::size_t>(layer)];
    }

private:
    int input_;
    int hidden_;
    int layers_;
    std::vector<Parameter> u_;  // per layer: [hidden, in_l]
    std::vector<Parameter> w_;  // per layer: [hidden, hidden]
    std::vector<Parameter> b_;  // per layer: [hidden]
};

inline Rnn::Rnn(int input, int hidden, int layers, Rng& rng)
    : input_(input), hidden_(hidden), layers_(layers) {
    for (int l = 0; l < layers_; ++l) {
        const int in_l = (l == 0) ? input_ : hidden_;
        u_.emplace_back(std::vector<int>{hidden_, in_l});
        w_.emplace_back(std::vector<int>{hidden_, hidden_});
        b_.emplace_back(std::vector<int>{hidden_});
        init_xavier(u_.back().value, in_l, hidden_, rng);
        init_xavier(w_.back().value, hidden_, hidden_, rng);
    }
}

inline std::vector<Parameter*> Rnn::params() {
    std::vector<Parameter*> out;
    for (int l = 0; l < layers_; ++l) {
        out.push_back(&u_[static_cast<std::size_t>(l)]);
        out.push_back(&w_[static_cast<std::size_t>(l)]);
        out.push_back(&b_[static_cast<std::size_t>(l)]);
    }
    return out;
}

inline Tensor Rnn::forward(const Tensor& x, Tape& tape) const {
    if (x.rank() != 2 || x.dim(1) != input_) throw std::invalid_argument("Rnn: input shape");
    const int t_len = x.dim(0);

    // hs[l] holds the hidden sequence of layer l: [T, hidden].
    Tensor hs({layers_, t_len, hidden_});

    for (int l = 0; l < layers_; ++l) {
        const int in_l = (l == 0) ? input_ : hidden_;
        const auto& u = u_[static_cast<std::size_t>(l)].value;
        const auto& w = w_[static_cast<std::size_t>(l)].value;
        const auto& b = b_[static_cast<std::size_t>(l)].value;
        for (int t = 0; t < t_len; ++t) {
            for (int h = 0; h < hidden_; ++h) {
                float acc = b[static_cast<std::size_t>(h)];
                for (int i = 0; i < in_l; ++i) {
                    const float xin = (l == 0) ? x.at(t, i) : hs.at(l - 1, t, i);
                    acc += u.at(h, i) * xin;
                }
                if (t > 0) {
                    for (int i = 0; i < hidden_; ++i) acc += w.at(h, i) * hs.at(l, t - 1, i);
                }
                hs.at(l, t, h) = std::tanh(acc);
            }
        }
    }

    Tensor y({t_len, hidden_});
    for (int t = 0; t < t_len; ++t) {
        for (int h = 0; h < hidden_; ++h) y.at(t, h) = hs.at(layers_ - 1, t, h);
    }
    tape.push(x.reshaped(x.shape()));
    tape.push(std::move(hs));
    return y;
}

inline Tensor Rnn::backward(const Tensor& grad_out, Tape& tape) {
    const Tensor hs = tape.pop();
    const Tensor x = tape.pop();
    const int t_len = x.dim(0);

    // Gradient flowing into each layer's hidden outputs; start with the top
    // layer receiving grad_out, lower layers receive via U^T as we descend.
    Tensor gh_from_above({t_len, hidden_});
    for (int t = 0; t < t_len; ++t) {
        for (int h = 0; h < hidden_; ++h) gh_from_above.at(t, h) = grad_out.at(t, h);
    }

    Tensor gx({t_len, input_});

    for (int l = layers_ - 1; l >= 0; --l) {
        const int in_l = (l == 0) ? input_ : hidden_;
        const auto& u = u_[static_cast<std::size_t>(l)].value;
        const auto& w = w_[static_cast<std::size_t>(l)].value;
        // Per-call gradients accumulate into locals across the time sweep and
        // fold into the parameters with one addition per element at the end
        // (the Layer::backward accumulation contract).
        Tensor gu(u_[static_cast<std::size_t>(l)].grad.shape());
        Tensor gw(w_[static_cast<std::size_t>(l)].grad.shape());
        Tensor gb(b_[static_cast<std::size_t>(l)].grad.shape());

        Tensor gh_below({t_len, in_l});           // gradient to the layer below (or input)
        std::vector<float> carry(static_cast<std::size_t>(hidden_), 0.0F);  // dL/dh(t) via t+1

        for (int t = t_len - 1; t >= 0; --t) {
            // Total gradient at h_l(t), then through tanh.
            std::vector<float> gpre(static_cast<std::size_t>(hidden_));
            for (int h = 0; h < hidden_; ++h) {
                const float ht = hs.at(l, t, h);
                const float gtotal = gh_from_above.at(t, h) + carry[static_cast<std::size_t>(h)];
                gpre[static_cast<std::size_t>(h)] = gtotal * (1.0F - ht * ht);
            }
            std::fill(carry.begin(), carry.end(), 0.0F);

            for (int h = 0; h < hidden_; ++h) {
                const float gp = gpre[static_cast<std::size_t>(h)];
                if (gp == 0.0F) continue;
                gb[static_cast<std::size_t>(h)] += gp;
                for (int i = 0; i < in_l; ++i) {
                    const float xin = (l == 0) ? x.at(t, i) : hs.at(l - 1, t, i);
                    gu.at(h, i) += gp * xin;
                    gh_below.at(t, i) += gp * u.at(h, i);
                }
                if (t > 0) {
                    for (int i = 0; i < hidden_; ++i) {
                        gw.at(h, i) += gp * hs.at(l, t - 1, i);
                        carry[static_cast<std::size_t>(i)] += gp * w.at(h, i);
                    }
                }
            }
        }

        u_[static_cast<std::size_t>(l)].grad.add_(gu);
        w_[static_cast<std::size_t>(l)].grad.add_(gw);
        b_[static_cast<std::size_t>(l)].grad.add_(gb);

        if (l == 0) {
            gx = std::move(gh_below);
        } else {
            gh_from_above = std::move(gh_below);
        }
    }
    return gx;
}

// ---- Sequential: a chain of layers sharing one tape ------------------------

class Sequential : public Layer {
public:
    Sequential() = default;

    template <typename L, typename... Args>
    L& emplace(Args&&... args) {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L& ref = *layer;
        layers_.push_back(std::move(layer));
        return ref;
    }

    Tensor forward(const Tensor& x, Tape& tape) const override {
        Tensor h = x.reshaped(x.shape());
        for (auto& l : layers_) h = l->forward(h, tape);
        return h;
    }

    Tensor backward(const Tensor& grad_out, Tape& tape) override {
        Tensor g = grad_out.reshaped(grad_out.shape());
        for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g, tape);
        return g;
    }

    std::vector<Parameter*> params() override {
        std::vector<Parameter*> out;
        for (auto& l : layers_) {
            auto p = l->params();
            out.insert(out.end(), p.begin(), p.end());
        }
        return out;
    }

private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

// ---- Finite-difference gradient check --------------------------------------

struct GradCheckResult {
    double max_rel_error_input = 0.0;
    double max_rel_error_params = 0.0;

    [[nodiscard]] bool ok(double tol = 2e-2) const {
        return max_rel_error_input < tol && max_rel_error_params < tol;
    }
};

inline double grad_rel_error(double analytic, double numeric) {
    // The floor keeps float32 forward noise on near-zero gradients from
    // dominating: a genuine backward bug shows up on O(1) gradients.
    const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-2});
    return std::abs(analytic - numeric) / denom;
}

/// Compares analytic gradients of the scalar loss sum(output .* probe)
/// against central differences, for both the layer input and every
/// parameter. `probe` is a fixed random tensor; epsilon is float-friendly.
inline GradCheckResult gradient_check(Layer& layer, const Tensor& input, Rng& rng,
                                      float epsilon = 1e-2F) {
    Tape tape;
    const Tensor out0 = layer.forward(input, tape);

    Tensor probe(out0.shape());
    for (float& v : probe.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    auto loss_of = [&probe](const Tensor& out) {
        double s = 0.0;
        const auto od = out.data();
        const auto pd = probe.data();
        for (std::size_t i = 0; i < od.size(); ++i) {
            s += static_cast<double>(od[i]) * static_cast<double>(pd[i]);
        }
        return s;
    };

    for (Parameter* p : layer.params()) p->zero_grad();
    const Tensor gx = layer.backward(probe, tape);

    GradCheckResult res;

    // Input gradient via central differences.
    Tensor x = input.reshaped(input.shape());
    for (std::size_t i = 0; i < x.numel(); ++i) {
        const float orig = x[i];
        x[i] = orig + epsilon;
        Tape t1;
        const double lp = loss_of(layer.forward(x, t1));
        x[i] = orig - epsilon;
        Tape t2;
        const double lm = loss_of(layer.forward(x, t2));
        x[i] = orig;
        const double numeric = (lp - lm) / (2.0 * epsilon);
        res.max_rel_error_input =
            std::max(res.max_rel_error_input, grad_rel_error(gx[i], numeric));
    }

    // Parameter gradients.
    for (Parameter* p : layer.params()) {
        auto vals = p->value.data();
        for (std::size_t i = 0; i < vals.size(); ++i) {
            const float orig = vals[i];
            vals[i] = orig + epsilon;
            Tape t1;
            const double lp = loss_of(layer.forward(input, t1));
            vals[i] = orig - epsilon;
            Tape t2;
            const double lm = loss_of(layer.forward(input, t2));
            vals[i] = orig;
            const double numeric = (lp - lm) / (2.0 * epsilon);
            res.max_rel_error_params =
                std::max(res.max_rel_error_params, grad_rel_error(p->grad[i], numeric));
        }
    }
    return res;
}

}  // namespace camo::nn
