// CAMO's correlation-aware policy network (paper Section 3.2).
//
// Per node (segment): a shared CNN encodes the [6,S,S] squish tensor into a
// 256-d feature. A GraphSAGE step fuses each node's feature with the mean
// of its graph neighbours' features (capturing spatial correlation among
// nearby segments). A 3-layer Elman RNN then sweeps the node sequence so
// each decision is conditioned on the segments already processed, and a
// final 64x5 linear head emits movement logits.
//
// The RL-OPC baseline [12] is this same class with use_gnn = use_rnn =
// false: per-segment independent decisions from local features only.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/graph.hpp"
#include "nn/tensor.hpp"

namespace camo::core {

/// The network's weights repacked for the SIMD kernels (see policy.cpp).
struct PackedWeights;

struct PolicyConfig {
    int squish_size = 32;  ///< S; paper uses 128 (via) / 64 (metal)
    int embed_dim = 256;   ///< GNN output and RNN input width (paper: 256)
    int rnn_hidden = 64;   ///< paper: 64
    int rnn_layers = 3;    ///< paper: 3
    int conv_base = 8;     ///< first conv width; doubles per stage
    bool use_gnn = true;
    bool use_rnn = true;
    std::uint64_t seed = 1;
};

class PolicyNetwork {
public:
    /// He/Xavier-initialized from cfg.seed. With `init_weights` false every
    /// weight is zero and no random number is drawn: the trainer's replicas,
    /// which only run forward(pack(), …) on the master's weights, skip the
    /// ~18 ms of draws a paper-width network costs.
    explicit PolicyNetwork(const PolicyConfig& cfg, bool init_weights = true);

    /// Training forward over the whole node set; features[i] is node i's
    /// [6,S,S] squish tensor. Returns logits [n, 5] and keeps a flat tape of
    /// the activations for one backward(). Runs the same layer walk as
    /// infer() on the same kernel table (simd::ops), so its logits equal
    /// infer()'s bit for bit, and they and the gradients backward()
    /// produces are the same at every SIMD level, CAMO_BACKEND=scalar
    /// included. Packs the current weights first: forward(pack(), features,
    /// graph).
    nn::Tensor forward(const std::vector<nn::Tensor>& features, const Graph& graph);

    /// This network's current weights, packed for training: the forward
    /// kernels' blocked layouts plus a copy of everything backward() reads.
    /// Immutable; later weight changes never reach it.
    [[nodiscard]] std::shared_ptr<const PackedWeights> pack() const;

    /// pack() into `weights`, rewriting its storage in place when `weights`
    /// is its only holder (no tape still refers to it: backward() lets go of
    /// its forward's pack) and packing anew otherwise. The trainer repacks
    /// one object per weight update, so its ~2.4 MB are not freshly
    /// allocated, and page-faulted, every minibatch.
    void repack(std::shared_ptr<PackedWeights>& weights) const;

    /// The training forward on `weights`, a pack() of a network of the same
    /// architecture, instead of this network's own weights; the tape keeps
    /// the pack, so the backward() that follows differentiates exactly the
    /// weights the forward ran on and accumulates into this network's
    /// grads. This network's own weight values are never read. The trainer
    /// packs the master once per weight update and runs every sample of the
    /// minibatch, on any replica, on that one pack, so there is no pack
    /// cache to go stale.
    nn::Tensor forward(std::shared_ptr<const PackedWeights> weights,
                       const std::vector<nn::Tensor>& features, const Graph& graph);

    /// Inference-only forward on packed weights (nn/backend.hpp): weights
    /// are repacked once per version into blocked SIMD layouts and the
    /// layer walk runs on simd::ops(), as forward() does, so the logits are
    /// bitwise identical to forward()'s at every SIMD level. Thread-safe on
    /// a const (frozen) network; keeps no tape, so no backward() may follow.
    [[nodiscard]] nn::Tensor infer(const std::vector<nn::Tensor>& features,
                                   const Graph& graph) const;

    /// One clip awaiting an action in a batched inference wave.
    struct ClipRequest {
        const std::vector<nn::Tensor>* features = nullptr;
        const Graph* graph = nullptr;
    };

    /// Batched policy evaluation (the DynaPlex SetAction idiom): evaluate
    /// every clip's node set in one pass, concatenating nodes across clips so
    /// the fc/SAGE/head matmuls run as wide GEMMs instead of per-node GEMVs
    /// (the RNN stays per-clip — it is sequential by construction). Per-row
    /// accumulation order is independent of batch composition, so clip c's
    /// logits are bitwise identical to infer(*clips[c].features,
    /// *clips[c].graph) at every SIMD level. Returns one [n_c, 5] logits tensor
    /// per clip.
    [[nodiscard]] std::vector<nn::Tensor> infer_batch(
        std::span<const ClipRequest> clips) const;

    /// Invalidate infer()'s cached packed weights after an out-of-band
    /// weight mutation (e.g. an optimizer step through pointers obtained
    /// earlier from params()). Cheap: the next infer() repacks lazily.
    /// forward() always runs on a pack() made for it.
    void invalidate_plan() { weights_version_.fetch_add(1, std::memory_order_release); }

    /// Backward from d(logits) [n, 5]; accumulates parameter gradients.
    /// Must follow the matching forward(). Bit-identical to running the
    /// naive per-node layer loops node by node (head and projection over
    /// nodes ascending, SAGE and the encoder descending) for finite inputs.
    void backward(const nn::Tensor& dlogits);

    /// Every parameter, in save order. Invalidates infer()'s packed weights,
    /// since callers may write values through the pointers.
    std::vector<nn::Parameter*> params();

    /// The parameters' gradients alone, in params() order: the view for
    /// gradient bookkeeping (GradBuffer::capture, the fixed-order
    /// reduction). It exposes no weight values, so it leaves infer()'s
    /// packed weights valid.
    std::vector<nn::Tensor*> grads();

    void save(const std::string& path);
    [[nodiscard]] bool load(const std::string& path);

    [[nodiscard]] const PolicyConfig& config() const { return cfg_; }

private:
    /// A learnable weight ([out, in] or [out, in, k, k]) and bias [out],
    /// He-initialized from `rng` over `fan_in` (zero when `rng` is null);
    /// the bias starts at zero.
    struct Layer {
        Layer(std::vector<int> w_shape, int fan_in, Rng* rng);
        nn::Parameter w;
        nn::Parameter b;
    };

    /// One Elman RNN layer, h(t) = tanh(U in(t) + W h(t-1) + b): U
    /// [hidden, in] then W [hidden, hidden] Xavier-initialized from `rng`
    /// (zero when `rng` is null); the bias starts at zero.
    struct RnnCell {
        RnnCell(int in, int hidden, Rng* rng);
        nn::Parameter u;
        nn::Parameter w;
        nn::Parameter b;
    };

    /// One forward walk's layer inputs and post-ReLU outputs, as flat
    /// row-major arrays with one row per node (clips concatenated).
    struct FlatTape {
        std::vector<float> x;      // [n, 6, S, S] conv1 input
        std::vector<float> a1;     // [n, c1, s1, s1] post-ReLU conv1
        std::vector<float> a2;     // [n, c2, s2, s2] post-ReLU conv2
        std::vector<float> flat;   // [n, c3 * s3 * s3] post-ReLU conv3 (fc input)
        std::vector<float> embed;  // [n, embed] post-ReLU fc
        std::vector<float> cat;    // [n, 2 * embed] SAGE input [e_i ; mean e_j]
        std::vector<float> fused;  // [n, embed] post-ReLU SAGE
        std::vector<float> hs;     // [rnn_layers, n, hidden] RNN hidden sequences
        std::vector<float> ctx;    // [n, hidden] head input
        Graph graph;               // forward()'s graph, for the SAGE backward
        std::shared_ptr<const PackedWeights> weights;  // forward()'s pack, for backward()
        bool valid = false;
    };

    PolicyConfig cfg_;
    Rng rng_;
    Rng* init_;  // &rng_, or null for a zero-weight network

    // Declared in weight-initialization (RNG draw) order; params() lists
    // them in save order (encoder, SAGE, RNN or projection, head).
    Layer head_;                    // rnn_hidden -> 5
    Layer conv1_, conv2_, conv3_;   // 3x3 stride-2 encoder convolutions, ReLU
    Layer fc_;                      // flattened encoder -> embed_dim, ReLU
    std::optional<Layer> sage_;     // [e_i ; mean e_j] -> embed_dim, ReLU
    std::vector<RnnCell> rnn_;      // embed -> rnn_hidden, one cell per layer
    std::optional<Layer> proj_;     // no-RNN path: embed -> rnn_hidden, ReLU

    FlatTape tape_;  // the last forward()'s activations

    /// infer()'s packed weights, keyed by weights_version_. Guarded by
    /// plan_mu_ so concurrent const infer() calls share one rebuild.
    mutable std::shared_ptr<const PackedWeights> plan_;
    mutable std::mutex plan_mu_;
    std::atomic<std::uint64_t> weights_version_{1};

    [[nodiscard]] std::shared_ptr<const PackedWeights> ensure_plan() const;
    /// The forward weights, plus backward()'s copy when `for_backward`,
    /// written into `p`'s storage.
    void pack_weights(bool for_backward, PackedWeights& p) const;

    /// params() without invalidating the plan, for the members that only
    /// read values or touch grads.
    std::vector<nn::Parameter*> param_list();

    /// The one layer walk behind forward(), infer() and infer_batch(): runs
    /// every clip's nodes through simd::ops() on the packed `weights`,
    /// rows concatenated in clip order, and returns logits [rows, 5]. With
    /// `keep`, `act` keeps every row's activations for backward(); without,
    /// its per-node conv buffers hold one row at a time.
    std::vector<float> walk(const PackedWeights& weights, std::span<const ClipRequest> clips,
                            FlatTape& act, bool keep) const;
};

}  // namespace camo::core
