// Packed trajectory store suite (PR 10).
//
// Four layers of coverage:
//  - format: round-trip fuzz over random trajectories with random features,
//    state dedupe, and a corrupt-file corpus in the spirit of the GDS
//    parser corpus — every truncated / torn / bit-flipped / ragged /
//    clip-inconsistent / old-version variant must fail with a typed
//    TrajStoreError, never misread.
//  - determinism: a collected dataset appended by append_teacher_data
//    writes byte-identical files at 1/2/8 train workers, and appending
//    load_teacher_data's decode of a store re-publishes the same bytes.
//  - load: phase-1 training on the dataset loaded from the store produces
//    weights byte-identical to training on the collected dataset.
//  - telemetry: the trajstore byte counters equal the bytes published and
//    mapped.
//
// Corrupt-corpus technique: structural validators sit BEHIND the checksum
// gate, so targeted corruptions re-seal the footer hash (store_payload_hash
// is public exactly for this) after patching bytes — proving the validators
// themselves catch the damage, not just the checksum.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/camo.hpp"
#include "core/experiment.hpp"
#include "layout/via_gen.hpp"
#include "litho/simulator.hpp"
#include "obs/metrics.hpp"
#include "rl/trajstore.hpp"

namespace camo::rl {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recompute the footer payload hash after a deliberate corruption, so the
/// reader's structural validators (not the checksum) are what reject it.
void reseal(std::string& bytes) {
    ASSERT_GE(bytes.size(), sizeof(StoreFooter));
    const std::size_t payload = bytes.size() - sizeof(StoreFooter);
    const std::uint64_t h = store_payload_hash({bytes.data(), payload});
    std::memcpy(bytes.data() + payload + offsetof(StoreFooter, payload_hash), &h, sizeof h);
}

/// Expects opening `bytes` to fail with a TrajStoreError naming
/// `why_substr`; returns the error's byte offset.
std::uint64_t expect_rejected(const std::string& path, const std::string& bytes,
                              const std::string& why_substr) {
    write_file(path, bytes);
    try {
        TrajStoreReader reader(path);
        ADD_FAILURE() << "expected TrajStoreError (" << why_substr << ")";
    } catch (const TrajStoreError& e) {
        EXPECT_NE(std::string(e.what()).find(why_substr), std::string::npos)
            << "got: " << e.what();
        return e.offset();
    }
    return 0;
}

/// Feature shape of the format-level tests (the squish shape is {6, S, S};
/// the store takes any non-zero shape).
constexpr std::array<std::uint32_t, 3> kDims{2, 4, 4};

/// Deterministic random trajectory; `segments` fixes the per-step width
/// (one state per step, offsets drawn in the teacher's plausible range).
Trajectory random_trajectory(Rng& rng, int clip_index, int segments, int steps) {
    Trajectory t;
    t.clip_index = clip_index;
    t.initial_bias_nm = static_cast<int>(rng.uniform_int(0, 6)) - 3;
    for (int s = 0; s < steps; ++s) {
        StepRecord rec;
        for (int i = 0; i < segments; ++i) {
            rec.offsets_before.push_back(static_cast<int>(rng.uniform_int(0, 16)) - 8);
            rec.actions.push_back(static_cast<int>(rng.uniform_int(0, kNumActions - 1)));
        }
        t.steps.push_back(std::move(rec));
    }
    return t;
}

/// Per-step feature tensors for `t`: one `dims`-shaped tensor per segment,
/// filled from `rng`.
using StepFeatures = std::vector<std::vector<nn::Tensor>>;
StepFeatures random_features(Rng& rng, const Trajectory& t,
                             std::array<std::uint32_t, 3> dims = kDims) {
    const std::vector<int> shape(dims.begin(), dims.end());
    StepFeatures feats(t.steps.size());
    for (std::size_t s = 0; s < t.steps.size(); ++s) {
        for (std::size_t i = 0; i < t.steps[s].offsets_before.size(); ++i) {
            nn::Tensor& f = feats[s].emplace_back(shape);
            for (float& v : f.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
        }
    }
    return feats;
}

void append(TrajStoreWriter& writer, const Trajectory& t, const StepFeatures& feats) {
    const std::vector<std::span<const nn::Tensor>> spans(feats.begin(), feats.end());
    writer.append(t, spans);
}

void expect_same_trajectory(const Trajectory& a, const Trajectory& b) {
    EXPECT_EQ(a.clip_index, b.clip_index);
    EXPECT_EQ(a.initial_bias_nm, b.initial_bias_nm);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t s = 0; s < a.steps.size(); ++s) {
        EXPECT_EQ(a.steps[s].offsets_before, b.steps[s].offsets_before);
        EXPECT_EQ(a.steps[s].actions, b.steps[s].actions);
    }
}

/// Feature floats of trajectory `i`'s steps must come back bit-exact —
/// load determinism depends on it.
void expect_same_features(const TrajStoreReader& reader, std::uint64_t i,
                          const StepFeatures& feats) {
    const TrajStoreReader::TrajView t = reader.traj(i);
    ASSERT_EQ(t.steps, feats.size());
    const std::uint64_t numel = reader.feature_numel();
    for (std::size_t s = 0; s < feats.size(); ++s) {
        const auto view = reader.state(reader.step(t.step_begin + s).state_id);
        ASSERT_EQ(view.features.size(), feats[s].size() * numel);
        for (std::size_t k = 0; k < feats[s].size(); ++k) {
            EXPECT_EQ(std::memcmp(view.features.data() + k * numel, feats[s][k].data().data(),
                                  numel * sizeof(float)),
                      0)
                << "trajectory " << i << " step " << s << " segment " << k;
        }
    }
}

// ---- Format: round trip, dedupe, corruption --------------------------------

TEST(TrajStore, RoundTripFuzz) {
    const std::string path = temp_path("trajstore_fuzz.ctrj");
    Rng rng(101);
    for (int round = 0; round < 5; ++round) {
        TrajStoreWriter writer(path, kDims, 77);
        std::vector<Trajectory> ref;
        std::vector<StepFeatures> ref_feats;
        const int count = 1 + static_cast<int>(rng.uniform_int(0, 5));
        for (int i = 0; i < count; ++i) {
            const int segments = static_cast<int>(rng.uniform_int(0, 8));  // 0 is legal
            const int steps = static_cast<int>(rng.uniform_int(0, 4));
            ref.push_back(random_trajectory(rng, i, segments, steps));
            ref_feats.push_back(random_features(rng, ref.back()));
            append(writer, ref.back(), ref_feats.back());
        }
        writer.flush();

        TrajStoreReader reader(path);
        EXPECT_EQ(reader.dataset_tag(), 77U);
        EXPECT_EQ(reader.feature_dims(), kDims);
        ASSERT_EQ(reader.traj_count(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            expect_same_trajectory(ref[i], reader.decode(i));
        }
        // Dedupe keeps the first encoding of each (clip, offsets) state.
        std::map<std::pair<int, std::vector<int>>, const std::vector<nn::Tensor>*> first;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            StepFeatures expected;
            for (std::size_t t = 0; t < ref[i].steps.size(); ++t) {
                const auto key = std::make_pair(ref[i].clip_index, ref[i].steps[t].offsets_before);
                expected.push_back(*first.try_emplace(key, &ref_feats[i][t]).first->second);
            }
            expect_same_features(reader, i, expected);
        }
    }
    std::remove(path.c_str());
}

TEST(TrajStore, RoundTripWithFeaturesIsExact) {
    const std::string path = temp_path("trajstore_feat.ctrj");
    Rng rng(102);
    const Trajectory t = random_trajectory(rng, 0, 3, 2);
    const StepFeatures feats = random_features(rng, t);
    TrajStoreWriter writer(path, kDims);
    append(writer, t, feats);
    writer.flush();

    TrajStoreReader reader(path);
    EXPECT_EQ(reader.feature_dims(), kDims);
    EXPECT_EQ(reader.feature_numel(), 32U);
    expect_same_trajectory(t, reader.decode(0));
    expect_same_features(reader, 0, feats);
    std::remove(path.c_str());
}

TEST(TrajStore, DedupesRepeatedStates) {
    const std::string path = temp_path("trajstore_dedupe.ctrj");
    Trajectory t;
    t.clip_index = 4;
    for (int s = 0; s < 6; ++s) {
        StepRecord rec;
        rec.offsets_before = {1, -2, 3};  // identical state every step
        rec.actions = {0, 2, 4};
        t.steps.push_back(rec);
    }
    Rng rng(104);
    const StepFeatures feats = random_features(rng, t);
    // A second trajectory revisiting the same offsets on the same clip.
    TrajStoreWriter writer(path, kDims);
    append(writer, t, feats);
    append(writer, t, feats);
    writer.flush();

    EXPECT_EQ(writer.steps(), 12U);
    EXPECT_EQ(writer.states(), 1U);
    EXPECT_EQ(writer.dedupe_hits(), 11U);

    TrajStoreReader reader(path);
    EXPECT_EQ(reader.state_count(), 1U);
    expect_same_trajectory(t, reader.decode(0));
    expect_same_trajectory(t, reader.decode(1));
    // The one stored state holds the first step's encoding.
    const StepFeatures first(t.steps.size(), feats.front());
    expect_same_features(reader, 1, first);

    // Same offsets on a DIFFERENT clip is a different state.
    Trajectory other = t;
    other.clip_index = 5;
    TrajStoreWriter writer2(path, kDims);
    append(writer2, t, feats);
    append(writer2, other, feats);
    writer2.flush();
    EXPECT_EQ(writer2.states(), 2U);
    std::remove(path.c_str());
}

TEST(TrajStore, DedupesZeroSegmentStates) {
    // A state with no segments interns nothing into the offsets heap, so the
    // dedupe compare must not touch the (possibly null) heap storage.
    const std::string path = temp_path("trajstore_dedupe_empty.ctrj");
    Trajectory t;
    t.clip_index = 2;
    t.steps.resize(3);  // three zero-segment steps: one state
    const StepFeatures none(3);
    TrajStoreWriter writer(path, kDims);
    append(writer, t, none);
    append(writer, t, none);
    writer.flush();
    EXPECT_EQ(writer.steps(), 6U);
    EXPECT_EQ(writer.states(), 1U);
    EXPECT_EQ(writer.dedupe_hits(), 5U);

    TrajStoreReader reader(path);
    EXPECT_EQ(reader.state_count(), 1U);
    expect_same_trajectory(t, reader.decode(0));
    expect_same_trajectory(t, reader.decode(1));
    std::remove(path.c_str());
}

TEST(TrajStore, WriterRejectsMalformedInputWithoutMutating) {
    constexpr std::array<std::uint32_t, 3> zero_dim{6, 0, 16};
    EXPECT_THROW(TrajStoreWriter(temp_path("trajstore_zero.ctrj"), zero_dim),
                 std::invalid_argument);

    const std::string path = temp_path("trajstore_reject.ctrj");
    TrajStoreWriter writer(path, kDims);
    Rng rng(105);
    Trajectory bad;
    bad.clip_index = 0;
    StepRecord rec;
    rec.offsets_before = {1, 2};
    rec.actions = {0};  // length mismatch
    bad.steps.push_back(rec);
    StepFeatures feats(1);
    feats[0].emplace_back(std::vector<int>{2, 4, 4});
    feats[0].emplace_back(std::vector<int>{2, 4, 4});
    EXPECT_THROW(append(writer, bad, feats), std::invalid_argument);

    bad.steps[0].actions = {0, 9};  // action out of range
    EXPECT_THROW(append(writer, bad, feats), std::invalid_argument);

    bad.steps[0].actions = {0, 1};
    EXPECT_THROW(writer.append(bad, {}), std::invalid_argument);  // no feature span for the step

    StepFeatures one_feat(1);
    one_feat[0].emplace_back(std::vector<int>{2, 4, 4});  // 1 != 2 segments
    EXPECT_THROW(append(writer, bad, one_feat), std::invalid_argument);

    StepFeatures wrong_shape(1);
    wrong_shape[0].emplace_back(std::vector<int>{2, 4, 4});
    wrong_shape[0].emplace_back(std::vector<int>{2, 4, 5});  // not the store's shape
    EXPECT_THROW(append(writer, bad, wrong_shape), std::invalid_argument);

    // Append is transactional: the failed calls above must not have interned
    // states or steps, so a good append still round-trips from pristine.
    EXPECT_EQ(writer.trajectories(), 0U);
    EXPECT_EQ(writer.steps(), 0U);
    EXPECT_EQ(writer.states(), 0U);
    feats = random_features(rng, bad);
    append(writer, bad, feats);  // now well-formed
    writer.flush();
    TrajStoreReader reader(path);
    EXPECT_EQ(reader.traj_count(), 1U);
    expect_same_trajectory(bad, reader.decode(0));
    expect_same_features(reader, 0, feats);
    std::remove(path.c_str());
}

TEST(TrajStore, CorruptCorpusIsRejectedTyped) {
    const std::string path = temp_path("trajstore_corrupt.ctrj");
    Rng rng(103);
    TrajStoreWriter writer(path, kDims, 9);
    for (int i = 0; i < 3; ++i) {
        const Trajectory t = random_trajectory(rng, i, 4, 3);
        append(writer, t, random_features(rng, t));
    }
    writer.flush();
    const std::string good = read_file(path);
    ASSERT_GT(good.size(), sizeof(StoreHeader) + sizeof(StoreFooter));
    {  // sanity: the pristine file opens
        TrajStoreReader reader(path);
        EXPECT_EQ(reader.traj_count(), 3U);
    }

    // Truncated header: too small to even hold header + footer.
    expect_rejected(path, good.substr(0, 40), "truncated header");

    // Torn tail: a flush that lost its last bytes.
    expect_rejected(path, good.substr(0, good.size() - 7), "torn tail");

    // Trailing bytes: two stores concatenated.
    expect_rejected(path, good + good, "trailing bytes");

    // Bad magic / unsupported version.
    std::string bad = good;
    bad[0] = 'X';
    expect_rejected(path, bad, "bad magic");
    bad = good;
    const std::uint32_t v99 = 99;
    std::memcpy(bad.data() + offsetof(StoreHeader, version), &v99, sizeof v99);
    expect_rejected(path, bad, "unsupported version");
    // A version-1 store (it carried metric columns) is not read as version 2.
    bad = good;
    const std::uint32_t v1 = 1;
    std::memcpy(bad.data() + offsetof(StoreHeader, version), &v1, sizeof v1);
    expect_rejected(path, bad, "unsupported version 1");

    // Overwritten end marker (atomic-rename contract violated out-of-band).
    bad = good;
    bad[good.size() - sizeof(StoreFooter)] = '\0';
    expect_rejected(path, bad, "torn tail: bad end marker");

    // A flipped payload bit fails the checksum.
    bad = good;
    bad[sizeof(StoreHeader) + 11] ^= 0x20;
    expect_rejected(path, bad, "payload checksum mismatch");

    // ---- Structural corruption behind a re-sealed checksum ----

    // A zero feature dim: no store is featureless.
    bad = good;
    const std::uint32_t zero = 0;
    std::memcpy(bad.data() + offsetof(StoreHeader, feature_dims) + 4, &zero, sizeof zero);
    reseal(bad);
    expect_rejected(path, bad, "featureless store: zero feature dim");

    // Clip mismatch: trajectory 0 claims clip 1, but its states are clip 0's.
    // Its samples would take clip 0 from the states while the trajectory
    // says clip 1, so the reader rejects it at the trajectory's offset.
    bad = good;
    const std::int32_t clip1 = 1;
    std::memcpy(bad.data() + sizeof(StoreHeader) + offsetof(PackedTraj, clip_index), &clip1,
                sizeof clip1);
    reseal(bad);
    EXPECT_EQ(expect_rejected(path, bad, "clip mismatch"), sizeof(StoreHeader));

    // Ragged trajectory: step range overlaps its neighbour.
    bad = good;
    const std::uint64_t begin7 = 7;
    std::memcpy(bad.data() + sizeof(StoreHeader) + offsetof(PackedTraj, step_begin), &begin7,
                sizeof begin7);
    reseal(bad);
    expect_rejected(path, bad, "ragged trajectory");

    // Ragged step: actions_pos points past the u8 heap.
    bad = good;
    const std::size_t steps_base = sizeof(StoreHeader) + 3 * sizeof(PackedTraj);
    const std::uint64_t huge = 1U << 20;
    std::memcpy(bad.data() + steps_base + offsetof(PackedStep, actions_pos), &huge, sizeof huge);
    reseal(bad);
    expect_rejected(path, bad, "ragged step");

    // Ragged step: state id beyond the state table.
    bad = good;
    std::memcpy(bad.data() + steps_base + offsetof(PackedStep, state_id), &huge, sizeof huge);
    reseal(bad);
    expect_rejected(path, bad, "ragged step: state id out of range");

    // Ragged state: offsets beyond the i32 heap.
    bad = good;
    const std::size_t states_base = steps_base + 9 * sizeof(PackedStep);
    std::memcpy(bad.data() + states_base + offsetof(PackedState, offsets_pos), &huge, sizeof huge);
    reseal(bad);
    expect_rejected(path, bad, "ragged state");

    // Dedupe index mismatch: an offset value no longer matches the state's
    // stored key hash (bit rot the checksum was re-sealed over). The i32
    // heap sits right before the u8 heap and the footer.
    bad = good;
    StoreHeader h{};
    std::memcpy(&h, good.data(), sizeof h);
    ASSERT_EQ(h.u8_count, 9U * 4U);  // 9 steps x 4 segments
    const std::size_t i32_off = good.size() - sizeof(StoreFooter) - h.u8_count -
                                h.i32_count * sizeof(std::int32_t);
    std::int32_t off0 = 0;
    std::memcpy(&off0, bad.data() + i32_off, sizeof off0);
    off0 += 1;
    std::memcpy(bad.data() + i32_off, &off0, sizeof off0);
    reseal(bad);
    expect_rejected(path, bad, "dedupe index mismatch");

    std::remove(path.c_str());
}

// ---- Determinism: collect, append, load, train -----------------------------

litho::LithoConfig test_litho_config() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "";  // tests never touch the on-disk cache
    return cfg;
}

std::vector<geo::SegmentedLayout> small_via_clips(int count) {
    layout::ViaGenOptions gen;
    gen.clip_nm = 1000;
    gen.margin_nm = 200;
    gen.min_spacing_nm = 120;
    return core::fragment_via_clips(layout::via_batch_set(7, count, gen));
}

core::CamoConfig tiny_config() {
    core::CamoConfig cfg;
    cfg.policy.squish_size = 16;
    cfg.policy.embed_dim = 32;
    cfg.policy.rnn_hidden = 16;
    cfg.policy.rnn_layers = 2;
    cfg.policy.conv_base = 4;
    cfg.squish.size = 16;
    cfg.squish.window_nm = 500;
    cfg.phase1_epochs = 2;
    cfg.phase1_batch = 3;
    cfg.teacher_steps = 2;
    cfg.teacher_biases = {3, 0};
    cfg.phase2_episodes = 0;
    cfg.seed = 5;
    return cfg;
}

opc::OpcOptions short_opc_options() {
    opc::OpcOptions opt;
    opt.max_iterations = 2;
    opt.initial_bias_nm = 3;
    return opt;
}

/// Collect teacher data on the small via set and write it as a store.
std::string collect_to_store(int train_workers, const std::string& name,
                             std::uint64_t tag = 1234) {
    const std::string path = temp_path(name);
    core::CamoConfig cfg = tiny_config();
    cfg.train_workers = train_workers;
    core::CamoEngine engine(cfg);
    litho::LithoSim sim(test_litho_config());
    TrajStoreWriter writer(path, engine.state_dims(), tag);
    core::append_teacher_data(engine.collect_teacher_data(small_via_clips(3), sim,
                                                          short_opc_options()),
                              writer);
    writer.flush();
    return path;
}

TEST(TrajStoreDeterminism, StoreBytesIndependentOfWorkerCount) {
    const std::string p1 = collect_to_store(1, "trajstore_w1.ctrj");
    const std::string p2 = collect_to_store(2, "trajstore_w2.ctrj");
    const std::string p8 = collect_to_store(8, "trajstore_w8.ctrj");
    const std::string b1 = read_file(p1);
    ASSERT_FALSE(b1.empty());
    EXPECT_EQ(b1, read_file(p2));
    EXPECT_EQ(b1, read_file(p8));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
    std::remove(p8.c_str());
}

TEST(TrajStoreDeterminism, StoreMatchesInMemoryDataset) {
    const std::string path = temp_path("trajstore_match.ctrj");
    core::CamoEngine engine(tiny_config());
    litho::LithoSim sim(test_litho_config());
    const auto clips = small_via_clips(3);
    const core::Phase1Dataset data = engine.collect_teacher_data(clips, sim, short_opc_options());
    TrajStoreWriter writer(path, engine.state_dims());
    core::append_teacher_data(data, writer);
    writer.flush();

    TrajStoreReader reader(path);
    ASSERT_EQ(reader.traj_count(), data.trajectories.size());
    std::uint64_t steps = 0;
    for (std::size_t i = 0; i < data.trajectories.size(); ++i) {
        expect_same_trajectory(data.trajectories[i], reader.decode(i));
        steps += data.trajectories[i].steps.size();
    }
    // Sample order == step order: the load walks the store's steps exactly
    // as the in-memory dataset laid out its samples.
    EXPECT_EQ(reader.step_count(), steps);
    EXPECT_EQ(reader.step_count(), data.samples.size());
    EXPECT_GT(reader.state_count(), 0U);

    // The loaded dataset is the collected one.
    const core::Phase1Dataset loaded = engine.load_teacher_data(reader, clips);
    ASSERT_EQ(loaded.samples.size(), data.samples.size());
    for (std::size_t k = 0; k < data.samples.size(); ++k) {
        const core::TeacherSample& a = data.samples[k];
        const core::TeacherSample& b = loaded.samples[k];
        EXPECT_EQ(a.clip, b.clip);
        EXPECT_EQ(a.actions, b.actions);
        ASSERT_EQ(a.features.size(), b.features.size());
        for (std::size_t i = 0; i < a.features.size(); ++i) {
            EXPECT_EQ(a.features[i].shape(), b.features[i].shape());
            EXPECT_EQ(std::memcmp(a.features[i].data().data(), b.features[i].data().data(),
                                  a.features[i].numel() * sizeof(float)),
                      0);
        }
    }
    ASSERT_EQ(loaded.trajectories.size(), data.trajectories.size());
    for (std::size_t i = 0; i < data.trajectories.size(); ++i) {
        expect_same_trajectory(data.trajectories[i], loaded.trajectories[i]);
    }
    EXPECT_EQ(loaded.action_weight, data.action_weight);
    EXPECT_EQ(loaded.graphs.size(), data.graphs.size());
    std::remove(path.c_str());
}

TEST(TrajStoreDeterminism, AppendOfLoadRepublishesIdenticalBytes) {
    const std::string path = collect_to_store(2, "trajstore_roundtrip.ctrj", 4321);
    const std::string copy_path = temp_path("trajstore_roundtrip_copy.ctrj");
    {
        const TrajStoreReader reader(path);
        const core::CamoEngine engine(tiny_config());
        TrajStoreWriter writer(copy_path, engine.state_dims(), reader.dataset_tag());
        core::append_teacher_data(engine.load_teacher_data(reader, small_via_clips(3)), writer);
        writer.flush();
    }
    const std::string original = read_file(path);
    ASSERT_FALSE(original.empty());
    EXPECT_EQ(original, read_file(copy_path));
    std::remove(path.c_str());
    std::remove(copy_path.c_str());
}

TEST(TrajStoreDeterminism, AppendRejectsSamplesThatAreNotTheSteps) {
    core::CamoEngine engine(tiny_config());
    litho::LithoSim sim(test_litho_config());
    core::Phase1Dataset data =
        engine.collect_teacher_data(small_via_clips(1), sim, short_opc_options());
    ASSERT_FALSE(data.samples.empty());
    data.samples.pop_back();
    TrajStoreWriter writer(temp_path("trajstore_short.ctrj"), engine.state_dims());
    EXPECT_THROW(core::append_teacher_data(data, writer), std::invalid_argument);
    EXPECT_EQ(writer.trajectories(), 0U);
}

TEST(TrajStoreDeterminism, ReplayWeightsByteIdenticalToInMemory) {
    const std::string store_path = temp_path("trajstore_replay.ctrj");
    const auto clips = small_via_clips(3);
    litho::LithoSim sim(test_litho_config());

    // Path A: classic collect-and-train, 4 phase-1 epochs.
    core::CamoEngine mem_engine(tiny_config());
    const core::Phase1Dataset data =
        mem_engine.collect_teacher_data(clips, sim, short_opc_options());
    TrajStoreWriter writer(store_path, mem_engine.state_dims());
    core::append_teacher_data(data, writer);
    writer.flush();
    for (int e = 0; e < 4; ++e) mem_engine.run_phase1_epoch(data);

    // Path B: fresh engine, the same epochs over the dataset loaded from the
    // store.
    core::CamoEngine replay_engine(tiny_config());
    TrajStoreReader reader(store_path);
    const core::Phase1Dataset loaded = replay_engine.load_teacher_data(reader, clips);
    double replay_loss = 0.0;
    for (int e = 0; e < 4; ++e) replay_loss = replay_engine.run_phase1_epoch(loaded);
    EXPECT_GT(replay_loss, 0.0);

    const std::string mem_w = temp_path("trajstore_mem_w.bin");
    const std::string rep_w = temp_path("trajstore_rep_w.bin");
    mem_engine.save_weights(mem_w);
    replay_engine.save_weights(rep_w);
    const std::string a = read_file(mem_w);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, read_file(rep_w)) << "replay training diverged from in-memory training";

    std::remove(store_path.c_str());
    std::remove(mem_w.c_str());
    std::remove(rep_w.c_str());
}

TEST(TrajStoreDeterminism, LoadValidatesStoreAgainstClips) {
    const std::string path = collect_to_store(1, "trajstore_validate.ctrj");
    const auto clips = small_via_clips(3);
    core::CamoEngine engine(tiny_config());
    TrajStoreReader reader(path);

    // Fewer clips than the store references.
    const std::vector<geo::SegmentedLayout> too_few(clips.begin(), clips.begin() + 1);
    EXPECT_THROW((void)engine.load_teacher_data(reader, too_few), std::invalid_argument);

    // Squish-size mismatch between store and engine config.
    core::CamoConfig other_cfg = tiny_config();
    other_cfg.policy.squish_size = 32;
    other_cfg.squish.size = 32;
    core::CamoEngine other(other_cfg);
    EXPECT_THROW((void)other.load_teacher_data(reader, clips), std::invalid_argument);

    // Right window size, wrong channel count: {1, S, S} features for clip 0,
    // with its real segment count. Rejected at load, not in the first epoch.
    Rng rng(7);
    const auto size = static_cast<std::uint32_t>(tiny_config().squish.size);
    const std::array<std::uint32_t, 3> thin_dims{1, size, size};
    const Trajectory thin = random_trajectory(rng, 0, clips[0].num_segments(), 1);
    const std::string thin_path = temp_path("trajstore_thin.ctrj");
    TrajStoreWriter thin_writer(thin_path, thin_dims);
    append(thin_writer, thin, random_features(rng, thin, thin_dims));
    thin_writer.flush();
    TrajStoreReader thin_reader(thin_path);
    EXPECT_THROW((void)engine.load_teacher_data(thin_reader, clips), std::invalid_argument);

    std::remove(path.c_str());
    std::remove(thin_path.c_str());
}

// ---- Telemetry ---------------------------------------------------------------

TEST(TrajStoreTelemetry, ByteCountersMatchWriterAndReader) {
    const std::string path = temp_path("trajstore_bytes.ctrj");
    obs::reset_metrics();
    obs::set_metrics_enabled(true);
    TrajStoreWriter writer(path, kDims);
    Rng rng(11);
    for (int i = 0; i < 3; ++i) {
        const Trajectory t = random_trajectory(rng, i, 4, 2);
        append(writer, t, random_features(rng, t));
    }
    writer.flush();
    const TrajStoreReader reader(path);
    obs::set_metrics_enabled(false);

    const auto snap = obs::snapshot_metrics();
    const obs::MetricSnapshot* written = obs::find_metric(snap, "trajstore.bytes_written");
    const obs::MetricSnapshot* read = obs::find_metric(snap, "trajstore.bytes_read");
    ASSERT_NE(written, nullptr);
    ASSERT_NE(read, nullptr);
    EXPECT_EQ(written->counter, static_cast<long long>(writer.byte_size()));
    EXPECT_EQ(read->counter, static_cast<long long>(reader.file_bytes()));
    EXPECT_EQ(reader.file_bytes(), writer.byte_size());
    obs::reset_metrics();
    std::remove(path.c_str());
}

}  // namespace
}  // namespace camo::rl
