#include "rl/trajstore.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <utility>

#include "common/file_io.hpp"
#include "obs/metrics.hpp"

namespace camo::rl {
namespace {

obs::MetricId bytes_written_counter() {
    static const obs::MetricId id = obs::register_counter("trajstore.bytes_written");
    return id;
}
obs::MetricId bytes_read_counter() {
    static const obs::MetricId id = obs::register_counter("trajstore.bytes_read");
    return id;
}

template <typename T>
void append_raw(std::string& out, const T* data, std::size_t count) {
    out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

}  // namespace

std::uint64_t store_payload_hash(std::span<const char> payload) {
    return fnv1a(kFnv1aBasis, payload.data(), payload.size());
}

std::uint64_t state_key_hash(std::int32_t clip_index, std::span<const std::int32_t> offsets) {
    std::uint64_t h = fnv1a(kFnv1aBasis, &clip_index, sizeof clip_index);
    return fnv1a(h, offsets.data(), offsets.size() * sizeof(std::int32_t));
}

// ---- Writer ----------------------------------------------------------------

TrajStoreWriter::TrajStoreWriter(std::string path, std::array<std::uint32_t, 3> feature_dims,
                                 std::uint64_t dataset_tag)
    : path_(std::move(path)), dataset_tag_(dataset_tag), feature_dims_(feature_dims) {
    if (feature_dims_[0] == 0 || feature_dims_[1] == 0 || feature_dims_[2] == 0) {
        throw std::invalid_argument("TrajStoreWriter: feature dims must be non-zero");
    }
}

std::uint64_t TrajStoreWriter::intern_state(std::int32_t clip_index, std::span<const int> offsets,
                                            std::span<const nn::Tensor> features) {
    // The Trajectory's int offsets are stored as i32; on every supported
    // platform int IS 32-bit, but copy explicitly rather than alias.
    std::vector<std::int32_t> off32(offsets.begin(), offsets.end());
    const std::uint64_t key = state_key_hash(clip_index, off32);

    auto& bucket = dedupe_[key];
    for (const std::uint64_t id : bucket) {
        const PackedState& s = states_[id];
        if (s.clip_index != clip_index ||
            s.num_segments != static_cast<std::int32_t>(off32.size())) {
            continue;
        }
        // A zero-segment state matches outright: there is nothing to
        // compare, and an empty heap's data() may be null.
        if (off32.empty() || std::memcmp(i32_heap_.data() + s.offsets_pos, off32.data(),
                                         off32.size() * sizeof(std::int32_t)) == 0) {
            ++dedupe_hits_;
            return id;
        }
    }

    PackedState s;
    s.clip_index = clip_index;
    s.num_segments = static_cast<std::int32_t>(off32.size());
    s.offsets_pos = i32_heap_.size();
    s.features_pos = f32_heap_.size();
    s.key_hash = key;
    i32_heap_.insert(i32_heap_.end(), off32.begin(), off32.end());
    for (const nn::Tensor& t : features) {
        f32_heap_.insert(f32_heap_.end(), t.data().begin(), t.data().end());
    }

    const std::uint64_t id = states_.size();
    states_.push_back(s);
    bucket.push_back(id);
    return id;
}

void TrajStoreWriter::append(const Trajectory& traj,
                             std::span<const std::span<const nn::Tensor>> step_features) {
    // Every check runs here, before any table or heap changes: a throwing
    // append leaves the writer exactly as it was, so the caller can drop
    // the bad record and keep collecting.
    if (step_features.size() != traj.steps.size()) {
        throw std::invalid_argument("TrajStoreWriter: one feature span per step required");
    }
    const std::vector<int> shape(feature_dims_.begin(), feature_dims_.end());
    for (std::size_t i = 0; i < traj.steps.size(); ++i) {
        const StepRecord& rec = traj.steps[i];
        if (rec.actions.size() != rec.offsets_before.size()) {
            throw std::invalid_argument("TrajStoreWriter: offsets/actions length mismatch");
        }
        for (const int a : rec.actions) {
            if (a < 0 || a >= kNumActions) {
                throw std::invalid_argument("TrajStoreWriter: action index out of range");
            }
        }
        if (step_features[i].size() != rec.offsets_before.size()) {
            throw std::invalid_argument("TrajStoreWriter: one feature tensor per segment required");
        }
        for (const nn::Tensor& f : step_features[i]) {
            if (f.shape() != shape) {
                throw std::invalid_argument(
                    "TrajStoreWriter: feature tensor shape is not the store's");
            }
        }
    }

    PackedTraj t;
    t.clip_index = traj.clip_index;
    t.initial_bias_nm = traj.initial_bias_nm;
    t.step_begin = steps_.size();
    t.step_count = traj.steps.size();
    for (std::size_t i = 0; i < traj.steps.size(); ++i) {
        const StepRecord& rec = traj.steps[i];
        PackedStep s;
        s.state_id = intern_state(traj.clip_index, rec.offsets_before, step_features[i]);
        s.actions_pos = u8_heap_.size();
        for (const int a : rec.actions) u8_heap_.push_back(static_cast<std::uint8_t>(a));
        steps_.push_back(s);
    }
    trajs_.push_back(t);
}

std::uint64_t TrajStoreWriter::byte_size() const {
    return sizeof(StoreHeader) + trajs_.size() * sizeof(PackedTraj) +
           steps_.size() * sizeof(PackedStep) + states_.size() * sizeof(PackedState) +
           f32_heap_.size() * sizeof(float) +
           i32_heap_.size() * sizeof(std::int32_t) + u8_heap_.size() + sizeof(StoreFooter);
}

void TrajStoreWriter::flush() {
    StoreHeader h;
    h.magic = kStoreMagic;
    h.version = kStoreVersion;
    h.traj_count = trajs_.size();
    h.step_count = steps_.size();
    h.state_count = states_.size();
    h.f32_count = f32_heap_.size();
    h.i32_count = i32_heap_.size();
    h.u8_count = u8_heap_.size();
    h.feature_dims[0] = feature_dims_[0];
    h.feature_dims[1] = feature_dims_[1];
    h.feature_dims[2] = feature_dims_[2];
    h.dataset_tag = dataset_tag_;

    std::string buf;
    buf.reserve(byte_size());
    append_raw(buf, &h, 1);
    append_raw(buf, trajs_.data(), trajs_.size());
    append_raw(buf, steps_.data(), steps_.size());
    append_raw(buf, states_.data(), states_.size());
    append_raw(buf, f32_heap_.data(), f32_heap_.size());
    append_raw(buf, i32_heap_.data(), i32_heap_.size());
    append_raw(buf, u8_heap_.data(), u8_heap_.size());

    StoreFooter f;
    f.magic = kStoreEndMagic;
    f.payload_hash = store_payload_hash(buf);
    append_raw(buf, &f, 1);

    write_text_atomic(path_, buf);
    obs::counter_add(bytes_written_counter(), static_cast<long long>(buf.size()));
}

// ---- Reader ----------------------------------------------------------------

TrajStoreReader::TrajStoreReader(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw TrajStoreError("cannot open '" + path + "'", 0);
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw TrajStoreError("cannot stat '" + path + "'", 0);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ < sizeof(StoreHeader) + sizeof(StoreFooter)) {
        ::close(fd);
        throw TrajStoreError("truncated header: file is " + std::to_string(size_) + " bytes",
                             size_);
    }
    map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        throw TrajStoreError("mmap failed for '" + path + "'", 0);
    }

    const char* base = static_cast<const char*>(map_);
    header_ = reinterpret_cast<const StoreHeader*>(base);
    try {
        if (header_->magic != kStoreMagic) throw TrajStoreError("bad magic", 0);
        if (header_->version != kStoreVersion) {
            throw TrajStoreError("unsupported version " + std::to_string(header_->version), 4);
        }
        // Exact size check before touching any section: every count claims
        // at least one byte per element, so a count beyond the file size is
        // already invalid — that also makes the multiply-free overflow guard.
        const StoreHeader& h = *header_;
        const std::uint64_t counts[] = {h.traj_count, h.step_count, h.state_count,
                                        h.f32_count,  h.i32_count,  h.u8_count};
        for (const std::uint64_t c : counts) {
            if (c > size_) throw TrajStoreError("section count exceeds file size", 0);
        }
        const std::uint64_t expected =
            sizeof(StoreHeader) + h.traj_count * sizeof(PackedTraj) +
            h.step_count * sizeof(PackedStep) + h.state_count * sizeof(PackedState) +
            h.f32_count * sizeof(float) +
            h.i32_count * sizeof(std::int32_t) + h.u8_count + sizeof(StoreFooter);
        if (size_ < expected) {
            throw TrajStoreError("torn tail: file is " + std::to_string(size_) +
                                     " bytes, sections claim " + std::to_string(expected),
                                 size_);
        }
        if (size_ > expected) {
            throw TrajStoreError("trailing bytes: file is " + std::to_string(size_) +
                                     " bytes, sections claim " + std::to_string(expected),
                                 expected);
        }

        std::uint64_t off = sizeof(StoreHeader);
        trajs_ = reinterpret_cast<const PackedTraj*>(base + off);
        off += h.traj_count * sizeof(PackedTraj);
        steps_ = reinterpret_cast<const PackedStep*>(base + off);
        off += h.step_count * sizeof(PackedStep);
        states_ = reinterpret_cast<const PackedState*>(base + off);
        off += h.state_count * sizeof(PackedState);
        f32_heap_ = reinterpret_cast<const float*>(base + off);
        off += h.f32_count * sizeof(float);
        i32_heap_ = reinterpret_cast<const std::int32_t*>(base + off);
        off += h.i32_count * sizeof(std::int32_t);
        u8_heap_ = reinterpret_cast<const std::uint8_t*>(base + off);
        off += h.u8_count;

        const StoreFooter* footer = reinterpret_cast<const StoreFooter*>(base + off);
        if (footer->magic != kStoreEndMagic) {
            throw TrajStoreError("torn tail: bad end marker", off);
        }
        if (footer->payload_hash != store_payload_hash({base, off})) {
            throw TrajStoreError("payload checksum mismatch", off + 8);
        }

        validate();
        obs::counter_add(bytes_read_counter(), static_cast<long long>(size_));
    } catch (...) {
        ::munmap(map_, size_);
        map_ = nullptr;
        throw;
    }
}

void TrajStoreReader::validate() const {
    const StoreHeader& h = *header_;
    if (h.feature_dims[0] == 0 || h.feature_dims[1] == 0 || h.feature_dims[2] == 0) {
        throw TrajStoreError("featureless store: zero feature dim",
                             offsetof(StoreHeader, feature_dims));
    }
    const std::uint64_t numel = feature_numel();
    const char* base = static_cast<const char*>(map_);

    for (std::uint64_t i = 0; i < h.state_count; ++i) {
        const PackedState& s = states_[i];
        const std::uint64_t off =
            static_cast<std::uint64_t>(reinterpret_cast<const char*>(&s) - base);
        if (s.num_segments < 0) throw TrajStoreError("ragged state: negative segment count", off);
        const auto n = static_cast<std::uint64_t>(s.num_segments);
        if (s.offsets_pos > h.i32_count || n > h.i32_count - s.offsets_pos) {
            throw TrajStoreError("ragged state: offsets out of heap bounds", off);
        }
        if (s.features_pos > h.f32_count || n * numel > h.f32_count - s.features_pos) {
            throw TrajStoreError("ragged state: features out of heap bounds", off);
        }
        const std::uint64_t key = state_key_hash(
            s.clip_index, {i32_heap_ + s.offsets_pos, static_cast<std::size_t>(s.num_segments)});
        if (key != s.key_hash) {
            throw TrajStoreError("dedupe index mismatch: state key hash does not match offsets",
                                 off);
        }
    }

    for (std::uint64_t i = 0; i < h.step_count; ++i) {
        const PackedStep& s = steps_[i];
        const std::uint64_t off =
            static_cast<std::uint64_t>(reinterpret_cast<const char*>(&s) - base);
        if (s.state_id >= h.state_count) {
            throw TrajStoreError("ragged step: state id out of range", off);
        }
        const auto n = static_cast<std::uint64_t>(states_[s.state_id].num_segments);
        if (s.actions_pos > h.u8_count || n > h.u8_count - s.actions_pos) {
            throw TrajStoreError("ragged step: actions out of heap bounds", off);
        }
        for (std::uint64_t a = 0; a < n; ++a) {
            if (u8_heap_[s.actions_pos + a] >= kNumActions) {
                throw TrajStoreError("ragged step: action index out of range", off);
            }
        }
    }

    std::uint64_t next_step = 0;
    for (std::uint64_t i = 0; i < h.traj_count; ++i) {
        const PackedTraj& t = trajs_[i];
        const std::uint64_t off =
            static_cast<std::uint64_t>(reinterpret_cast<const char*>(&t) - base);
        // Append-only invariant: trajectory step ranges tile the step table
        // in order, so load order is exactly append order.
        if (t.step_begin != next_step || t.step_count > h.step_count - t.step_begin) {
            throw TrajStoreError("ragged trajectory: step range is not contiguous", off);
        }
        next_step = t.step_begin + t.step_count;
        // A trajectory is recorded on one clip, and its samples take their
        // clip from the states: the two must agree.
        for (std::uint64_t k = t.step_begin; k < next_step; ++k) {
            if (states_[steps_[k].state_id].clip_index != t.clip_index) {
                throw TrajStoreError("clip mismatch: a step's state belongs to another clip",
                                     off);
            }
        }
    }
    if (next_step != h.step_count) {
        throw TrajStoreError("ragged trajectory table: step table has orphan records",
                             sizeof(StoreHeader));
    }
}

TrajStoreReader::~TrajStoreReader() {
    if (map_ != nullptr) ::munmap(map_, size_);
}

TrajStoreReader::TrajStoreReader(TrajStoreReader&& other) noexcept { *this = std::move(other); }

TrajStoreReader& TrajStoreReader::operator=(TrajStoreReader&& other) noexcept {
    if (this != &other) {
        if (map_ != nullptr) ::munmap(map_, size_);
        header_ = other.header_;
        trajs_ = other.trajs_;
        steps_ = other.steps_;
        states_ = other.states_;
        f32_heap_ = other.f32_heap_;
        i32_heap_ = other.i32_heap_;
        u8_heap_ = other.u8_heap_;
        map_ = other.map_;
        size_ = other.size_;
        other.map_ = nullptr;
        other.size_ = 0;
        other.header_ = nullptr;
    }
    return *this;
}

std::array<std::uint32_t, 3> TrajStoreReader::feature_dims() const {
    return {header_->feature_dims[0], header_->feature_dims[1], header_->feature_dims[2]};
}

std::uint64_t TrajStoreReader::feature_numel() const {
    return static_cast<std::uint64_t>(header_->feature_dims[0]) * header_->feature_dims[1] *
           header_->feature_dims[2];
}

TrajStoreReader::StateView TrajStoreReader::state(std::uint64_t id) const {
    const PackedState& s = states_[id];
    const auto n = static_cast<std::size_t>(s.num_segments);
    StateView v;
    v.clip_index = s.clip_index;
    v.offsets = {i32_heap_ + s.offsets_pos, n};
    v.features = {f32_heap_ + s.features_pos, n * feature_numel()};
    return v;
}

TrajStoreReader::StepView TrajStoreReader::step(std::uint64_t i) const {
    const PackedStep& s = steps_[i];
    const auto n = static_cast<std::size_t>(states_[s.state_id].num_segments);
    StepView v;
    v.state_id = s.state_id;
    v.actions = {u8_heap_ + s.actions_pos, n};
    return v;
}

TrajStoreReader::TrajView TrajStoreReader::traj(std::uint64_t i) const {
    const PackedTraj& t = trajs_[i];
    TrajView v;
    v.clip_index = t.clip_index;
    v.initial_bias_nm = t.initial_bias_nm;
    v.step_begin = t.step_begin;
    v.steps = t.step_count;
    return v;
}

Trajectory TrajStoreReader::decode(std::uint64_t i) const {
    const TrajView t = traj(i);
    Trajectory out;
    out.clip_index = t.clip_index;
    out.initial_bias_nm = t.initial_bias_nm;
    out.steps.reserve(t.steps);
    for (std::uint64_t k = 0; k < t.steps; ++k) {
        const StepView s = step(t.step_begin + k);
        const StateView st = state(s.state_id);
        StepRecord rec;
        rec.offsets_before.assign(st.offsets.begin(), st.offsets.end());
        rec.actions.assign(s.actions.begin(), s.actions.end());
        out.steps.push_back(std::move(rec));
    }
    return out;
}

}  // namespace camo::rl
