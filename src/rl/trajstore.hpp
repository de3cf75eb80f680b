// Packed on-disk trajectory store: the file format of the phase-1 teacher
// dataset (core::Phase1Dataset), so teacher data is collected once and
// trained on many times.
//
// A collector appends its dataset's trajectories (plus their squish-encoded
// per-step states) into one packed binary file (core::append_teacher_data);
// a trainer loads the file once back into the same dataset
// (CamoEngine::load_teacher_data) and runs the one phase-1 epoch loop over
// it, byte-identical to training in the collecting process. The reader
// itself is zero-copy over a memory mapping; the load holds every sample in
// RAM, as the collecting process does before it writes the store.
//
// File layout (version 2, all little-endian, every struct #pragma pack(1)):
//
//   StoreHeader                         magic 'CTRJ', version, section counts,
//                                       feature shape, dataset tag
//   PackedTraj  [traj_count]            clip, initial bias, step range
//   PackedStep  [step_count]            state id, action range
//   PackedState [state_count]           deduped (clip, offsets) state table
//   f32 heap    [f32_count]             squish feature tensors
//   i32 heap    [i32_count]             segment-offset vectors
//   u8  heap    [u8_count]              action bytes (one per segment)
//   StoreFooter                         end marker + FNV-1a payload hash
//
// A store holds exactly what phase 1 trains on: each step's state (offsets
// and squish features) and the teacher's actions. Every store has features
// of one {6, S, S} shape, fixed when the writer is constructed. A version-1
// store (it also held metric columns nothing read) is rejected as an
// unsupported version.
//
// Section order keeps every heap naturally aligned in the mapping (floats
// and ints on 4), so readers hand out spans over the raw bytes.
//
// Dedupe: steps reference states through a (clip_index, offsets)-keyed
// table — the rule teacher revisits converged states constantly (with
// early_exit off, a converged trajectory repeats its final offsets every
// remaining step), so repeated squish encodings are stored exactly once.
//
// Atomicity / torn-tail contract: the writer buffers appended records and
// each flush() publishes the ENTIRE store via write-to-tmp + atomic rename
// (camo::write_text_atomic), so a reader never observes a partial chunk; a
// crash loses at most the records appended since the last flush. On open
// the reader verifies magic, version, exact section-derived file size, the
// footer end marker and the payload hash, then bounds-checks every record's
// heap references and re-derives every state's dedupe key — truncated,
// torn, concatenated or bit-flipped files fail with a typed TrajStoreError
// (reason + byte offset), never a misread. So are a header with a zero
// feature dim and a trajectory whose steps reference another clip's states.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/tensor.hpp"
#include "rl/trajectory.hpp"

namespace camo::rl {

/// Typed parse/validation failure, in the spirit of layout::GdsParseError:
/// carries the byte offset of the offending structure.
class TrajStoreError : public std::runtime_error {
public:
    TrajStoreError(const std::string& what, std::uint64_t offset)
        : std::runtime_error("trajstore: " + what + " (at byte " + std::to_string(offset) + ")"),
          offset_(offset) {}

    [[nodiscard]] std::uint64_t offset() const { return offset_; }

private:
    std::uint64_t offset_;
};

#pragma pack(push, 1)

struct StoreHeader {
    std::uint32_t magic = 0;    ///< kStoreMagic
    std::uint32_t version = 0;  ///< kStoreVersion
    std::uint64_t traj_count = 0;
    std::uint64_t step_count = 0;
    std::uint64_t state_count = 0;
    std::uint64_t f32_count = 0;  ///< feature heap floats
    std::uint64_t i32_count = 0;  ///< offset heap entries
    std::uint64_t u8_count = 0;   ///< action heap bytes
    /// Squish feature tensor shape shared by every state ({6, size, size});
    /// no dim is zero.
    std::uint32_t feature_dims[3] = {0, 0, 0};
    /// Caller-chosen provenance hash of the clip set the store was collected
    /// on (generator style, seed, clip count, ...). Trainers check it so a
    /// store is never silently trained against the wrong clips.
    std::uint64_t dataset_tag = 0;
    std::uint32_t reserved = 0;
};
static_assert(sizeof(StoreHeader) == 80);

/// One deduped mask state: the segment offsets and the squish-encoded
/// per-segment feature tensors observed at those offsets.
struct PackedState {
    std::int32_t clip_index = 0;
    std::int32_t num_segments = 0;
    std::uint64_t offsets_pos = 0;   ///< i32 heap index, length num_segments
    std::uint64_t features_pos = 0;  ///< f32 heap index, num_segments * feature_numel
    std::uint64_t key_hash = 0;      ///< state_key_hash(clip_index, offsets)
};
static_assert(sizeof(PackedState) == 32);

struct PackedStep {
    std::uint64_t state_id = 0;    ///< index into the state table
    std::uint64_t actions_pos = 0; ///< u8 heap index, length = state.num_segments
};
static_assert(sizeof(PackedStep) == 16);

struct PackedTraj {
    std::int32_t clip_index = 0;   ///< every step's state belongs to this clip
    std::int32_t initial_bias_nm = 0;
    std::uint64_t step_begin = 0;  ///< index into the step table (contiguous)
    std::uint64_t step_count = 0;
};
static_assert(sizeof(PackedTraj) == 24);

struct StoreFooter {
    std::uint32_t magic = 0;  ///< kStoreEndMagic — torn-tail sentinel
    std::uint32_t reserved = 0;
    std::uint64_t payload_hash = 0;  ///< store_payload_hash over [0, footer)
};
static_assert(sizeof(StoreFooter) == 16);

#pragma pack(pop)

inline constexpr std::uint32_t kStoreMagic = 0x4A525443U;     // "CTRJ"
inline constexpr std::uint32_t kStoreEndMagic = 0x43545246U;  // "FRTC"
inline constexpr std::uint32_t kStoreVersion = 2;

/// FNV-1a 64 over a byte range; the footer seals the whole payload with it.
/// Exposed so tests can re-seal deliberately corrupted stores and exercise
/// the structural validators behind the checksum gate.
[[nodiscard]] std::uint64_t store_payload_hash(std::span<const char> payload);

/// Dedupe key of a mask state: FNV-1a over clip_index then the offsets.
/// Stored per state and re-derived on open, so an index entry that no
/// longer matches its heap data (bit rot, bad concatenation) is rejected.
[[nodiscard]] std::uint64_t state_key_hash(std::int32_t clip_index,
                                           std::span<const std::int32_t> offsets);

/// Append-only store writer. Records accumulate in memory in append order
/// (the caller is responsible for canonical clip-major / bias-minor order —
/// core::append_teacher_data of a collected dataset provides it, which is
/// what makes the file bytes worker-count independent); flush() publishes
/// everything appended so far as one complete, validated file via atomic
/// rename. States are deduped on (clip_index, offsets) as they arrive.
class TrajStoreWriter {
public:
    /// `feature_dims` is the shape of every per-segment feature tensor
    /// ({6, S, S} for squish size S; CamoEngine::state_dims). Throws
    /// std::invalid_argument if any dim is zero.
    TrajStoreWriter(std::string path, std::array<std::uint32_t, 3> feature_dims,
                    std::uint64_t dataset_tag = 0);

    /// Append one trajectory. `step_features[t]` holds the per-segment
    /// squish tensors of steps[t], one per segment, each of the store's
    /// feature shape. Throws std::invalid_argument on malformed input
    /// (step/feature count mismatch, offsets/actions length mismatch, an
    /// action out of range, a wrong shape) and then leaves the writer as
    /// it was.
    void append(const Trajectory& traj,
                std::span<const std::span<const nn::Tensor>> step_features);

    /// Atomically publish all records appended so far (write tmp + rename)
    /// and add the file's size to the `trajstore.bytes_written` counter.
    /// Throws std::runtime_error on I/O failure.
    void flush();

    [[nodiscard]] const std::string& path() const { return path_; }
    [[nodiscard]] std::uint64_t trajectories() const { return trajs_.size(); }
    [[nodiscard]] std::uint64_t steps() const { return steps_.size(); }
    [[nodiscard]] std::uint64_t states() const { return states_.size(); }
    /// Steps that reused an already-stored state.
    [[nodiscard]] std::uint64_t dedupe_hits() const { return dedupe_hits_; }
    /// Serialized size of the store as of the last append.
    [[nodiscard]] std::uint64_t byte_size() const;

private:
    std::uint64_t intern_state(std::int32_t clip_index, std::span<const int> offsets,
                               std::span<const nn::Tensor> features);

    std::string path_;
    std::uint64_t dataset_tag_ = 0;
    std::array<std::uint32_t, 3> feature_dims_;
    std::vector<PackedTraj> trajs_;
    std::vector<PackedStep> steps_;
    std::vector<PackedState> states_;
    std::vector<float> f32_heap_;
    std::vector<std::int32_t> i32_heap_;
    std::vector<std::uint8_t> u8_heap_;
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> dedupe_;  ///< hash -> state ids
    std::uint64_t dedupe_hits_ = 0;
};

/// Memory-mapped zero-copy reader. The constructor maps the file and fully
/// validates it (see the torn-tail contract above); accessors then return
/// views straight into the mapping, valid for the reader's lifetime.
class TrajStoreReader {
public:
    /// Map and validate the file, then add its size to the
    /// `trajstore.bytes_read` counter. Throws TrajStoreError.
    explicit TrajStoreReader(const std::string& path);
    ~TrajStoreReader();

    TrajStoreReader(TrajStoreReader&&) noexcept;
    TrajStoreReader& operator=(TrajStoreReader&&) noexcept;
    TrajStoreReader(const TrajStoreReader&) = delete;
    TrajStoreReader& operator=(const TrajStoreReader&) = delete;

    [[nodiscard]] std::uint64_t traj_count() const { return header_->traj_count; }
    [[nodiscard]] std::uint64_t step_count() const { return header_->step_count; }
    [[nodiscard]] std::uint64_t state_count() const { return header_->state_count; }
    [[nodiscard]] std::uint64_t dataset_tag() const { return header_->dataset_tag; }
    /// Never zero in any dim: the reader rejects such a header.
    [[nodiscard]] std::array<std::uint32_t, 3> feature_dims() const;
    [[nodiscard]] std::uint64_t feature_numel() const;
    [[nodiscard]] std::uint64_t file_bytes() const { return size_; }

    struct StateView {
        std::int32_t clip_index = 0;
        std::span<const std::int32_t> offsets;
        std::span<const float> features;  ///< num_segments * feature_numel()
    };
    struct StepView {
        std::uint64_t state_id = 0;
        std::span<const std::uint8_t> actions;
    };
    struct TrajView {
        std::int32_t clip_index = 0;
        std::int32_t initial_bias_nm = 0;
        std::uint64_t step_begin = 0;
        std::uint64_t steps = 0;
    };

    [[nodiscard]] StateView state(std::uint64_t id) const;
    [[nodiscard]] StepView step(std::uint64_t i) const;
    [[nodiscard]] TrajView traj(std::uint64_t i) const;

    /// Full in-memory reconstruction of trajectory `i` (offsets copied back
    /// from the deduped state table), inverse of TrajStoreWriter::append.
    [[nodiscard]] Trajectory decode(std::uint64_t i) const;

private:
    void validate() const;

    const StoreHeader* header_ = nullptr;
    const PackedTraj* trajs_ = nullptr;
    const PackedStep* steps_ = nullptr;
    const PackedState* states_ = nullptr;
    const float* f32_heap_ = nullptr;
    const std::int32_t* i32_heap_ = nullptr;
    const std::uint8_t* u8_heap_ = nullptr;
    void* map_ = nullptr;
    std::uint64_t size_ = 0;
};

}  // namespace camo::rl
