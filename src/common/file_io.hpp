// Binary serialization helpers shared by the kernel cache and the neural
// network weight files. All files begin with a caller-chosen magic tag and a
// version so stale caches are detected rather than misread; a format can
// also end in an FNV-1a seal over its payload (BinaryWriter::hash), which
// catches bit flips the structural checks cannot see.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace camo {

/// FNV-1a 64 of `n` bytes, continued from `h` (start from kFnv1aBasis): the
/// payload seal of the kernel cache and the trajectory store, and every
/// cache key, seed and file-name hash. Bytes are hashed in memory order, so
/// an integer hashes as its little-endian bytes on the little-endian hosts
/// the binary formats already assume.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;
/// The standard basis with its last digit dropped. The comparison matrix's
/// scenario seeds and the trajectory-store dataset tags were first hashed
/// from it; it stays so their values (and existing stores) stay valid.
inline constexpr std::uint64_t kFnv1aShortBasis = 1469598103934665603ULL;
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

class BinaryWriter {
public:
    explicit BinaryWriter(const std::string& path);

    void write_u32(std::uint32_t v);
    void write_u64(std::uint64_t v);
    void write_f64(double v);
    void write_f32(float v);
    void write_bytes(const void* data, std::size_t n);

    template <typename T>
    void write_vector(const std::vector<T>& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        write_u64(v.size());
        write_bytes(v.data(), v.size() * sizeof(T));
    }

    [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

    /// FNV-1a of every byte written so far; writing it last seals the file.
    [[nodiscard]] std::uint64_t hash() const { return hash_; }

private:
    std::ofstream out_;
    std::uint64_t hash_ = kFnv1aBasis;
};

class BinaryReader {
public:
    explicit BinaryReader(const std::string& path);

    std::uint32_t read_u32();
    std::uint64_t read_u64();
    double read_f64();
    float read_f32();
    void read_bytes(void* data, std::size_t n);

    template <typename T>
    std::vector<T> read_vector() {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::uint64_t n = read_u64();
        std::vector<T> v(n);
        read_bytes(v.data(), n * sizeof(T));
        return v;
    }

    [[nodiscard]] bool ok() const { return static_cast<bool>(in_); }

    /// True when every byte has been consumed — the next read would hit EOF.
    /// Loaders use this to reject files with trailing bytes (truncated-then-
    /// appended or concatenated blobs) instead of silently ignoring the tail.
    [[nodiscard]] bool at_end() { return in_.peek() == std::ifstream::traits_type::eof(); }

    /// Bytes between the read position and the end of the file. Loaders
    /// check an element count read from the file against it before sizing a
    /// vector by that count.
    [[nodiscard]] std::uint64_t remaining();

    /// FNV-1a of every byte read so far, to compare with a seal written
    /// from BinaryWriter::hash.
    [[nodiscard]] std::uint64_t hash() const { return hash_; }

private:
    std::ifstream in_;
    std::uint64_t size_ = 0;
    std::uint64_t hash_ = kFnv1aBasis;
};

/// True if the file exists and is readable.
bool file_exists(const std::string& path);

/// Replace `path` atomically: the content is written to `path + ".tmp"` and
/// renamed over the destination, so readers never observe a partial file.
/// Throws std::runtime_error on I/O failure. Used by the telemetry
/// snapshot/trace writers (obs/report.cpp).
void write_text_atomic(const std::string& path, const std::string& content);

/// Whole file as a string; throws std::runtime_error if unreadable.
std::string read_text(const std::string& path);

}  // namespace camo
