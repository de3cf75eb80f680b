#include "common/file_io.hpp"

#include <cstdio>
#include <sstream>

#include "common/logging.hpp"

namespace camo {

std::atomic<LogLevel>& log_level_ref() {
    static std::atomic<LogLevel> level{LogLevel::kQuiet};
    return level;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary) {
    if (!out_) throw std::runtime_error("cannot open for writing: " + path);
}

void BinaryWriter::write_u32(std::uint32_t v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_f64(double v) { write_bytes(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { write_bytes(&v, sizeof v); }

void BinaryWriter::write_bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    hash_ = fnv1a(hash_, data, n);
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary) {
    if (!in_) throw std::runtime_error("cannot open for reading: " + path);
    in_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0, std::ios::beg);
}

std::uint64_t BinaryReader::remaining() {
    const std::streamoff pos = in_.tellg();
    return pos < 0 ? 0 : size_ - static_cast<std::uint64_t>(pos);
}

std::uint32_t BinaryReader::read_u32() {
    std::uint32_t v = 0;
    read_bytes(&v, sizeof v);
    return v;
}

std::uint64_t BinaryReader::read_u64() {
    std::uint64_t v = 0;
    read_bytes(&v, sizeof v);
    return v;
}

double BinaryReader::read_f64() {
    double v = 0;
    read_bytes(&v, sizeof v);
    return v;
}

float BinaryReader::read_f32() {
    float v = 0;
    read_bytes(&v, sizeof v);
    return v;
}

void BinaryReader::read_bytes(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!in_) throw std::runtime_error("unexpected end of file");
    hash_ = fnv1a(hash_, data, n);
}

bool file_exists(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return static_cast<bool>(f);
}

void write_text_atomic(const std::string& path, const std::string& content) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot open for writing: " + tmp);
        out.write(content.data(), static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out) throw std::runtime_error("write failed: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("rename failed: " + tmp + " -> " + path);
    }
}

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open for reading: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace camo
