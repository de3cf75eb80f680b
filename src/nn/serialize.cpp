#include "nn/serialize.hpp"

#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "common/file_io.hpp"

namespace camo::nn {
namespace {
constexpr std::uint32_t kMagic = 0x434E4554U;  // "CNET"
// Version 2 ends in an FNV-1a seal over everything before it; version 1
// files (unsealed) no longer load.
constexpr std::uint32_t kVersion = 2;
}  // namespace

void save_params(const std::string& path, const std::vector<Parameter*>& params) {
    // Write to a process-unique temp file, then rename into place (as the
    // kernel cache does): a reader never sees a half-written weights file.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid()));
    std::error_code ec;
    {
        BinaryWriter w(tmp);
        w.write_u32(kMagic);
        w.write_u32(kVersion);
        w.write_u64(params.size());
        for (const Parameter* p : params) {
            w.write_u64(p->value.shape().size());
            for (int d : p->value.shape()) w.write_u32(static_cast<std::uint32_t>(d));
            for (float v : p->value.data()) w.write_f32(v);
        }
        w.write_u64(w.hash());
        if (!w.ok()) {
            std::filesystem::remove(tmp, ec);
            throw std::runtime_error("cannot write weights: " + tmp);
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        throw std::runtime_error("cannot rename weights into place: " + path);
    }
}

bool load_params(const std::string& path, const std::vector<Parameter*>& params) {
    if (!file_exists(path)) return false;
    try {
        BinaryReader r(path);
        if (r.read_u32() != kMagic || r.read_u32() != kVersion) return false;
        if (r.read_u64() != params.size()) return false;

        // First pass into temporaries so a mismatch cannot corrupt weights.
        std::vector<std::vector<float>> values;
        values.reserve(params.size());
        for (const Parameter* p : params) {
            const auto ndims = r.read_u64();
            if (ndims != p->value.shape().size()) return false;
            for (int d : p->value.shape()) {
                if (r.read_u32() != static_cast<std::uint32_t>(d)) return false;
            }
            std::vector<float> vals(p->value.numel());
            for (float& v : vals) v = r.read_f32();
            values.push_back(std::move(vals));
        }
        // A seal mismatch is a bit flip; trailing bytes mean this is not the
        // file save_params wrote. Both are rejected like a shape mismatch.
        const std::uint64_t seal = r.hash();
        if (r.read_u64() != seal || !r.ok() || !r.at_end()) return false;
        for (std::size_t i = 0; i < params.size(); ++i) {
            auto dst = params[i]->value.data();
            std::copy(values[i].begin(), values[i].end(), dst.begin());
        }
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

}  // namespace camo::nn
