// Save/load a parameter list to a binary file. Shapes are verified on load
// so a file trained with a different architecture is rejected, not misread,
// and the file ends in an FNV-1a seal so a bit flip is rejected too.
#pragma once

#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace camo::nn {

/// Writes a sealed file atomically (temp file + rename). Throws
/// std::runtime_error on I/O failure.
void save_params(const std::string& path, const std::vector<Parameter*>& params);

/// Returns false (leaving params untouched) if the file is missing, the
/// shapes do not match or the seal does not match the bytes.
bool load_params(const std::string& path, const std::vector<Parameter*>& params);

}  // namespace camo::nn
