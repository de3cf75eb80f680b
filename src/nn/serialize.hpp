// Save/load a parameter list to a binary file. Shapes are verified on load
// so a file trained with a different architecture is rejected, not misread.
#pragma once

#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace camo::nn {

void save_params(const std::string& path, const std::vector<Parameter*>& params);

/// Returns false (leaving params untouched) if the file is missing or the
/// shapes do not match.
bool load_params(const std::string& path, const std::vector<Parameter*>& params);

}  // namespace camo::nn
