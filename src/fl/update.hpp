#pragma once
// Parameter-space vocabulary for federated learning.
//
// A model update is U_i = L_i - G: the client's locally-trained
// parameters minus the global parameters, as one flat vector.

#include <cstddef>
#include <vector>

namespace baffle {

using ParamVec = std::vector<float>;

/// True when `a` and `b` hold the same floats bit for bit. Unlike
/// operator==, -0 and +0 differ and a NaN equals its own bits: the test
/// for "the same model" wherever a result computed for one parameter
/// vector is reused for another.
bool same_bytes(const ParamVec& a, const ParamVec& b);

/// Element-wise mean of equally-weighted updates.
ParamVec mean_update(const std::vector<ParamVec>& updates);

/// Element-wise sum.
ParamVec sum_updates(const std::vector<ParamVec>& updates);

/// Throws unless all updates share `expected_size`.
void check_update_sizes(const std::vector<ParamVec>& updates,
                        std::size_t expected_size);

}  // namespace baffle
