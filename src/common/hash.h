// 64-bit and 32-bit byte hashing (xxhash-style avalanche mix), used by bloom
// filters, hash joins, and the group-by cache.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace hybridndp {

/// 64-bit hash of a byte range with a seed.
uint64_t Hash64(const char* data, size_t n, uint64_t seed = 0);

inline uint64_t Hash64(const Slice& s, uint64_t seed = 0) {
  return Hash64(s.data(), s.size(), seed);
}

}  // namespace hybridndp
