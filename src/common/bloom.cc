#include "common/bloom.h"

#include <algorithm>

#include "common/hash.h"

namespace hybridndp {

BloomFilterBuilder::BloomFilterBuilder(int bits_per_key)
    : bits_per_key_(std::max(1, bits_per_key)) {
  // k = bits_per_key * ln(2), clamped to a sane range.
  num_probes_ = static_cast<int>(bits_per_key_ * 0.69);
  num_probes_ = std::clamp(num_probes_, 1, 30);
}

void BloomFilterBuilder::AddKey(const Slice& key) {
  hashes_.push_back(Hash64(key));
}

std::string BloomFilterBuilder::Finish() {
  size_t bits = hashes_.size() * static_cast<size_t>(bits_per_key_);
  bits = std::max<size_t>(bits, 64);
  const size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  // Last byte stores the probe count (LevelDB convention).
  std::string out(bytes + 1, '\0');
  out[bytes] = static_cast<char>(num_probes_);

  for (uint64_t h : hashes_) {
    const uint64_t delta = (h >> 17) | (h << 47);  // Rotate for double hash.
    for (int j = 0; j < num_probes_; ++j) {
      const size_t bitpos = h % bits;
      out[bitpos / 8] |= static_cast<char>(1 << (bitpos % 8));
      h += delta;
    }
  }
  hashes_.clear();
  return out;
}

BloomFilter::BloomFilter(Slice data) {
  if (data.size() < 2) return;
  array_ = data.data();
  bits_ = (data.size() - 1) * 8;
  num_probes_ = static_cast<unsigned char>(data[data.size() - 1]);
  if (num_probes_ < 1 || num_probes_ > 30) {
    bits_ = 0;  // Treat as corrupt: always "may contain".
  }
}

bool BloomFilter::MayContainHash(uint64_t hash) const {
  if (bits_ == 0) return true;
  uint64_t h = hash;
  const uint64_t delta = (h >> 17) | (h << 47);
  for (int j = 0; j < num_probes_; ++j) {
    const size_t bitpos = h % bits_;
    if ((array_[bitpos / 8] & (1 << (bitpos % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

}  // namespace hybridndp
