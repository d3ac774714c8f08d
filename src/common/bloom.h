// Blocked-free classic bloom filter, per-SST, mirroring RocksDB's full
// filter: k probes derived from a double hash.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/slice.h"

namespace hybridndp {

/// Builds a bloom filter over a batch of keys and serializes it to a string;
/// `BloomFilter::MayContain` probes a serialized filter.
class BloomFilterBuilder {
 public:
  /// bits_per_key controls the false-positive rate (10 ~ 1%).
  explicit BloomFilterBuilder(int bits_per_key = 10);

  void AddKey(const Slice& key);

  /// Serialize the filter over all added keys. Resets the builder.
  std::string Finish();

  size_t num_keys() const { return hashes_.size(); }

 private:
  int bits_per_key_;
  int num_probes_;
  std::vector<uint64_t> hashes_;
};

/// Read-side probe over a serialized bloom filter.
class BloomFilter {
 public:
  /// `data` must outlive the BloomFilter.
  explicit BloomFilter(Slice data);

  /// False means the key is definitely absent.
  bool MayContain(const Slice& key) const {
    return MayContainHash(Hash64(key));
  }
  /// MayContain for a key whose Hash64 is `hash`: a lookup that probes
  /// several filters hashes its key once.
  bool MayContainHash(uint64_t hash) const;

  bool valid() const { return bits_ > 0; }

 private:
  const char* array_ = nullptr;
  size_t bits_ = 0;
  int num_probes_ = 0;
};

}  // namespace hybridndp
