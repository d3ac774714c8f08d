// Sorted key/value block with shared-prefix compression and restart points
// (LevelDB block format). Data blocks and index blocks of SSTs use this.
//
// Entry:   varint32 shared | varint32 non_shared | varint32 value_len |
//          key_suffix | value
// Trailer: fixed32 restart_offset[num_restarts] | fixed32 num_restarts

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/iterator.h"
#include "sim/cost.h"

namespace hybridndp::lsm {

/// Builds one serialized block from keys added in sorted order.
class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  /// Keys must be added in strictly increasing order.
  void Add(const Slice& key, const Slice& value);

  /// Serialize and reset.
  std::string Finish();

  /// Bytes the block would occupy if finished now.
  size_t CurrentSizeEstimate() const;

  bool empty() const { return counter_ == 0 && buffer_.empty(); }
  void Reset();

 private:
  int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;
  std::string last_key_;
};

/// Read-side view over a serialized block. The underlying bytes must outlive
/// the reader and any iterator obtained from it.
class BlockReader {
 public:
  /// Validates the trailer; a block with a bad one yields an empty iterator
  /// whose status() is Corruption.
  explicit BlockReader(Slice contents);

  /// Iterate entries; `cmp_ctx`, when set, is charged for seek comparisons
  /// (kSeekDataBlock per restart-binary-search, kCompareInternalKeys per
  /// linear-scan comparison).
  IteratorPtr NewIterator(sim::AccessContext* ctx = nullptr) const;

  size_t size() const { return size_; }

 private:
  class Iter;

  const char* data_ = nullptr;
  size_t size_ = 0;
  uint32_t restarts_offset_ = 0;
  uint32_t num_restarts_ = 0;
  Status status_;  ///< Corruption when the trailer is bad
};

}  // namespace hybridndp::lsm
