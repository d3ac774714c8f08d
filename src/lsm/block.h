// Sorted key/value block with shared-prefix compression and restart points
// (LevelDB block format). Data blocks and index blocks of SSTs use this.
//
// Entry:   varint32 shared | varint32 non_shared | varint32 value_len |
//          key_suffix | value
// Trailer: fixed32 restart_offset[num_restarts] | fixed32 num_restarts

#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/internal_key.h"
#include "sim/cost.h"

namespace hybridndp::lsm {

/// Builds one serialized block from keys added in sorted order.
class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  /// Keys must be added in strictly increasing order.
  void Add(const Slice& key, const Slice& value);

  /// Append the restart trailer and return the block. The bytes stay valid
  /// until Reset, which starts the next block in the same buffer.
  Slice Finish();

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

/// Cursor over one serialized block. A scan re-points one cursor at block
/// after block (Reset) instead of allocating a reader and an iterator per
/// block; the key buffer keeps its room across blocks. It is a concrete
/// class, not an lsm::Iterator: its owners embed it by value and call it
/// without a virtual hop. The block's bytes must outlive their use through
/// the cursor.
class BlockIter {
 public:
  /// `ctx`, when set, is charged for seeks: kSeekDataBlock 1 per restart
  /// binary search plus kCompareInternalKeys per binary-search step and per
  /// advancing linear-scan comparison.
  explicit BlockIter(sim::AccessContext* ctx = nullptr) : ctx_(ctx) {}
  BlockIter(const BlockIter&) = delete;
  BlockIter& operator=(const BlockIter&) = delete;

  /// Point at `contents` and validate its trailer. The cursor is invalid
  /// until a seek. A bad trailer makes status() Corruption and every seek a
  /// no-op.
  void Reset(Slice contents);
  /// Drop the block: invalid, with an OK status.
  void Clear();

  bool Valid() const { return valid_; }
  void SeekToFirst() { SeekToRestart(0); }
  /// Position at the first entry with key >= target.
  void Seek(const Slice& target);
  void Next() {
    assert(valid_);
    ParseNext();
  }

  /// Precondition for key()/value(): Valid(). key() is valid until the next
  /// move, value() as long as the block's bytes.
  Slice key() const { return key_.slice(); }
  Slice value() const { return value_; }
  /// How the current entry stores key(): its first shared() bytes are the
  /// previous entry's, the rest are unshared(), in the block itself (valid
  /// as long as the block's bytes). Precondition: Valid().
  size_t shared() const { return key_.size() - unshared_.size(); }
  Slice unshared() const { return unshared_; }
  /// Corruption once a bad trailer, restart point or entry was met; stays
  /// until the next Reset.
  const Status& status() const { return status_; }

 private:
  /// Key of restart point `index` (stored verbatim: shared == 0), or false
  /// when the restart offset or the entry header is out of bounds.
  bool RestartKey(uint32_t index, Slice* key) const;
  void SeekToRestart(uint32_t index);
  /// Decode the entry at next_offset_ into key_/value_. An entry whose
  /// three header varints are one byte each, which is nearly every entry,
  /// decodes here; any other goes through ParseNextChecked. Both make the
  /// same bounds checks.
  void ParseNext() {
    const char* p = data_ + next_offset_;
    const char* limit = data_ + restarts_offset_;
    if (limit - p >= 3 && ((p[0] | p[1] | p[2]) & 0x80) == 0) {
      const uint32_t shared = static_cast<unsigned char>(p[0]);
      const uint32_t non_shared = static_cast<unsigned char>(p[1]);
      const uint32_t value_len = static_cast<unsigned char>(p[2]);
      p += 3;
      DecodeEntry(p, limit, shared, non_shared, value_len);
      return;
    }
    ParseNextChecked();
  }
  /// ParseNext for any header: varints of any length, or none left.
  void ParseNextChecked();
  /// Check an entry's decoded header against the block and the previous
  /// key, then take its key and value; `p` is the first key byte.
  void DecodeEntry(const char* p, const char* limit, uint32_t shared,
                   uint32_t non_shared, uint32_t value_len) {
    // Every key is an internal key: at least its 8-byte trailer.
    if (shared > key_.size() ||
        non_shared > static_cast<size_t>(limit - p) ||
        value_len > static_cast<size_t>(limit - p) - non_shared ||
        shared + non_shared < 8) {
      Corrupt("bad block entry");
      return;
    }
    key_.Truncate(shared);
    key_.Append(p, non_shared);
    unshared_ = Slice(p, non_shared);
    value_ = Slice(p + non_shared, value_len);
    next_offset_ = static_cast<size_t>((p + non_shared + value_len) - data_);
  }
  void Corrupt(const char* what);

  sim::AccessContext* ctx_;
  const char* data_ = nullptr;
  size_t restarts_offset_ = 0;  ///< end of the entries, start of the trailer
  uint32_t num_restarts_ = 0;
  bool valid_ = false;
  size_t next_offset_ = 0;
  KeyBuffer key_;
  Slice unshared_;  ///< the current entry's own key bytes, in the block
  Slice value_;
  Status status_;
};

}  // namespace hybridndp::lsm
