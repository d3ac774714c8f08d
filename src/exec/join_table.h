// Flat join storage (paper Sect. 5: the BNL join "builds a hash table in the
// buffer"). RowStore keeps fixed-size rows in reused chunks; JoinTable adds
// an open-addressing index over their equi-join key. The join operators keep
// every buffered row, partition row and match here, never one std::string
// per row (DESIGN.md §10).

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "rel/schema.h"

namespace hybridndp::exec {

using rel::Schema;

/// Fixed-size rows appended into chunks of at most kChunkBytes. Clear()
/// keeps the chunks, so a store reused block after block stops allocating
/// once it has held its largest block. Rows never move: a row pointer stays
/// valid until the next Clear() or Reset().
class RowStore {
 public:
  /// Same ceiling as a RowBatch slab: chunks stay below glibc's mmap
  /// threshold, so they are heap-served and recycled (DESIGN.md §10).
  static constexpr size_t kChunkBytes = 64 * 1024;

  /// Drop every row and bind the row size. Chunks are kept when the row
  /// size is unchanged.
  void Reset(size_t row_size);
  /// Drop every row, keeping the chunks.
  void Clear() { size_ = 0; }

  /// Slot for one more row of the bound row size.
  char* AppendRow() {
    if ((size_ >> shift_) == chunks_.size()) {
      chunks_.push_back(
          std::make_unique_for_overwrite<char[]>(row_size_ << shift_));
    }
    char* slot = chunks_[size_ >> shift_].get() + (size_ & mask_) * row_size_;
    ++size_;
    return slot;
  }
  void Append(const char* row) { CopyBytes(AppendRow(), row, row_size_); }

  size_t size() const { return size_; }
  const char* row(size_t i) const {
    return chunks_[i >> shift_].get() + (i & mask_) * row_size_;
  }

 private:
  size_t row_size_ = 0;
  int shift_ = 0;    ///< log2 of the rows per chunk
  size_t mask_ = 0;  ///< rows per chunk - 1
  size_t size_ = 0;
  std::vector<std::unique_ptr<char[]>> chunks_;
};

/// Where an equi-join key sits in a row: one (offset, width) pair per key
/// column, in key order.
class KeyLayout {
 public:
  KeyLayout() = default;
  KeyLayout(const Schema& schema, const std::vector<int>& cols);

  /// Hash64 of the key bytes of `row` concatenated in key order (the bytes
  /// KeyBytesInto yields). A one-column key is hashed in place; a wider key
  /// is gathered into a reused buffer first. GraceHashJoinOp partitions by
  /// it, so its output order depends on it.
  uint64_t Hash(const char* row) const;

  /// The hash a JoinTable files `row`'s key under: an int key (every
  /// column 4 bytes wide) is mixed inline, a column at a time; any other key
  /// is Hash(row). Only slot placement depends on it, never the order of
  /// matches.
  uint64_t SlotHash(const char* row) const {
    if (!int_key_) return Hash(row);
    uint64_t h = 0;
    for (const Part& p : parts_) {
      h = (h ^ DecodeFixed32(row + p.offset)) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 32;
    }
    return h;
  }

  /// Whether the key of `row` equals the key of `other_row`, laid out by
  /// `other` (same column widths, key order).
  bool Equal(const char* row, const KeyLayout& other,
             const char* other_row) const {
    if (int_key_) {
      for (size_t i = 0; i < parts_.size(); ++i) {
        if (DecodeFixed32(row + parts_[i].offset) !=
            DecodeFixed32(other_row + other.parts_[i].offset)) {
          return false;
        }
      }
      return true;
    }
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (memcmp(row + parts_[i].offset, other_row + other.parts_[i].offset,
                 parts_[i].width) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Part {
    uint32_t offset;
    uint32_t width;
  };
  std::vector<Part> parts_;
  bool int_key_ = false;  ///< every column 4 bytes wide
  mutable std::string gather_;  ///< multi-column key bytes, reused
};

/// A build side: rows in a RowStore plus an open-addressing index over
/// their key. Each slot holds {hash, newest row, count} for one distinct
/// key; a per-row `next` array chains the older rows with the same key, so
/// matches come out newest first. The join operators' output order, batch
/// cuts and charges depend on that order (tests/join_test.cc pins them);
/// it is the order libstdc++'s unordered_multimap::equal_range yields for
/// the same inserts.
class JoinTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Drop every row and bind the row layout and key columns of `schema`.
  void Reset(const Schema& schema, const std::vector<int>& key_cols);
  /// Drop every row, keeping the layout and all storage.
  void Clear() { rows_.Clear(); }

  void Append(const char* row) { rows_.Append(row); }
  size_t size() const { return rows_.size(); }
  const char* row(uint32_t i) const { return rows_.row(i); }

  /// Index every appended row by key. Returns the largest key multiplicity
  /// (0 for an empty table).
  size_t Build();

  /// Newest row whose key equals the key of `probe_row` (laid out by
  /// `probe_key`), or kNone. Valid after Build().
  uint32_t Find(const KeyLayout& probe_key, const char* probe_row) const {
    const Slot& slot =
        slots_[SlotFor(probe_key.SlotHash(probe_row), probe_key, probe_row)];
    return slot.count == 0 ? kNone : slot.head;
  }
  /// Next older row with the same key as row `i`, or kNone.
  uint32_t Next(uint32_t i) const { return next_[i]; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNone;  ///< newest row with this key
    uint32_t count = 0;     ///< rows with this key; 0 = empty slot
  };

  /// Index of the slot holding `row`'s key (laid out by `key`), or of the
  /// empty slot where it would go (linear probing).
  size_t SlotFor(uint64_t hash, const KeyLayout& key, const char* row) const {
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const Slot& slot = slots_[pos];
      if (slot.count == 0 ||
          (slot.hash == hash && key_.Equal(rows_.row(slot.head), key, row))) {
        return pos;
      }
    }
  }

  RowStore rows_;
  KeyLayout key_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<uint32_t> next_;
};

}  // namespace hybridndp::exec
