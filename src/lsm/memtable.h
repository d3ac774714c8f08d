// Skiplist-based MemTable: the C0 component of each column family's
// LSM-tree. Entries are arena-allocated and encoded as
//   varint32 internal_key_len | internal_key | varint32 value_len | value

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/arena.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/internal_key.h"
#include "lsm/iterator.h"
#include "sim/cost.h"

namespace hybridndp::lsm {

/// In-memory sorted write buffer. Single-writer; readers may hold iterators
/// while writes continue (skiplist property), though the engine is
/// single-threaded anyway.
class MemTable {
 public:
  MemTable();
  ~MemTable();
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Insert a (key, seq, type, value) entry. The entry is encoded straight
  /// into the arena. An entry that sorts after the last one (the ascending
  /// primary keys of a load) links after each level's tail without a
  /// descent; the list, its heights and the arena's allocations are the
  /// same as a descent's.
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value);

  /// Point lookup of the newest version of `key` visible at its snapshot.
  /// Returns true if the key was found: *value views the entry's value in
  /// the arena, or *deleted = true.
  bool Get(const LookupKey& key, Slice* value, bool* deleted,
           sim::AccessContext* ctx) const;

  /// Iterator over internal keys in sorted order.
  IteratorPtr NewIterator(sim::AccessContext* ctx = nullptr) const;

  size_t ApproximateMemoryUsage() const;
  uint64_t num_entries() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }

 private:
  struct Node;
  class Iter;
  static constexpr int kMaxHeight = 12;

  Node* NewNode(const char* entry, int height);
  int RandomHeight();
  /// First node whose entry key >= `ikey`; fills prev[] when non-null.
  Node* FindGreaterOrEqual(const Slice& ikey, Node** prev,
                           sim::AccessContext* ctx) const;
  static Slice EntryInternalKey(const char* entry);
  static Slice EntryValue(const char* entry);

  Arena arena_;
  Rng rng_;
  Node* head_;
  /// Last node of each level (head_ while the level is empty).
  Node* tail_[kMaxHeight];
  int max_height_ = 1;
  uint64_t num_entries_ = 0;
};

}  // namespace hybridndp::lsm
