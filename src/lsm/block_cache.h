// LRU block cache. Because file contents live in VirtualStorage memory for
// the lifetime of the simulation, the cache tracks *residency* only: a hit
// means the block is in host/device DRAM and the read charges no flash/PCIe
// cost. Capacity is in bytes of cached block data.
//
// A cache has exactly one owner thread and takes no locks: one per RunAll
// run, one per closed-loop client, one per NDP command (DESIGN.md §8).
// Sharing a cache across threads is a caller bug. With one owner the
// hit/miss sequence is a pure function of that owner's reads, and eviction
// is exactly LRU over the whole capacity.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/storage.h"

namespace hybridndp::obs {
class MetricsRegistry;
}

namespace hybridndp::lsm {

/// LRU residency cache over (file_id, block_offset) keys: a hash index over
/// an intrusive LRU list, so a lookup costs one hash probe and no
/// allocation (DESIGN.md §8).
class BlockCache {
 public:
  explicit BlockCache(uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns true on hit and refreshes recency.
  bool Lookup(FileId file, uint64_t offset);

  /// Insert a block of `bytes`; evicts LRU entries beyond the capacity.
  void Insert(FileId file, uint64_t offset, uint64_t bytes);

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Snapshot hit/miss/residency gauges into `metrics` as
  /// `<prefix>.hits|misses|used_bytes|capacity_bytes` (Set semantics:
  /// re-exporting overwrites, so end-of-run exports never double-count).
  void ExportMetrics(obs::MetricsRegistry* metrics,
                     const std::string& prefix) const;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One cached block: an element of the intrusive LRU list, kept in
  /// nodes_ and linked by index. A freed node is chained through `next`.
  struct Node {
    FileId file;
    uint64_t offset;
    uint64_t bytes;
    uint32_t prev;
    uint32_t next;
  };

  /// Slot of (file, offset) in slots_: the one holding it, or the empty
  /// slot where it would go. Requires a non-empty table.
  size_t FindSlot(FileId file, uint64_t offset) const;
  size_t HomeSlot(FileId file, uint64_t offset) const;
  /// Empty `slot`, shifting later entries of its probe run back into it.
  void EraseSlot(size_t slot);
  void Rehash(size_t num_slots);
  void Unlink(uint32_t node);
  void PushFront(uint32_t node);

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Node> nodes_;
  uint32_t free_ = kNil;  ///< head of the free-node chain
  uint32_t head_ = kNil;  ///< most recently used
  uint32_t tail_ = kNil;  ///< least recently used: the next victim
  /// Hash index: open addressing with linear probing over node indices
  /// (kNil = empty), a power of two in size and at most half full.
  std::vector<uint32_t> slots_;
  size_t num_entries_ = 0;
};

}  // namespace hybridndp::lsm
