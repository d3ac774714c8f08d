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
#include <list>
#include <map>
#include <string>
#include <utility>

#include "lsm/storage.h"

namespace hybridndp::obs {
class MetricsRegistry;
}

namespace hybridndp::lsm {

/// LRU residency cache over (file_id, block_offset) keys.
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
  using Key = std::pair<FileId, uint64_t>;
  struct Entry {
    Key key;
    uint64_t bytes;
  };

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::map<Key, std::list<Entry>::iterator> index_;
};

}  // namespace hybridndp::lsm
