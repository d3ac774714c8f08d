// LRU block cache. Because file contents live in VirtualStorage memory for
// the lifetime of the simulation, the cache tracks *residency* only: a hit
// means the block is in host/device DRAM and the read charges no flash/PCIe
// cost. Capacity is in bytes of cached block data.
//
// The cache is lock-striped for concurrent runs: keys hash to one of N
// shards, each with its own mutex, LRU list and byte budget (capacity/N).
// Shard selection is a pure function of the key, so a single-threaded run
// sees a deterministic hit/miss sequence regardless of how many other runs
// share the cache. Small caches (< kShardedCapacityMin) collapse to one
// shard, which is byte-for-byte the classic global-LRU behaviour.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "lsm/storage.h"

namespace hybridndp::obs {
class MetricsRegistry;
}

namespace hybridndp::lsm {

/// LRU residency cache over (file_id, block_offset) keys.
class BlockCache {
 public:
  /// 1 shard for small caches (exact global LRU), kDefaultShards for caches
  /// large enough that a per-shard budget still holds many blocks.
  explicit BlockCache(uint64_t capacity_bytes);

  /// Returns true on hit and refreshes recency.
  bool Lookup(FileId file, uint64_t offset);

  /// Insert a block of `bytes`; evicts LRU entries beyond the shard budget.
  void Insert(FileId file, uint64_t offset, uint64_t bytes);

  /// Drop all blocks of a file (after compaction deletes it).
  void EraseFile(FileId file);

  uint64_t used_bytes() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const;
  uint64_t misses() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Snapshot hit/miss/residency gauges into `metrics` as
  /// `<prefix>.hits|misses|used_bytes|capacity_bytes` (Set semantics:
  /// re-exporting overwrites, so end-of-run exports never double-count).
  void ExportMetrics(obs::MetricsRegistry* metrics,
                     const std::string& prefix) const;

  static constexpr int kDefaultShards = 16;
  static constexpr uint64_t kShardedCapacityMin = 4ull << 20;

 private:
  using Key = std::pair<FileId, uint64_t>;
  struct Entry {
    Key key;
    uint64_t bytes;
  };
  struct Shard {
    mutable common::Mutex mu;
    /// Per-shard budget; fixed at construction, read-only afterwards.
    uint64_t capacity_bytes = 0;
    uint64_t used_bytes GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recent
    std::map<Key, std::list<Entry>::iterator> index GUARDED_BY(mu);
  };

  Shard& ShardFor(FileId file, uint64_t offset);

  uint64_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hybridndp::lsm
