// The nKV-style LSM key/value store: column families, MemTable flushes,
// leveled compactions (C1 may overlap, C2..Ck do not), bloom/fence-pruned
// reads, snapshots, and the NDP shared-state snapshot export the device
// engine consumes (paper Sect. 2).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/internal_key.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/sst.h"
#include "lsm/storage.h"
#include "sim/cost.h"

namespace hybridndp::obs {
class MetricsRegistry;
}

namespace hybridndp::lsm {

/// Per-read options: snapshot visibility, cost context, cache, pruning.
struct ReadOptions {
  SequenceNumber snapshot = kMaxSequenceNumber;
  sim::AccessContext* ctx = nullptr;  ///< cost accounting (may be null)
  BlockCache* cache = nullptr;        ///< block cache (may be null)
  bool use_bloom = true;
};

/// DB-wide tuning knobs.
struct DBOptions {
  SstOptions sst;
  uint64_t memtable_bytes = 1 << 20;  ///< C0 flush threshold
  int l0_compaction_trigger = 4;
  uint64_t l1_target_bytes = 4ull << 20;
  double level_multiplier = 10.0;
  int num_levels = 7;
};

using ColumnFamilyId = uint32_t;

/// Levels of one column family's LSM-tree (C1..Ck on persistent storage).
struct Version {
  /// levels[0] = C1 (overlapping, newest file last); levels[i>0] sorted by
  /// smallest key and non-overlapping.
  std::vector<std::vector<FileMetaData>> levels;

  uint64_t LevelBytes(int level) const;
  uint64_t TotalBytes() const;
  uint64_t TotalEntries() const;
};

/// Shared state shipped with an NDP invocation (paper Sect. 2.1): the
/// unflushed in-memory component plus physical placement of all SSTs, so the
/// device can construct a transactionally consistent snapshot on its own.
struct CfSnapshot {
  ColumnFamilyId cf = 0;
  SequenceNumber sequence = 0;
  const MemTable* mem = nullptr;
  std::vector<const MemTable*> immutables;
  Version version;  ///< copy of file metadata (placement info)
};

/// LSM database over a VirtualStorage. Writes (Put/Delete/Flush/Compact) are
/// single-threaded; the read path (Get, NewIterator, GetCfSnapshot) is
/// const-thread-safe once loading is done — concurrent independent runs may
/// read through the same DB as long as no writer is active. Every live SST
/// has an opened SstReader, installed with its file on the write path, so
/// reads never mutate DB state (see DESIGN.md "Concurrency model").
class DB {
 public:
  DB(VirtualStorage* storage, DBOptions options);
  ~DB();
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Create (or look up) a column family; each CF owns a separate LSM-tree.
  ColumnFamilyId CreateColumnFamily(const std::string& name);
  Result<ColumnFamilyId> FindColumnFamily(const std::string& name) const;

  Status Put(ColumnFamilyId cf, const Slice& key, const Slice& value);
  Status Delete(ColumnFamilyId cf, const Slice& key);

  /// Point lookup through C0, immutables, C1..Ck with bloom/fence pruning.
  Status Get(const ReadOptions& opts, ColumnFamilyId cf, const Slice& key,
             std::string* value) const;

  /// User-key iterator (versions collapsed, tombstones hidden).
  IteratorPtr NewIterator(const ReadOptions& opts, ColumnFamilyId cf) const;

  /// Force-flush C0 (and immutables) of a column family to C1.
  Status Flush(ColumnFamilyId cf);
  /// Flush all column families.
  Status FlushAll();
  /// Compact the column family until all level size targets hold.
  Status CompactAll(ColumnFamilyId cf);

  SequenceNumber LatestSequence() const { return sequence_; }

  /// Export the NDP shared-state snapshot for a column family.
  CfSnapshot GetCfSnapshot(ColumnFamilyId cf) const;

  /// Opened reader of a live file (host-side use). Aborts on a file that is
  /// not live: callers only pass metadata from the current version.
  SstReader* GetReader(const FileMetaData& meta) const;

  /// No-op: every reader is opened when its file is installed. Kept only for
  /// perfbench/driver/job_store.cc, which still calls it.
  void OpenAllReaders() const {}

  const DBOptions& options() const { return options_; }
  VirtualStorage* storage() { return storage_; }
  const Version& GetVersion(ColumnFamilyId cf) const;

  /// Statistics for tests/benches.
  struct Stats {
    uint64_t flushes = 0;
    uint64_t compactions = 0;
    uint64_t compacted_bytes = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Snapshot DB-level gauges plus the aggregated SstReadStats of every
  /// instantiated reader into `metrics` under "lsm.*" (Set semantics —
  /// repeat exports overwrite rather than double-count).
  void ExportMetrics(obs::MetricsRegistry* metrics) const;

 private:
  struct ColumnFamily {
    ColumnFamilyId id = 0;
    std::string name;
    std::unique_ptr<MemTable> mem;
    std::vector<std::unique_ptr<MemTable>> immutables;
    Version version;
    size_t compaction_cursor = 0;  ///< round-robin pick within a level
  };

  Status Write(ColumnFamilyId cf, ValueType type, const Slice& key,
               const Slice& value);
  Status MaybeFlush(ColumnFamily* cf);
  Status FlushMemTable(ColumnFamily* cf, const MemTable& mem);
  Status MaybeCompact(ColumnFamily* cf);
  Status CompactLevel(ColumnFamily* cf, int level);
  uint64_t LevelTargetBytes(int level) const;

  /// Files in `level` overlapping [smallest, largest] user-key range.
  std::vector<size_t> OverlappingFiles(const ColumnFamily& cf, int level,
                                       const Slice& smallest,
                                       const Slice& largest) const;

  /// Open (uncharged) the reader of a newly written file and add it to the
  /// reader table; called before the file is installed in a version.
  Status OpenReader(const FileMetaData& meta);

  VirtualStorage* storage_;
  DBOptions options_;
  SequenceNumber sequence_ = 0;
  std::vector<std::unique_ptr<ColumnFamily>> cfs_;
  std::map<std::string, ColumnFamilyId> cf_names_;
  /// One opened reader per live SST; changed only on the write path.
  std::map<FileId, std::unique_ptr<SstReader>> readers_;
  Stats stats_;
};

/// Build a merged internal-key iterator over every component of a snapshot,
/// reading SSTs through `ctx`/`cache`. Used by both the host read path and
/// the on-device NDP engine (which passes a device context and its own
/// reader table). `reader_fn` maps file metadata to a live SstReader.
IteratorPtr NewSnapshotInternalIterator(
    const CfSnapshot& snap, sim::AccessContext* ctx, BlockCache* cache,
    const std::function<SstReader*(const FileMetaData&)>& reader_fn);

/// Point lookup at `opts.snapshot` through the levels of a version: C1
/// newest file first, then one binary-searched file per level C2..Ck.
/// NotFound for an absent or deleted key. The host DB::Get and the NDP
/// engine both call it after probing their own MemTables.
Status GetFromLevels(
    const Version& version, const ReadOptions& opts, const Slice& key,
    std::string* value,
    const std::function<SstReader*(const FileMetaData&)>& reader_fn);

/// Wrap an internal-key iterator into a user-key iterator visible at `seq`
/// (collapses versions, hides tombstones).
IteratorPtr NewUserKeyIterator(IteratorPtr internal_iter, SequenceNumber seq,
                               sim::AccessContext* ctx);

}  // namespace hybridndp::lsm
