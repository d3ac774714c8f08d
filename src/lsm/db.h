// The nKV-style LSM key/value store: column families, MemTable flushes,
// leveled compactions (C1 may overlap, C2..Ck do not), bloom/fence-pruned
// reads, snapshots, and the NDP shared-state snapshot export the device
// engine consumes (paper Sect. 2).

#pragma once

#include <cstdint>
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
  uint64_t l1_target_bytes = 4ull << 20;
};

using ColumnFamilyId = uint32_t;

/// Levels of one column family's LSM-tree (C1..Ck on persistent storage).
struct Version {
  /// levels[0] = C1 (overlapping, newest file last); levels[i>0] sorted by
  /// smallest key and non-overlapping.
  std::vector<std::vector<FileMetaData>> levels;

  uint64_t LevelBytes(int level) const;
  uint64_t TotalBytes() const;
};

/// One SstReader per file, by FileId: the reader table a snapshot read looks
/// its files up in. The host DB keeps one, opened as each file is installed;
/// each device table accessor builds its own over the files it was shipped,
/// and their readers open (charged) on first use.
class ReaderTable {
 public:
  /// Add `reader`, keyed by its file id.
  void Add(std::unique_ptr<SstReader> reader);
  /// Add an unopened reader of every file of `version` not yet present.
  void AddFiles(const VirtualStorage* storage, const Version& version);
  void Erase(FileId file_id) { readers_.erase(file_id); }

  /// The reader of `meta`'s file. Aborts on a file not in the table: callers
  /// only pass metadata of the version the table was built from.
  SstReader* Get(const FileMetaData& meta) const;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& entry : readers_) fn(*entry.second);
  }

 private:
  std::map<FileId, std::unique_ptr<SstReader>> readers_;
};

/// Shared state shipped with an NDP invocation (paper Sect. 2.1): the
/// unflushed in-memory component plus the file list of all SSTs (their
/// placement info), so the device can construct a transactionally consistent
/// snapshot on its own.
struct CfSnapshot {
  SequenceNumber sequence = 0;
  const MemTable* mem = nullptr;
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

  /// Point lookup through C0, then C1..Ck with bloom/fence pruning. *value
  /// views the stored value (see SnapshotGet); it stays valid until the
  /// next write to the column family.
  Status Get(const ReadOptions& opts, ColumnFamilyId cf, const Slice& key,
             Slice* value) const;

  /// User-key iterator (versions collapsed, tombstones hidden).
  IteratorPtr NewIterator(const ReadOptions& opts, ColumnFamilyId cf) const;

  /// Force-flush C0 of a column family to C1.
  Status Flush(ColumnFamilyId cf);
  /// Flush all column families.
  Status FlushAll();
  /// Compact the column family until all level size targets hold.
  Status CompactAll(ColumnFamilyId cf);

  SequenceNumber LatestSequence() const { return sequence_; }

  /// Export the NDP shared-state snapshot for a column family.
  CfSnapshot GetCfSnapshot(ColumnFamilyId cf) const;

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
    std::unique_ptr<MemTable> mem;  ///< C0, the only MemTable
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
  ReaderTable readers_;
  Stats stats_;
};

/// Point lookup at `opts.snapshot` through one snapshot: `mem`, then C1
/// newest file first, then one binary-searched file per level C2..Ck, each
/// file read through its reader in `readers`. The lookup key and its bloom
/// hash are built once for all of them. On success *value views the value
/// in the MemTable arena or the SST file, valid as long as they are.
/// NotFound for an absent or deleted key. The host DB::Get and the NDP
/// engine's primary-key lookups both call it.
Status SnapshotGet(const MemTable& mem, const Version& version,
                   const ReaderTable& readers, const ReadOptions& opts,
                   const Slice& key, Slice* value);

/// User-key iterator over every component of one snapshot, visible at
/// `opts.snapshot` (versions collapsed, tombstones hidden), reading SSTs
/// through `readers` and charging `opts.ctx`/`opts.cache`. The host
/// DB::NewIterator and the NDP engine's scans both call it. Its value(), and
/// each view its NextValues hands out, points into the SST file or the
/// MemTable arena and stays valid until the next pull: the iterator must not
/// outlive `mem`, `version`, `readers` or the files.
IteratorPtr NewSnapshotIterator(const MemTable& mem, const Version& version,
                                const ReaderTable& readers,
                                const ReadOptions& opts);

}  // namespace hybridndp::lsm
