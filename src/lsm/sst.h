// Sorted String Table: immutable, sorted file of internal-key/value pairs.
//
// Layout:
//   [data block]*            BlockBuilder format, ~block_size bytes each
//   [index block]            last-key-per-block -> BlockHandle
//   [bloom filter]           over user keys
//   footer: fixed64 index_off | fixed64 index_sz |
//           fixed64 bloom_off | fixed64 bloom_sz | fixed32 magic
//
// The index block is the paper's "sparse index"; the smallest/largest keys
// recorded per file act as fence pointers (min/max filters).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/block.h"
#include "lsm/block_cache.h"
#include "lsm/internal_key.h"
#include "lsm/iterator.h"
#include "lsm/storage.h"
#include "sim/cost.h"

namespace hybridndp::lsm {

/// Metadata of one SST as tracked by the version set (fence pointers live
/// here: smallest/largest internal keys).
struct FileMetaData {
  FileId file_id = 0;
  uint64_t file_size = 0;
  uint64_t num_entries = 0;
  std::string smallest;  ///< smallest internal key
  std::string largest;   ///< largest internal key

  Slice SmallestUserKey() const { return ExtractUserKey(Slice(smallest)); }
  Slice LargestUserKey() const { return ExtractUserKey(Slice(largest)); }
};

/// Decode an index-block value into (offset, size).
struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;

  static BlockHandle Decode(const Slice& v);
  std::string Encode() const;
};

/// One pinned (pre-decoded) sparse-index entry: last internal key of a data
/// block and the block's location.
struct SstIndexEntry {
  std::string key;
  BlockHandle handle;
};

/// Options shared by SST building and reading.
struct SstOptions {
  uint32_t block_size = 4096;  ///< target data block bytes (tbl_nbs)
  int restart_interval = 16;
  int bloom_bits_per_key = 10;
};

/// Serializes internal keys added in sorted order into the SST format and
/// registers the file with a VirtualStorage.
class SstBuilder {
 public:
  SstBuilder(VirtualStorage* storage, SstOptions options);

  /// Keys must arrive in increasing internal-key order.
  void Add(const Slice& ikey, const Slice& value);

  /// Finalize and register the file. Returns its metadata.
  Result<FileMetaData> Finish();

  uint64_t num_entries() const { return meta_.num_entries; }
  uint64_t EstimatedSize() const {
    return file_.size() + data_block_.CurrentSizeEstimate();
  }

 private:
  void FlushDataBlock();

  VirtualStorage* storage_;
  SstOptions options_;
  std::string file_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder bloom_;
  FileMetaData meta_;
  std::string last_ikey_;
  bool data_pending_ = false;
};

/// Cumulative read-side tallies of one SstReader. Relaxed atomics: readers
/// are shared across concurrent runs, and the counts are observability-only
/// (exported via DB::ExportMetrics) — they never feed the cost model, so
/// they cannot perturb any simulated clock.
struct SstReadStats {
  std::atomic<uint64_t> block_reads{0};       ///< data blocks fetched
  std::atomic<uint64_t> block_read_bytes{0};  ///< bytes of those blocks
  std::atomic<uint64_t> block_cache_hits{0};  ///< block reads a cache absorbed
  std::atomic<uint64_t> index_loads{0};       ///< index+bloom decode loads
  /// Seeks answered from the pinned (pre-decoded) index — every index seek
  /// after the one-time decode at open.
  std::atomic<uint64_t> pinned_index_seeks{0};
};

/// Read-side access to one SST. Readers are cheap to construct; the index
/// block and bloom filter are decoded on first use and their loads are
/// charged to the providing context. The open is not thread-safe: the host
/// DB opens each reader (uncharged) when it installs the file, and the
/// device opens its own readers on the command's thread. Once opened, a
/// reader is immutable and safe to share across threads. Its bloom filter
/// points into the file's contents, so a reader must not outlive its file
/// (DB drops a reader before it removes the file).
class SstReader {
 public:
  SstReader(const VirtualStorage* storage, const FileMetaData& meta);

  /// Decode footer/index/bloom if not yet done; charges the index-block load
  /// to `ctx` (unless cached or ctx is null).
  Status EnsureOpened(sim::AccessContext* ctx, BlockCache* cache);

  /// Point lookup of user_key at snapshot `seq`. On hit, fills value or sets
  /// *deleted. `cache`, when non-null, absorbs block loads.
  /// Returns kNotFound if the key is not in this file.
  Status Get(sim::AccessContext* ctx, BlockCache* cache, const Slice& user_key,
             SequenceNumber seq, std::string* value, bool* deleted,
             bool use_bloom = true);

  /// Two-level iterator over the whole file (internal keys).
  IteratorPtr NewIterator(sim::AccessContext* ctx, BlockCache* cache);

  const FileMetaData& meta() const { return meta_; }

  /// True if `user_key` is outside [smallest, largest] (fence pointer check).
  bool OutsideKeyRange(const Slice& user_key) const;

  const SstReadStats& read_stats() const { return read_stats_; }

 private:
  class TwoLevelIter;
  class PinnedIndexIter;

  /// Charge + fetch one data block.
  Result<Slice> ReadBlock(sim::AccessContext* ctx, BlockCache* cache,
                          uint64_t offset, uint64_t size, bool sequential);

  const VirtualStorage* storage_;
  FileMetaData meta_;
  bool opened_ = false;
  /// The sparse index, decoded once at open and pinned for the reader's
  /// lifetime: index seeks binary-search this form instead of re-parsing
  /// the serialized block (prefix compression, varints) on every lookup.
  std::vector<SstIndexEntry> pinned_index_;
  std::unique_ptr<BloomFilter> bloom_;
  mutable SstReadStats read_stats_;
};

}  // namespace hybridndp::lsm
