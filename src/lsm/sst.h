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

  static constexpr size_t kEncodedLength = 16;

  static BlockHandle Decode(const Slice& v);
  /// Write the kEncodedLength-byte encoding at dst.
  void EncodeTo(char* dst) const;
};

/// One pinned (pre-decoded) sparse-index entry: last internal key of a data
/// block and the block's location.
struct SstIndexEntry {
  std::string key;
  BlockHandle handle;
};

/// Options of SST building.
struct SstOptions {
  uint32_t block_size = 4096;  ///< target data block bytes (tbl_nbs)
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

class SstReader;

/// Cursor over the internal keys of one opened SST: walks the reader's
/// pinned index and re-points one block cursor at each data block in turn,
/// charging the block's load. Reset re-points the whole cursor at another
/// file, so a level scan needs one cursor for all its files.
class SstIterator final : public Iterator {
 public:
  SstIterator(sim::AccessContext* ctx, BlockCache* cache)
      : ctx_(ctx), cache_(cache), block_iter_(ctx) {}

  /// Point at `reader`, which must be opened. Invalid until a seek.
  void Reset(SstReader* reader);

  bool Valid() const override { return block_iter_.Valid(); }
  void SeekToFirst() override;
  void Seek(const Slice& target) override;
  void Next() override {
    block_iter_.Next();
    if (!block_iter_.Valid()) NextBlock();
  }
  Slice key() const override { return block_iter_.key(); }
  Slice value() const override { return block_iter_.value(); }
  /// Latched block-read or block-decode error, cleared by a seek.
  Status status() const override { return status_; }

  BlockIter* block_cursor() override {
    return block_iter_.Valid() ? &block_iter_ : nullptr;
  }
  /// While the block cursor has no entry, move on to the next data block
  /// that has one; stop and latch the error of a block that failed to read
  /// or decode. A no-op on a valid cursor.
  void NextBlock() override;

 private:
  /// Point the block cursor at the data block under index_pos_. False (and
  /// the cursor cleared) past the last block or on a failed read.
  bool LoadBlock();

  SstReader* reader_ = nullptr;
  sim::AccessContext* ctx_;
  BlockCache* cache_;
  size_t index_pos_ = 0;  ///< entry of the reader's pinned index
  BlockIter block_iter_;
  Status status_;
};

/// Read-side access to one SST. Readers are cheap to construct; the index
/// block and bloom filter are decoded on first use and their loads are
/// charged to the providing context. The open is not thread-safe: the host
/// DB opens each reader (uncharged) when it installs the file, and the
/// device opens its own readers on the command's thread. Once opened, a
/// reader is immutable and safe to share across threads. It keeps a view of
/// the file's contents (its bloom filter and every block read point into
/// them), so a reader must not outlive its file (DB drops a reader before it
/// removes the file).
class SstReader {
 public:
  SstReader(const VirtualStorage* storage, const FileMetaData& meta);

  /// Decode footer/index/bloom if not yet done; charges the index-block load
  /// to `ctx` (unless cached or ctx is null).
  Status EnsureOpened(sim::AccessContext* ctx, BlockCache* cache);

  /// Point lookup of `key`. On hit, *value views the stored value in the
  /// file's contents (valid as long as the file), or *deleted is set.
  /// `cache`, when non-null, absorbs block loads. Returns kNotFound if the
  /// key is not in this file. The host (a null or host `ctx`) probes the
  /// bloom filter first; the device does not (paper Sect. 2.2: the host
  /// already used the filters).
  Status Get(sim::AccessContext* ctx, BlockCache* cache, const LookupKey& key,
             Slice* value, bool* deleted);

  /// Two-level iterator over the whole file (internal keys): an SstIterator,
  /// or an empty iterator carrying the open error.
  IteratorPtr NewIterator(sim::AccessContext* ctx, BlockCache* cache);

  const FileMetaData& meta() const { return meta_; }

  /// True if `user_key` is outside [smallest, largest] (fence pointer check).
  bool OutsideKeyRange(const Slice& user_key) const;

  const SstReadStats& read_stats() const { return read_stats_; }

 private:
  friend class SstIterator;

  /// Position in pinned_index_ of the first entry >= target (size() if
  /// none), charging kSeekIndexBlock and the search's compares to `ctx`.
  size_t SeekIndex(const Slice& target, sim::AccessContext* ctx);

  /// Charge + fetch one data block.
  Result<Slice> ReadBlock(sim::AccessContext* ctx, BlockCache* cache,
                          uint64_t offset, uint64_t size, bool sequential);

  const VirtualStorage* storage_;
  FileMetaData meta_;
  bool opened_ = false;
  /// The file's bytes, resolved once at open: block reads slice them
  /// directly instead of looking the file up in the storage per block.
  Slice contents_;
  /// The sparse index, decoded once at open and pinned for the reader's
  /// lifetime: index seeks binary-search this form instead of re-parsing
  /// the serialized block (prefix compression, varints) on every lookup.
  std::vector<SstIndexEntry> pinned_index_;
  std::unique_ptr<BloomFilter> bloom_;
  mutable SstReadStats read_stats_;
};

}  // namespace hybridndp::lsm
