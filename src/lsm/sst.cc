#include "lsm/sst.h"

#include <cassert>

#include "common/coding.h"
#include "sim/fault.h"

namespace hybridndp::lsm {

namespace {
constexpr uint32_t kSstMagic = 0x6e644221;  // "ndB!"
constexpr size_t kFooterSize = 8 * 4 + 4;
constexpr int kRestartInterval = 16;  ///< data-block entries per restart
constexpr int kBloomBitsPerKey = 10;
}  // namespace

BlockHandle BlockHandle::Decode(const Slice& v) {
  BlockHandle h;
  if (v.size() >= 16) {
    h.offset = DecodeFixed64(v.data());
    h.size = DecodeFixed64(v.data() + 8);
  }
  return h;
}

std::string BlockHandle::Encode() const {
  std::string s;
  PutFixed64(&s, offset);
  PutFixed64(&s, size);
  return s;
}

SstBuilder::SstBuilder(VirtualStorage* storage, SstOptions options)
    : storage_(storage),
      options_(options),
      data_block_(kRestartInterval),
      index_block_(1),
      bloom_(kBloomBitsPerKey) {}

void SstBuilder::Add(const Slice& ikey, const Slice& value) {
  assert(last_ikey_.empty() || CompareInternalKey(last_ikey_, ikey) < 0);
  if (meta_.num_entries == 0) meta_.smallest = ikey.ToString();
  // Flush before adding when the entry would blow past the size target, but
  // never flush an empty block: an entry larger than the target itself (an
  // oversized value) must still land in a block of its own, otherwise the
  // index would point at a zero-entry block.
  if (data_pending_ &&
      data_block_.CurrentSizeEstimate() + ikey.size() + value.size() + 16 >=
          options_.block_size) {
    FlushDataBlock();
  }
  last_ikey_.assign(ikey.data(), ikey.size());

  bloom_.AddKey(ExtractUserKey(ikey));
  data_block_.Add(ikey, value);
  data_pending_ = true;
  ++meta_.num_entries;
  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void SstBuilder::FlushDataBlock() {
  if (!data_pending_) return;
  const uint64_t offset = file_.size();
  std::string block = data_block_.Finish();
  file_.append(block);
  BlockHandle handle{offset, block.size()};
  index_block_.Add(Slice(last_ikey_), Slice(handle.Encode()));
  data_pending_ = false;
}

Result<FileMetaData> SstBuilder::Finish() {
  if (meta_.num_entries == 0) {
    return Status::InvalidArgument("empty SST");
  }
  FlushDataBlock();
  meta_.largest = last_ikey_;

  const uint64_t index_off = file_.size();
  std::string index = index_block_.Finish();
  file_.append(index);
  const uint64_t index_sz = index.size();

  const uint64_t bloom_off = file_.size();
  std::string bloom = bloom_.Finish();
  file_.append(bloom);
  const uint64_t bloom_sz = bloom.size();

  PutFixed64(&file_, index_off);
  PutFixed64(&file_, index_sz);
  PutFixed64(&file_, bloom_off);
  PutFixed64(&file_, bloom_sz);
  PutFixed32(&file_, kSstMagic);

  meta_.file_size = file_.size();
  HNDP_ASSIGN_OR_RETURN(meta_.file_id, storage_->AddFile(std::move(file_)));
  return meta_;
}

SstReader::SstReader(const VirtualStorage* storage, const FileMetaData& meta)
    : storage_(storage), meta_(meta) {}

bool SstReader::OutsideKeyRange(const Slice& user_key) const {
  return user_key.compare(meta_.SmallestUserKey()) < 0 ||
         user_key.compare(meta_.LargestUserKey()) > 0;
}

Status SstReader::EnsureOpened(sim::AccessContext* ctx, BlockCache* cache) {
  if (opened_) return Status::OK();
  const std::string* contents = storage_->FileContents(meta_.file_id);
  if (contents == nullptr) {
    return Status::NotFound("sst file missing");
  }
  if (contents->size() < kFooterSize) {
    return Status::Corruption("sst too small");
  }
  const char* footer = contents->data() + contents->size() - kFooterSize;
  const uint64_t index_off = DecodeFixed64(footer);
  const uint64_t index_sz = DecodeFixed64(footer + 8);
  const uint64_t bloom_off = DecodeFixed64(footer + 16);
  const uint64_t bloom_sz = DecodeFixed64(footer + 24);
  const uint32_t magic = DecodeFixed32(footer + 32);
  if (magic != kSstMagic || index_off + index_sz > contents->size() ||
      bloom_off + bloom_sz > contents->size()) {
    return Status::Corruption("bad sst footer");
  }
  // The index block load is a random page read unless cached.
  if (ctx != nullptr) {
    const bool cached = cache != nullptr && cache->Lookup(meta_.file_id, index_off);
    if (!cached) {
      auto rd = storage_->Read(ctx, meta_.file_id, index_off,
                               index_sz + bloom_sz, /*sequential=*/false);
      if (!rd.ok()) return rd.status();
      if (cache != nullptr) cache->Insert(meta_.file_id, index_off, index_sz + bloom_sz);
    }
  }
  read_stats_.index_loads.fetch_add(1, std::memory_order_relaxed);
  // Pin the sparse index: decode it once here (charge-free — the physical
  // load was charged above) so every later seek binary-searches the decoded
  // entries instead of re-parsing varints and prefix compression.
  {
    const BlockReader index_block(Slice(contents->data() + index_off,
                                        index_sz));
    auto it = index_block.NewIterator(nullptr);
    std::vector<SstIndexEntry> entries;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      entries.push_back(
          {it->key().ToString(), BlockHandle::Decode(it->value())});
    }
    HNDP_RETURN_IF_ERROR(it->status());
    pinned_index_ = std::move(entries);
  }
  bloom_ = std::make_unique<BloomFilter>(
      Slice(contents->data() + bloom_off, bloom_sz));
  opened_ = true;
  return Status::OK();
}

/// Cursor over the pinned index. Seek mirrors BlockReader::Iter::Seek's
/// charge structure exactly (the index block is built with
/// restart_interval=1, so every entry is a restart point): kSeekDataBlock 1
/// plus kCompareInternalKeys per binary-search step, then
/// kCompareInternalKeys per advancing linear-scan compare (the final
/// non-advancing compare is not counted there either).
class SstReader::PinnedIndexIter {
 public:
  PinnedIndexIter(const std::vector<SstIndexEntry>* entries,
                  sim::AccessContext* ctx, SstReadStats* stats)
      : entries_(entries), ctx_(ctx), stats_(stats) {}

  bool Valid() const { return pos_ < entries_->size(); }
  void SeekToFirst() { pos_ = 0; }
  void Next() { ++pos_; }
  Slice key() const { return Slice((*entries_)[pos_].key); }
  const BlockHandle& handle() const { return (*entries_)[pos_].handle; }

  void Seek(const Slice& target) {
    const size_t n = entries_->size();
    if (n == 0) {
      pos_ = 0;  // invalid: matches the zero-restart early-out (uncharged)
      return;
    }
    stats_->pinned_index_seeks.fetch_add(1, std::memory_order_relaxed);
    size_t left = 0;
    size_t right = n - 1;
    uint64_t compares = 0;
    while (left < right) {
      const size_t mid = (left + right + 1) / 2;
      ++compares;
      if (CompareInternalKey(Slice((*entries_)[mid].key), target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }
    if (ctx_ != nullptr) {
      ctx_->Charge(sim::CostKind::kSeekDataBlock, 1);
      ctx_->Charge(sim::CostKind::kCompareInternalKeys, compares);
    }
    pos_ = left;
    uint64_t scan_compares = 0;
    while (pos_ < n &&
           CompareInternalKey(Slice((*entries_)[pos_].key), target) < 0) {
      ++scan_compares;
      ++pos_;
    }
    if (ctx_ != nullptr && scan_compares > 0) {
      ctx_->Charge(sim::CostKind::kCompareInternalKeys, scan_compares);
    }
  }

 private:
  const std::vector<SstIndexEntry>* entries_;
  sim::AccessContext* ctx_;
  SstReadStats* stats_;
  size_t pos_ = 0;
};

Result<Slice> SstReader::ReadBlock(sim::AccessContext* ctx, BlockCache* cache,
                                   uint64_t offset, uint64_t size,
                                   bool sequential) {
  const std::string* contents = storage_->FileContents(meta_.file_id);
  if (contents == nullptr) return Status::NotFound("sst file missing");
  if (offset + size > contents->size()) {
    return Status::Corruption("block out of range");
  }
  // Fault site: device-side block reads (before the cache lookup, so cache
  // hits are covered too). Host reads stay clean for graceful fallback.
  if (ctx != nullptr && ctx->actor() == sim::Actor::kDevice &&
      sim::FaultInjector::Enabled()) {
    HNDP_RETURN_IF_ERROR(sim::FaultCheck(sim::FaultSite::kSstRead, ctx));
  }
  if (ctx != nullptr) {
    const bool cached = cache != nullptr && cache->Lookup(meta_.file_id, offset);
    if (!cached) {
      auto rd = storage_->Read(ctx, meta_.file_id, offset, size, sequential);
      if (!rd.ok()) return rd.status();
      if (cache != nullptr) cache->Insert(meta_.file_id, offset, size);
    } else {
      read_stats_.block_cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    read_stats_.block_reads.fetch_add(1, std::memory_order_relaxed);
    read_stats_.block_read_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return Slice(contents->data() + offset, size);
}

Status SstReader::Get(sim::AccessContext* ctx, BlockCache* cache,
                      const Slice& user_key, SequenceNumber seq,
                      std::string* value, bool* deleted, bool use_bloom) {
  if (OutsideKeyRange(user_key)) return Status::NotFound();
  HNDP_RETURN_IF_ERROR(EnsureOpened(ctx, cache));
  if (use_bloom && bloom_ != nullptr && !bloom_->MayContain(user_key)) {
    return Status::NotFound();
  }
  const std::string lookup = MakeLookupKey(user_key, seq);

  // Seek the pinned sparse index for the block that may contain the key.
  PinnedIndexIter index_iter(&pinned_index_, ctx, &read_stats_);
  if (ctx != nullptr) ctx->Charge(sim::CostKind::kSeekIndexBlock, 1);
  index_iter.Seek(Slice(lookup));
  if (!index_iter.Valid()) return Status::NotFound();
  const BlockHandle& handle = index_iter.handle();

  HNDP_ASSIGN_OR_RETURN(Slice block_data,
                        ReadBlock(ctx, cache, handle.offset, handle.size,
                                  /*sequential=*/false));
  BlockReader block(block_data);
  auto iter = block.NewIterator(ctx);
  iter->Seek(Slice(lookup));
  if (!iter->Valid()) {
    return iter->status().ok() ? Status::NotFound() : iter->status();
  }
  ParsedInternalKey parsed;
  if (!ParseInternalKey(iter->key(), &parsed)) {
    return Status::Corruption("bad internal key");
  }
  if (parsed.user_key != user_key) return Status::NotFound();
  if (parsed.type == ValueType::kDeletion) {
    *deleted = true;
    return Status::OK();
  }
  *deleted = false;
  value->assign(iter->value().data(), iter->value().size());
  if (ctx != nullptr) ctx->ChargeCopy(iter->value().size());
  return Status::OK();
}

/// Two-level iterator: walks the index block; per index entry, opens the
/// data block (charging its load) and iterates it.
class SstReader::TwoLevelIter final : public Iterator {
 public:
  TwoLevelIter(SstReader* reader, sim::AccessContext* ctx, BlockCache* cache)
      : reader_(reader),
        ctx_(ctx),
        cache_(cache),
        index_iter_(&reader->pinned_index_, ctx, &reader->read_stats_) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void SeekToFirst() override {
    status_ = Status::OK();
    index_iter_.SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyBlocks();
  }

  void Seek(const Slice& target) override {
    status_ = Status::OK();
    if (ctx_ != nullptr) ctx_->Charge(sim::CostKind::kSeekIndexBlock, 1);
    index_iter_.Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyBlocks();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyBlocks();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }
  Status status() const override { return status_; }

 private:
  void InitDataBlock() {
    data_iter_.reset();
    block_.reset();
    if (!index_iter_.Valid()) return;
    const BlockHandle& handle = index_iter_.handle();
    auto rd = reader_->ReadBlock(ctx_, cache_, handle.offset, handle.size,
                                 /*sequential=*/true);
    if (!rd.ok()) {
      status_ = rd.status();
      return;
    }
    block_ = std::make_unique<BlockReader>(*rd);
    data_iter_ = block_->NewIterator(ctx_);
  }

  /// Move to the next non-exhausted data block. A block iterator that
  /// failed is not exhausted: latch its error and stop, like
  /// LevelConcatIterator, instead of dropping the rest of the block.
  void SkipEmptyBlocks() {
    while (data_iter_ != nullptr && !data_iter_->Valid()) {
      Status s = data_iter_->status();
      if (!s.ok()) {
        status_ = std::move(s);
        return;
      }
      index_iter_.Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  SstReader* reader_;
  sim::AccessContext* ctx_;
  BlockCache* cache_;
  PinnedIndexIter index_iter_;
  std::unique_ptr<BlockReader> block_;
  IteratorPtr data_iter_;
  Status status_;  ///< latched block-read or block-decode error
};

IteratorPtr SstReader::NewIterator(sim::AccessContext* ctx, BlockCache* cache) {
  Status s = EnsureOpened(ctx, cache);
  // Surface the open failure through the iterator's status() instead of
  // silently yielding an empty (Valid()==false) stream.
  if (!s.ok()) return std::make_unique<EmptyIterator>(std::move(s));
  return std::make_unique<TwoLevelIter>(this, ctx, cache);
}

}  // namespace hybridndp::lsm
