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

/// True if [off, off + n) does not lie inside [0, size). Written so that
/// no sum can wrap past 2^64 on a corrupted offset or length.
bool OutOfRange(uint64_t off, uint64_t n, uint64_t size) {
  return off > size || n > size - off;
}
}  // namespace

BlockHandle BlockHandle::Decode(const Slice& v) {
  BlockHandle h;
  if (v.size() >= 16) {
    h.offset = DecodeFixed64(v.data());
    h.size = DecodeFixed64(v.data() + 8);
  }
  return h;
}

void BlockHandle::EncodeTo(char* dst) const {
  EncodeFixed64(dst, offset);
  EncodeFixed64(dst + 8, size);
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
  const Slice block = data_block_.Finish();
  char handle[BlockHandle::kEncodedLength];
  BlockHandle{file_.size(), block.size()}.EncodeTo(handle);
  file_.append(block.data(), block.size());
  data_block_.Reset();
  index_block_.Add(Slice(last_ikey_), Slice(handle, sizeof(handle)));
  data_pending_ = false;
}

Result<FileMetaData> SstBuilder::Finish() {
  if (meta_.num_entries == 0) {
    return Status::InvalidArgument("empty SST");
  }
  FlushDataBlock();
  meta_.largest = last_ikey_;

  const uint64_t index_off = file_.size();
  const Slice index = index_block_.Finish();
  file_.append(index.data(), index.size());
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
  return CompareUserKey(user_key, meta_.SmallestUserKey()) < 0 ||
         CompareUserKey(user_key, meta_.LargestUserKey()) > 0;
}

Status SstReader::EnsureOpened(sim::AccessContext* ctx, BlockCache* cache) {
  if (opened_) return Status::OK();
  const std::string* contents = storage_->FileContents(meta_.file_id);
  if (contents == nullptr) {
    return Status::NotFound("sst file missing");
  }
  const uint64_t file_size = contents->size();
  if (file_size < kFooterSize) {
    return Status::Corruption("sst too small");
  }
  const char* footer = contents->data() + file_size - kFooterSize;
  const uint64_t index_off = DecodeFixed64(footer);
  const uint64_t index_sz = DecodeFixed64(footer + 8);
  const uint64_t bloom_off = DecodeFixed64(footer + 16);
  const uint64_t bloom_sz = DecodeFixed64(footer + 24);
  const uint32_t magic = DecodeFixed32(footer + 32);
  if (magic != kSstMagic || OutOfRange(index_off, index_sz, file_size) ||
      OutOfRange(bloom_off, bloom_sz, file_size)) {
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
  // entries instead of re-parsing varints and prefix compression. Every
  // handle must name a block inside the data region, which ends where the
  // index block starts.
  {
    BlockIter index_block;
    index_block.Reset(Slice(contents->data() + index_off, index_sz));
    std::vector<SstIndexEntry> entries;
    for (index_block.SeekToFirst(); index_block.Valid(); index_block.Next()) {
      const Slice encoded = index_block.value();
      const BlockHandle handle = BlockHandle::Decode(encoded);
      if (encoded.size() != 16 ||
          OutOfRange(handle.offset, handle.size, index_off)) {
        return Status::Corruption("bad sst index entry");
      }
      entries.push_back({index_block.key().ToString(), handle});
    }
    HNDP_RETURN_IF_ERROR(index_block.status());
    pinned_index_ = std::move(entries);
  }
  bloom_ = std::make_unique<BloomFilter>(
      Slice(contents->data() + bloom_off, bloom_sz));
  contents_ = Slice(*contents);
  opened_ = true;
  return Status::OK();
}

size_t SstReader::SeekIndex(const Slice& target, sim::AccessContext* ctx) {
  // Mirrors BlockIter::Seek's charge structure exactly (the index block is
  // built with restart_interval=1, so every entry is a restart point):
  // kSeekDataBlock 1 plus kCompareInternalKeys per binary-search step, then
  // kCompareInternalKeys per advancing linear-scan compare (the final
  // non-advancing compare is not counted there either).
  if (ctx != nullptr) ctx->Charge(sim::CostKind::kSeekIndexBlock, 1);
  const size_t n = pinned_index_.size();
  if (n == 0) return 0;  // matches the zero-restart early-out (uncharged)
  read_stats_.pinned_index_seeks.fetch_add(1, std::memory_order_relaxed);
  size_t left = 0;
  size_t right = n - 1;
  uint64_t compares = 0;
  while (left < right) {
    const size_t mid = (left + right + 1) / 2;
    ++compares;
    if (CompareInternalKey(Slice(pinned_index_[mid].key), target) < 0) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }
  if (ctx != nullptr) {
    ctx->Charge(sim::CostKind::kSeekDataBlock, 1);
    ctx->Charge(sim::CostKind::kCompareInternalKeys, compares);
  }
  size_t pos = left;
  uint64_t scan_compares = 0;
  while (pos < n &&
         CompareInternalKey(Slice(pinned_index_[pos].key), target) < 0) {
    ++scan_compares;
    ++pos;
  }
  if (ctx != nullptr && scan_compares > 0) {
    ctx->Charge(sim::CostKind::kCompareInternalKeys, scan_compares);
  }
  return pos;
}

Result<Slice> SstReader::ReadBlock(sim::AccessContext* ctx, BlockCache* cache,
                                   uint64_t offset, uint64_t size,
                                   bool sequential) {
  assert(opened_);
  if (OutOfRange(offset, size, contents_.size())) {
    return Status::Corruption("block out of range");
  }
  // Fault site: device-side block reads (before the cache lookup, so cache
  // hits are covered too). Host reads stay clean for graceful fallback.
  if (ctx != nullptr && ctx->actor() == sim::Actor::kDevice) {
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
  return Slice(contents_.data() + offset, size);
}

Status SstReader::Get(sim::AccessContext* ctx, BlockCache* cache,
                      const LookupKey& key, Slice* value, bool* deleted) {
  const Slice user_key = key.user_key();
  if (OutsideKeyRange(user_key)) return Status::NotFound();
  HNDP_RETURN_IF_ERROR(EnsureOpened(ctx, cache));
  const bool device = ctx != nullptr && ctx->actor() == sim::Actor::kDevice;
  if (!device && bloom_ != nullptr &&
      !bloom_->MayContainHash(key.BloomHash())) {
    return Status::NotFound();
  }

  // Seek the pinned sparse index for the block that may contain the key.
  const size_t pos = SeekIndex(key.internal_key(), ctx);
  if (pos == pinned_index_.size()) return Status::NotFound();
  const BlockHandle& handle = pinned_index_[pos].handle;

  HNDP_ASSIGN_OR_RETURN(Slice block_data,
                        ReadBlock(ctx, cache, handle.offset, handle.size,
                                  /*sequential=*/false));
  BlockIter block(ctx);
  block.Reset(block_data);
  block.Seek(key.internal_key());
  if (!block.Valid()) {
    return block.status().ok() ? Status::NotFound() : block.status();
  }
  ParsedInternalKey parsed;
  if (!ParseInternalKey(block.key(), &parsed)) {
    return Status::Corruption("bad internal key");
  }
  if (parsed.user_key != user_key) return Status::NotFound();
  if (parsed.type == ValueType::kDeletion) {
    *deleted = true;
    return Status::OK();
  }
  *deleted = false;
  *value = block.value();
  if (ctx != nullptr) ctx->ChargeCopy(value->size());
  return Status::OK();
}

void SstIterator::Reset(SstReader* reader) {
  reader_ = reader;
  index_pos_ = 0;
  block_iter_.Clear();
  if (!status_.ok()) status_ = Status::OK();
}

void SstIterator::SeekToFirst() {
  status_ = Status::OK();
  index_pos_ = 0;
  if (LoadBlock()) block_iter_.SeekToFirst();
  NextBlock();
}

void SstIterator::Seek(const Slice& target) {
  status_ = Status::OK();
  index_pos_ = reader_->SeekIndex(target, ctx_);
  if (LoadBlock()) block_iter_.Seek(target);
  NextBlock();
}

bool SstIterator::LoadBlock() {
  if (index_pos_ < reader_->pinned_index_.size()) {
    const BlockHandle& handle = reader_->pinned_index_[index_pos_].handle;
    auto rd = reader_->ReadBlock(ctx_, cache_, handle.offset, handle.size,
                                 /*sequential=*/true);
    if (rd.ok()) {
      block_iter_.Reset(*rd);
      return true;
    }
    status_ = rd.status();
  }
  block_iter_.Clear();
  return false;
}

void SstIterator::NextBlock() {
  while (!block_iter_.Valid()) {
    // A block that failed to decode is not exhausted: latch its error and
    // stop, like LevelConcatIterator, instead of dropping the rest of it.
    if (!block_iter_.status().ok()) {
      status_ = block_iter_.status();
      return;
    }
    if (!status_.ok() || index_pos_ >= reader_->pinned_index_.size()) return;
    ++index_pos_;
    if (LoadBlock()) block_iter_.SeekToFirst();
  }
}

IteratorPtr SstReader::NewIterator(sim::AccessContext* ctx, BlockCache* cache) {
  Status s = EnsureOpened(ctx, cache);
  // Surface the open failure through the iterator's status() instead of
  // silently yielding an empty (Valid()==false) stream.
  if (!s.ok()) return std::make_unique<EmptyIterator>(std::move(s));
  auto iter = std::make_unique<SstIterator>(ctx, cache);
  iter->Reset(this);
  return iter;
}

}  // namespace hybridndp::lsm
