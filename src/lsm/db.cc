#include "lsm/db.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "lsm/merge_iterator.h"
#include "obs/metrics.h"

namespace hybridndp::lsm {

namespace {
constexpr int kL0CompactionTrigger = 4;  ///< C1 file count that compacts C1
constexpr double kLevelMultiplier = 10.0;
constexpr int kNumLevels = 7;
}  // namespace

uint64_t Version::LevelBytes(int level) const {
  if (level < 0 || level >= static_cast<int>(levels.size())) return 0;
  uint64_t total = 0;
  for (const auto& f : levels[level]) total += f.file_size;
  return total;
}

uint64_t Version::TotalBytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < levels.size(); ++i) total += LevelBytes(static_cast<int>(i));
  return total;
}

void ReaderTable::Add(std::unique_ptr<SstReader> reader) {
  const FileId file_id = reader->meta().file_id;
  readers_[file_id] = std::move(reader);
}

void ReaderTable::AddFiles(const VirtualStorage* storage,
                           const Version& version) {
  for (const auto& level : version.levels) {
    for (const FileMetaData& meta : level) {
      auto& reader = readers_[meta.file_id];
      if (reader == nullptr) reader = std::make_unique<SstReader>(storage, meta);
    }
  }
}

SstReader* ReaderTable::Get(const FileMetaData& meta) const {
  auto it = readers_.find(meta.file_id);
  if (it == readers_.end()) {
    fprintf(stderr, "ReaderTable::Get: file %llu has no reader\n",
            static_cast<unsigned long long>(meta.file_id));
    abort();
  }
  return it->second.get();
}

DB::DB(VirtualStorage* storage, DBOptions options)
    : storage_(storage), options_(options) {}

DB::~DB() = default;

ColumnFamilyId DB::CreateColumnFamily(const std::string& name) {
  auto it = cf_names_.find(name);
  if (it != cf_names_.end()) return it->second;
  auto cf = std::make_unique<ColumnFamily>();
  cf->id = static_cast<ColumnFamilyId>(cfs_.size());
  cf->name = name;
  cf->mem = std::make_unique<MemTable>();
  cf->version.levels.resize(kNumLevels);
  cf_names_[name] = cf->id;
  cfs_.push_back(std::move(cf));
  return cfs_.back()->id;
}

Result<ColumnFamilyId> DB::FindColumnFamily(const std::string& name) const {
  auto it = cf_names_.find(name);
  if (it == cf_names_.end()) return Status::NotFound("cf " + name);
  return it->second;
}

Status DB::Put(ColumnFamilyId cf, const Slice& key, const Slice& value) {
  return Write(cf, ValueType::kValue, key, value);
}

Status DB::Delete(ColumnFamilyId cf, const Slice& key) {
  return Write(cf, ValueType::kDeletion, key, Slice());
}

Status DB::Write(ColumnFamilyId cf_id, ValueType type, const Slice& key,
                 const Slice& value) {
  if (cf_id >= cfs_.size()) return Status::InvalidArgument("bad cf");
  ColumnFamily* cf = cfs_[cf_id].get();
  cf->mem->Add(++sequence_, type, key, value);
  return MaybeFlush(cf);
}

Status DB::MaybeFlush(ColumnFamily* cf) {
  if (cf->mem->ApproximateMemoryUsage() < options_.memtable_bytes) {
    return Status::OK();
  }
  // C0 full: flush it inline (single-threaded engine, no background jobs).
  return Flush(cf->id);
}

Status DB::FlushMemTable(ColumnFamily* cf, const MemTable& mem) {
  if (mem.empty()) return Status::OK();
  SstBuilder builder(storage_, options_.sst);
  auto iter = mem.NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    builder.Add(iter->key(), iter->value());
  }
  HNDP_ASSIGN_OR_RETURN(FileMetaData meta, builder.Finish());
  HNDP_RETURN_IF_ERROR(OpenReader(meta));
  // No merge on flush to C1 (paper Sect. 2.2): files may overlap there.
  cf->version.levels[0].push_back(meta);
  ++stats_.flushes;
  return Status::OK();
}

Status DB::Flush(ColumnFamilyId cf_id) {
  if (cf_id >= cfs_.size()) return Status::InvalidArgument("bad cf");
  ColumnFamily* cf = cfs_[cf_id].get();
  // A fresh MemTable replaces C0 only once the flush succeeded; a failed
  // flush keeps every row in C0, and the next write retries it.
  if (!cf->mem->empty()) {
    HNDP_RETURN_IF_ERROR(FlushMemTable(cf, *cf->mem));
    cf->mem = std::make_unique<MemTable>();
  }
  return MaybeCompact(cf);
}

Status DB::FlushAll() {
  for (auto& cf : cfs_) {
    HNDP_RETURN_IF_ERROR(Flush(cf->id));
  }
  return Status::OK();
}

uint64_t DB::LevelTargetBytes(int level) const {
  // levels[0] is C1 and is governed by file count, not bytes.
  double target = static_cast<double>(options_.l1_target_bytes);
  for (int i = 1; i < level; ++i) target *= kLevelMultiplier;
  return static_cast<uint64_t>(target);
}

Status DB::MaybeCompact(ColumnFamily* cf) {
  bool progress = true;
  while (progress) {
    progress = false;
    if (static_cast<int>(cf->version.levels[0].size()) >=
        kL0CompactionTrigger) {
      HNDP_RETURN_IF_ERROR(CompactLevel(cf, 0));
      progress = true;
      continue;
    }
    for (int level = 1; level < kNumLevels - 1; ++level) {
      if (cf->version.LevelBytes(level) > LevelTargetBytes(level)) {
        HNDP_RETURN_IF_ERROR(CompactLevel(cf, level));
        progress = true;
        break;
      }
    }
  }
  return Status::OK();
}

Status DB::CompactAll(ColumnFamilyId cf_id) {
  if (cf_id >= cfs_.size()) return Status::InvalidArgument("bad cf");
  ColumnFamily* cf = cfs_[cf_id].get();
  // Push everything down level by level until only compaction-stable state
  // remains (used by loaders to reach a realistic steady LSM shape).
  HNDP_RETURN_IF_ERROR(Flush(cf_id));
  while (!cf->version.levels[0].empty()) {
    HNDP_RETURN_IF_ERROR(CompactLevel(cf, 0));
  }
  return MaybeCompact(cf);
}

std::vector<size_t> DB::OverlappingFiles(const ColumnFamily& cf, int level,
                                         const Slice& smallest,
                                         const Slice& largest) const {
  std::vector<size_t> out;
  if (level >= static_cast<int>(cf.version.levels.size())) return out;
  const auto& files = cf.version.levels[level];
  for (size_t i = 0; i < files.size(); ++i) {
    if (files[i].LargestUserKey().compare(smallest) < 0) continue;
    if (files[i].SmallestUserKey().compare(largest) > 0) continue;
    out.push_back(i);
  }
  return out;
}

Status DB::CompactLevel(ColumnFamily* cf, int level) {
  auto& src_files = cf->version.levels[level];
  if (src_files.empty()) return Status::OK();

  // Pick inputs: all of C1 for level 0; one round-robin file otherwise.
  std::vector<size_t> src_idx;
  if (level == 0) {
    for (size_t i = 0; i < src_files.size(); ++i) src_idx.push_back(i);
  } else {
    src_idx.push_back(cf->compaction_cursor % src_files.size());
    ++cf->compaction_cursor;
  }

  std::string smallest, largest;
  for (size_t i : src_idx) {
    const auto& f = src_files[i];
    if (smallest.empty() || f.SmallestUserKey().compare(Slice(smallest)) < 0) {
      smallest = f.SmallestUserKey().ToString();
    }
    if (largest.empty() || f.LargestUserKey().compare(Slice(largest)) > 0) {
      largest = f.LargestUserKey().ToString();
    }
  }
  const int target = level + 1;
  std::vector<size_t> dst_idx =
      OverlappingFiles(*cf, target, Slice(smallest), Slice(largest));

  // Merge all inputs newest-to-oldest. C1 files: newest was flushed last.
  std::vector<IteratorPtr> inputs;
  std::vector<FileMetaData> consumed;
  for (auto it = src_idx.rbegin(); it != src_idx.rend(); ++it) {
    const FileMetaData& meta = src_files[*it];
    consumed.push_back(meta);
    inputs.push_back(readers_.Get(meta)->NewIterator(nullptr, nullptr));
  }
  for (size_t i : dst_idx) {
    const FileMetaData& meta = cf->version.levels[target][i];
    consumed.push_back(meta);
    inputs.push_back(readers_.Get(meta)->NewIterator(nullptr, nullptr));
  }

  MergingIterator merged(std::move(inputs), nullptr);
  merged.SeekToFirst();

  const bool bottommost = (target == kNumLevels - 1);
  std::vector<FileMetaData> outputs;
  std::unique_ptr<SstBuilder> builder;
  std::string prev_user_key;
  bool has_prev = false;
  const uint64_t max_output_bytes = LevelTargetBytes(target) / 4 + (1 << 16);

  while (merged.Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged.key(), &parsed)) {
      return Status::Corruption("compaction: bad key");
    }
    const bool same_as_prev =
        has_prev && parsed.user_key == Slice(prev_user_key);
    if (!same_as_prev) {
      prev_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_prev = true;
      // Keep only the newest version; drop tombstones at the bottom level.
      const bool drop =
          (parsed.type == ValueType::kDeletion) && bottommost;
      if (!drop) {
        if (builder == nullptr) {
          builder = std::make_unique<SstBuilder>(storage_, options_.sst);
        }
        builder->Add(merged.key(), merged.value());
        stats_.compacted_bytes += merged.key().size() + merged.value().size();
        if (builder->EstimatedSize() >= max_output_bytes) {
          HNDP_ASSIGN_OR_RETURN(FileMetaData meta, builder->Finish());
          HNDP_RETURN_IF_ERROR(OpenReader(meta));
          outputs.push_back(meta);
          builder.reset();
        }
      }
    }
    merged.Next();
  }
  if (builder != nullptr && builder->num_entries() > 0) {
    HNDP_ASSIGN_OR_RETURN(FileMetaData meta, builder->Finish());
    HNDP_RETURN_IF_ERROR(OpenReader(meta));
    outputs.push_back(meta);
  }

  // Install: remove consumed files, add outputs to the target level sorted.
  auto remove_by_id = [this](std::vector<FileMetaData>* files,
                             const std::vector<FileMetaData>& victims) {
    files->erase(std::remove_if(files->begin(), files->end(),
                                [&](const FileMetaData& f) {
                                  for (const auto& v : victims) {
                                    if (v.file_id == f.file_id) return true;
                                  }
                                  return false;
                                }),
                 files->end());
    for (const auto& v : victims) {
      readers_.Erase(v.file_id);
      storage_->RemoveFile(v.file_id);
    }
  };
  remove_by_id(&cf->version.levels[level], consumed);
  remove_by_id(&cf->version.levels[target], consumed);
  auto& dst = cf->version.levels[target];
  dst.insert(dst.end(), outputs.begin(), outputs.end());
  std::sort(dst.begin(), dst.end(),
            [](const FileMetaData& a, const FileMetaData& b) {
              return Slice(a.smallest).compare(Slice(b.smallest)) < 0;
            });
  ++stats_.compactions;
  return Status::OK();
}

Status DB::OpenReader(const FileMetaData& meta) {
  auto reader = std::make_unique<SstReader>(storage_, meta);
  // No context: decoding charges nothing. Charged reads find the index
  // pinned, so no run's simulated time depends on an earlier run's touch.
  HNDP_RETURN_IF_ERROR(reader->EnsureOpened(nullptr, nullptr));
  readers_.Add(std::move(reader));
  return Status::OK();
}

void DB::ExportMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("lsm.db.flushes")->Set(stats_.flushes);
  metrics->counter("lsm.db.compactions")->Set(stats_.compactions);
  metrics->counter("lsm.db.compacted_bytes")->Set(stats_.compacted_bytes);
  uint64_t files = 0, file_bytes = 0, entries = 0;
  for (const auto& cf : cfs_) {
    for (const auto& level : cf->version.levels) {
      files += level.size();
      for (const auto& meta : level) {
        file_bytes += meta.file_size;
        entries += meta.num_entries;
      }
    }
  }
  metrics->counter("lsm.db.live_files")->Set(files);
  metrics->counter("lsm.db.live_file_bytes")->Set(file_bytes);
  metrics->counter("lsm.db.live_entries")->Set(entries);

  uint64_t block_reads = 0, block_read_bytes = 0, cache_hits = 0,
           index_loads = 0, pinned_seeks = 0;
  readers_.ForEach([&](const SstReader& reader) {
    const SstReadStats& rs = reader.read_stats();
    block_reads += rs.block_reads.load(std::memory_order_relaxed);
    block_read_bytes += rs.block_read_bytes.load(std::memory_order_relaxed);
    cache_hits += rs.block_cache_hits.load(std::memory_order_relaxed);
    index_loads += rs.index_loads.load(std::memory_order_relaxed);
    pinned_seeks += rs.pinned_index_seeks.load(std::memory_order_relaxed);
  });
  metrics->counter("lsm.sst.block_reads")->Set(block_reads);
  metrics->counter("lsm.sst.block_read_bytes")->Set(block_read_bytes);
  metrics->counter("lsm.sst.block_cache_hits")->Set(cache_hits);
  metrics->counter("lsm.sst.index_loads")->Set(index_loads);
  metrics->counter("lsm.sst.pinned_index_seeks")->Set(pinned_seeks);
}

const Version& DB::GetVersion(ColumnFamilyId cf) const {
  static const Version kEmpty;
  if (cf >= cfs_.size()) return kEmpty;
  return cfs_[cf]->version;
}

Status DB::Get(const ReadOptions& opts, ColumnFamilyId cf_id, const Slice& key,
               Slice* value) const {
  if (cf_id >= cfs_.size()) return Status::InvalidArgument("bad cf");
  const ColumnFamily& cf = *cfs_[cf_id];
  return SnapshotGet(*cf.mem, cf.version, readers_, opts, key, value);
}

Status SnapshotGet(const MemTable& mem, const Version& version,
                   const ReaderTable& readers, const ReadOptions& opts,
                   const Slice& key, Slice* value) {
  const LookupKey lookup(key, opts.snapshot);
  bool deleted = false;
  if (mem.Get(lookup, value, &deleted, opts.ctx)) {
    return deleted ? Status::NotFound() : Status::OK();
  }
  if (version.levels.empty()) return Status::NotFound();
  auto probe = [&](const FileMetaData& file) {
    return readers.Get(file)->Get(opts.ctx, opts.cache, lookup, value,
                                  &deleted);
  };
  // C1: overlapping, search newest (last flushed) first.
  const auto& l0 = version.levels[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    Status s = probe(*it);
    if (s.ok()) return deleted ? Status::NotFound() : Status::OK();
    if (!s.IsNotFound()) return s;
  }
  // C2..Ck: at most one candidate file per level.
  for (size_t level = 1; level < version.levels.size(); ++level) {
    const auto& files = version.levels[level];
    // Binary search the first file whose largest user key >= key.
    auto pos = std::lower_bound(
        files.begin(), files.end(), key,
        [](const FileMetaData& f, const Slice& k) {
          return CompareUserKey(f.LargestUserKey(), k) < 0;
        });
    if (pos == files.end()) continue;
    if (CompareUserKey(pos->SmallestUserKey(), key) > 0) continue;
    Status s = probe(*pos);
    if (s.ok()) return deleted ? Status::NotFound() : Status::OK();
    if (!s.IsNotFound()) return s;
  }
  return Status::NotFound();
}

namespace {

/// Concatenating iterator over the sorted, non-overlapping files of one
/// level (C2..Ck). One SstIterator, held by value, is re-pointed at file
/// after file. It refers to the level's file list and the reader table, so
/// it must not outlive either.
class LevelConcatIterator final : public Iterator {
 public:
  LevelConcatIterator(const std::vector<FileMetaData>& files,
                      const ReaderTable& readers, sim::AccessContext* ctx,
                      BlockCache* cache)
      : files_(files),
        readers_(readers),
        ctx_(ctx),
        cache_(cache),
        file_iter_(ctx, cache) {}

  bool Valid() const override { return file_open_ && file_iter_.Valid(); }

  void SeekToFirst() override {
    status_ = Status::OK();
    index_ = 0;
    if (OpenCurrent()) file_iter_.SeekToFirst();
    SkipExhausted();
  }

  void Seek(const Slice& target) override {
    status_ = Status::OK();
    const Slice user = ExtractUserKey(target);
    auto pos = std::lower_bound(files_.begin(), files_.end(), user,
                                [](const FileMetaData& f, const Slice& k) {
                                  return f.LargestUserKey().compare(k) < 0;
                                });
    index_ = static_cast<size_t>(pos - files_.begin());
    if (OpenCurrent()) file_iter_.Seek(target);
    SkipExhausted();
  }

  void Next() override {
    file_iter_.Next();
    if (!file_iter_.Valid()) SkipExhausted();
  }

  Slice key() const override { return file_iter_.key(); }
  Slice value() const override { return file_iter_.value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    return file_open_ ? file_iter_.status() : Status::OK();
  }

  BlockIter* block_cursor() override {
    return file_open_ ? file_iter_.block_cursor() : nullptr;
  }
  void NextBlock() override {
    file_iter_.NextBlock();
    if (!file_iter_.Valid()) SkipExhausted();
  }

 private:
  /// Point file_iter_ at files_[index_]. False past the last file, or when
  /// the file's reader fails to open (the error is latched).
  bool OpenCurrent() {
    file_open_ = false;
    if (index_ >= files_.size()) return false;
    SstReader* reader = readers_.Get(files_[index_]);
    Status s = reader->EnsureOpened(ctx_, cache_);
    if (!s.ok()) {
      status_ = std::move(s);
      return false;
    }
    file_iter_.Reset(reader);
    file_open_ = true;
    return true;
  }

  void SkipExhausted() {
    while (file_open_ && !file_iter_.Valid()) {
      // An errored file iterator is NOT exhausted: advancing past it would
      // silently drop records (the scan would "finish" clean with a
      // partial result). Latch the error and stop; status() keeps
      // reporting it until the next re-seek.
      Status s = file_iter_.status();
      if (!s.ok()) {
        status_ = std::move(s);
        return;
      }
      ++index_;
      if (OpenCurrent()) file_iter_.SeekToFirst();
    }
  }

  const std::vector<FileMetaData>& files_;
  const ReaderTable& readers_;
  sim::AccessContext* ctx_;
  BlockCache* cache_;
  size_t index_ = 0;
  SstIterator file_iter_;
  bool file_open_ = false;  ///< file_iter_ points at files_[index_]
  Status status_;  ///< latched file error (survives the skip loop)
};

/// User-key view over an internal-key iterator: collapses versions and hides
/// tombstones at a given snapshot. value(), and each view NextValues hands
/// out, points into the SST file or the MemTable arena and stays valid until
/// the next pull; the simulated copy of every visible record is charged all
/// the same.
///
/// One visibility loop, FindVisible, serves every call. Its step moves the
/// block cursor of the merge's sole live child directly, which is the
/// common case of a compacted store with an empty MemTable, and goes
/// through the merge otherwise. The loop counts its per-entry charges and
/// every public call pays them before it returns (DESIGN.md §10 rule 4).
class UserKeyIterator final : public Iterator {
 public:
  UserKeyIterator(std::unique_ptr<MergingIterator> inner, SequenceNumber seq,
                  sim::AccessContext* ctx)
      : inner_(std::move(inner)), seq_(seq), ctx_(ctx) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    status_ = Status::OK();
    inner_->SeekToFirst();
    Attach();
    FindVisible(/*skip_current=*/false);
    PayCharges();
  }

  void Seek(const Slice& user_target) override {
    status_ = Status::OK();
    lookup_.SetLookupKey(user_target, seq_);
    inner_->Seek(lookup_.slice());
    Attach();
    FindVisible(/*skip_current=*/false);
    PayCharges();
  }

  void Next() override {
    FindVisible(/*skip_current=*/true);
    PayCharges();
  }

  size_t NextValues(size_t max, Slice* values) override {
    size_t n = 0;
    Slice value = value_;
    while (n < max && valid_) {
      values[n++] = value;
      value = FindVisible(/*skip_current=*/true);
    }
    PayCharges();
    return n;
  }

  Slice key() const override { return key_.slice(); }
  Slice value() const override { return value_; }
  Status status() const override {
    return status_.ok() ? inner_->status() : status_;
  }

 private:
  /// Move to the next visible row. With `skip_current`, the entries of
  /// user key key_ (the row just returned) go first. Every entry passed
  /// over counts one internal-key compare; the row found counts one more
  /// and the copy of its key and value out of the block. That is the
  /// per-record work of the paper's device profile (Table 4: memcmp and
  /// compare internal keys). Returns value_, so that a caller handing the
  /// value on takes it in registers instead of reloading the member just
  /// stored (a load that straddles two fresh stores stalls).
  Slice FindVisible(bool skip_current) {
    // Whether the cursor stepped, inside its block, off an entry of user
    // key key_. Then the entry shares its first bytes with key_, and
    // CursorOnKey and TakeUserKey read only its own bytes, in the block,
    // not the cursor's key buffer, which was written a moment ago and
    // would stall a load that straddles those stores.
    bool after_key = false;
    if (skip_current && valid_) {
      // The iterator sits on the row just returned: step over it.
      ++compares_;
      after_key = Step();
    }
    valid_ = false;
    while (inner_->Valid()) {
      const Slice ikey = cursor_ != nullptr ? cursor_->key() : inner_->key();
      if (ikey.size() < 8) break;  // Corruption, below
      if (skip_current &&
          (after_key ? CursorOnKey()
                     : SameUserKey(ExtractUserKey(ikey), key_.slice()))) {
        ++compares_;
        after_key = Step();
        continue;
      }
      skip_current = false;
      ParsedInternalKey parsed;
      if (!ParseInternalKey(ikey, &parsed)) break;
      if (parsed.sequence > seq_) {  // newer than the snapshot
        ++compares_;
        Step();
        after_key = false;
        continue;
      }
      // The key is copied because the skip above compares against it after
      // the cursor has moved; KeyBuffer keeps short keys inline.
      TakeUserKey(parsed.user_key, after_key);
      if (parsed.type == ValueType::kDeletion) {
        // Step over the tombstone, then over the older versions of its key.
        ++compares_;
        after_key = Step();
        skip_current = true;
        continue;
      }
      value_ = cursor_ != nullptr ? cursor_->value() : inner_->value();
      ++compares_;
      if (!value_.empty()) CountCopy(key_.size() + value_.size());
      valid_ = true;
      return value_;
    }
    if (inner_->Valid()) {
      // Stepping over the key could hide a flipped tombstone or drop a
      // row: end the scan with the error, like SstReader::Get does.
      status_ = Status::Corruption("bad internal key");
    }
    return Slice();
  }

  /// Whether the cursor's entry, one step inside its block past an entry of
  /// user key key_, has user key key_ too. Its first shared() bytes are that
  /// entry's, so only its own bytes need comparing.
  bool CursorOnKey() const {
    const size_t s = cursor_->shared();
    const Slice own = cursor_->unshared();
    const size_t n = key_.size();
    if (s + own.size() != n + 8) return false;
    const char* want = key_.slice().data();
    for (size_t i = s; i < n; ++i) {
      if (own[i - s] != want[i]) return false;
    }
    return true;
  }

  /// Make key_ the cursor entry's user key, `user_key`. One step inside a
  /// block past an entry of user key key_, the entry shares its first
  /// shared() bytes with key_, so only the rest is copied, from the block.
  void TakeUserKey(const Slice& user_key, bool after_key) {
    if (after_key) {
      const size_t s = cursor_->shared();
      if (s <= key_.size() && s <= user_key.size()) {
        key_.Truncate(s);
        key_.Append(cursor_->unshared().data(), user_key.size() - s);
        return;
      }
    }
    key_.Assign(user_key);
  }

  /// Advance one internal entry: on the sole child's block cursor while it
  /// has entries left, else through the merge. Returns whether it stepped
  /// inside a block, so that cursor_'s entry follows the one it left.
  bool Step() {
    if (cursor_ != nullptr) {
      cursor_->Next();
      if (cursor_->Valid()) return true;
    }
    StepThroughMerge();
    return false;
  }

  /// Step's way past the end of a block, or without a block cursor.
  void StepThroughMerge() {
    if (cursor_ != nullptr) {
      sole_->NextBlock();
      inner_->Resync();
    } else {
      inner_->Next();
    }
    Attach();
  }

  /// Pick up the block cursor of the merge's sole live child, if any.
  void Attach() {
    sole_ = inner_->sole_child();
    cursor_ = sole_ != nullptr ? sole_->block_cursor() : nullptr;
  }

  /// Copies of equal size are paid together; a new size pays the run.
  void CountCopy(uint64_t bytes) {
    if (bytes != copy_bytes_) {
      if (ctx_ != nullptr) ctx_->ChargeCopyRepeated(copy_bytes_, copies_);
      copy_bytes_ = bytes;
      copies_ = 0;
    }
    ++copies_;
  }

  /// Pay the counted charges: ChargeRepeated(k, u, n) is bit-identical to n
  /// calls of Charge(k, u).
  void PayCharges() {
    if (ctx_ != nullptr) {
      ctx_->ChargeRepeated(sim::CostKind::kCompareInternalKeys, 1, compares_);
      ctx_->ChargeCopyRepeated(copy_bytes_, copies_);
    }
    compares_ = 0;
    copies_ = 0;
  }

  std::unique_ptr<MergingIterator> inner_;  ///< concrete: calls skip a vtable
  SequenceNumber seq_;
  sim::AccessContext* ctx_;
  Iterator* sole_ = nullptr;     ///< the merge's sole live child, if any
  BlockIter* cursor_ = nullptr;  ///< sole_'s block cursor, while it has entries
  bool valid_ = false;
  KeyBuffer key_;  ///< user key of the current row
  Slice value_;
  KeyBuffer lookup_;  ///< Seek target, reused across seeks
  Status status_;  ///< latched corruption (survives until the next seek)
  uint64_t compares_ = 0;    ///< kCompareInternalKeys 1 each, not yet paid
  uint64_t copy_bytes_ = 0;  ///< size of the unpaid run of equal copies
  uint64_t copies_ = 0;      ///< length of that run
};

}  // namespace

IteratorPtr NewSnapshotIterator(const MemTable& mem, const Version& version,
                                const ReaderTable& readers,
                                const ReadOptions& opts) {
  std::vector<IteratorPtr> children;
  children.push_back(mem.NewIterator(opts.ctx));
  if (!version.levels.empty()) {
    for (const auto& f : version.levels[0]) {
      children.push_back(readers.Get(f)->NewIterator(opts.ctx, opts.cache));
    }
    for (size_t level = 1; level < version.levels.size(); ++level) {
      if (version.levels[level].empty()) continue;
      children.push_back(std::make_unique<LevelConcatIterator>(
          version.levels[level], readers, opts.ctx, opts.cache));
    }
  }
  return std::make_unique<UserKeyIterator>(
      std::make_unique<MergingIterator>(std::move(children), opts.ctx),
      opts.snapshot, opts.ctx);
}

IteratorPtr DB::NewIterator(const ReadOptions& opts, ColumnFamilyId cf_id) const {
  if (cf_id >= cfs_.size()) return std::make_unique<EmptyIterator>();
  const ColumnFamily& cf = *cfs_[cf_id];
  return NewSnapshotIterator(*cf.mem, cf.version, readers_, opts);
}

CfSnapshot DB::GetCfSnapshot(ColumnFamilyId cf_id) const {
  CfSnapshot snap;
  if (cf_id >= cfs_.size()) return snap;
  const ColumnFamily* cf = cfs_[cf_id].get();
  snap.sequence = sequence_;
  snap.mem = cf->mem.get();
  snap.version = cf->version;
  return snap;
}

}  // namespace hybridndp::lsm
