#include "lsm/db.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "lsm/merge_iterator.h"
#include "obs/metrics.h"

namespace hybridndp::lsm {

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

uint64_t Version::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& level : levels) {
    for (const auto& f : level) total += f.num_entries;
  }
  return total;
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
  cf->version.levels.resize(options_.num_levels);
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
  // C0 full: make it immutable and start a fresh MemTable; flush immediately
  // (single-threaded engine, no background jobs).
  cf->immutables.push_back(std::move(cf->mem));
  cf->mem = std::make_unique<MemTable>();
  HNDP_RETURN_IF_ERROR(FlushMemTable(cf, *cf->immutables.back()));
  cf->immutables.pop_back();
  return MaybeCompact(cf);
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
  for (auto& imm : cf->immutables) {
    HNDP_RETURN_IF_ERROR(FlushMemTable(cf, *imm));
  }
  cf->immutables.clear();
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
  for (int i = 1; i < level; ++i) target *= options_.level_multiplier;
  return static_cast<uint64_t>(target);
}

Status DB::MaybeCompact(ColumnFamily* cf) {
  bool progress = true;
  while (progress) {
    progress = false;
    if (static_cast<int>(cf->version.levels[0].size()) >=
        options_.l0_compaction_trigger) {
      HNDP_RETURN_IF_ERROR(CompactLevel(cf, 0));
      progress = true;
      continue;
    }
    for (int level = 1; level < options_.num_levels - 1; ++level) {
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
    inputs.push_back(GetReader(meta)->NewIterator(nullptr, nullptr));
  }
  for (size_t i : dst_idx) {
    const FileMetaData& meta = cf->version.levels[target][i];
    consumed.push_back(meta);
    inputs.push_back(GetReader(meta)->NewIterator(nullptr, nullptr));
  }

  MergingIterator merged(std::move(inputs), nullptr);
  merged.SeekToFirst();

  const bool bottommost = (target == options_.num_levels - 1);
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
      readers_.erase(v.file_id);
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
  readers_[meta.file_id] = std::move(reader);
  return Status::OK();
}

SstReader* DB::GetReader(const FileMetaData& meta) const {
  auto it = readers_.find(meta.file_id);
  if (it == readers_.end()) {
    fprintf(stderr, "DB::GetReader: file %llu is not live\n",
            static_cast<unsigned long long>(meta.file_id));
    abort();
  }
  return it->second.get();
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
  for (const auto& [id, reader] : readers_) {
    (void)id;
    const SstReadStats& rs = reader->read_stats();
    block_reads += rs.block_reads.load(std::memory_order_relaxed);
    block_read_bytes += rs.block_read_bytes.load(std::memory_order_relaxed);
    cache_hits += rs.block_cache_hits.load(std::memory_order_relaxed);
    index_loads += rs.index_loads.load(std::memory_order_relaxed);
    pinned_seeks += rs.pinned_index_seeks.load(std::memory_order_relaxed);
  }
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
               std::string* value) const {
  if (cf_id >= cfs_.size()) return Status::InvalidArgument("bad cf");
  const ColumnFamily* cf = cfs_[cf_id].get();
  const SequenceNumber seq = opts.snapshot;
  bool deleted = false;

  if (cf->mem->Get(key, seq, value, &deleted, opts.ctx)) {
    return deleted ? Status::NotFound() : Status::OK();
  }
  for (auto it = cf->immutables.rbegin(); it != cf->immutables.rend(); ++it) {
    if ((*it)->Get(key, seq, value, &deleted, opts.ctx)) {
      return deleted ? Status::NotFound() : Status::OK();
    }
  }
  return GetFromLevels(cf->version, opts, key, value,
                       [this](const FileMetaData& meta) {
                         return GetReader(meta);
                       });
}

Status GetFromLevels(
    const Version& version, const ReadOptions& opts, const Slice& key,
    std::string* value,
    const std::function<SstReader*(const FileMetaData&)>& reader_fn) {
  if (version.levels.empty()) return Status::NotFound();
  bool deleted = false;
  auto probe = [&](const FileMetaData& file) {
    return reader_fn(file)->Get(opts.ctx, opts.cache, key, opts.snapshot,
                                value, &deleted, opts.use_bloom);
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
          return f.LargestUserKey().compare(k) < 0;
        });
    if (pos == files.end()) continue;
    if (pos->SmallestUserKey().compare(key) > 0) continue;
    Status s = probe(*pos);
    if (s.ok()) return deleted ? Status::NotFound() : Status::OK();
    if (!s.IsNotFound()) return s;
  }
  return Status::NotFound();
}

namespace {

/// Concatenating iterator over the sorted, non-overlapping files of one
/// level (C2..Ck).
class LevelConcatIterator final : public Iterator {
 public:
  LevelConcatIterator(std::vector<FileMetaData> files,
                      std::function<SstReader*(const FileMetaData&)> reader_fn,
                      sim::AccessContext* ctx, BlockCache* cache)
      : files_(std::move(files)),
        reader_fn_(std::move(reader_fn)),
        ctx_(ctx),
        cache_(cache) {}

  bool Valid() const override {
    return file_iter_ != nullptr && file_iter_->Valid();
  }

  void SeekToFirst() override {
    status_ = Status::OK();
    index_ = 0;
    OpenCurrent();
    if (file_iter_ != nullptr) file_iter_->SeekToFirst();
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
    OpenCurrent();
    if (file_iter_ != nullptr) file_iter_->Seek(target);
    SkipExhausted();
  }

  void Next() override {
    file_iter_->Next();
    SkipExhausted();
  }

  Slice key() const override { return file_iter_->key(); }
  Slice value() const override { return file_iter_->value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    return file_iter_ != nullptr ? file_iter_->status() : Status::OK();
  }

 private:
  void OpenCurrent() {
    file_iter_.reset();
    if (index_ >= files_.size()) return;
    file_iter_ = reader_fn_(files_[index_])->NewIterator(ctx_, cache_);
  }

  void SkipExhausted() {
    while (file_iter_ != nullptr && !file_iter_->Valid()) {
      // An errored file iterator is NOT exhausted: advancing past it would
      // destroy the failed iterator and silently drop records (the scan
      // would "finish" clean with a partial result). Latch the error and
      // stop; status() keeps reporting it until the next re-seek.
      Status s = file_iter_->status();
      if (!s.ok()) {
        status_ = std::move(s);
        return;
      }
      ++index_;
      OpenCurrent();
      if (file_iter_ != nullptr) file_iter_->SeekToFirst();
    }
  }

  std::vector<FileMetaData> files_;
  std::function<SstReader*(const FileMetaData&)> reader_fn_;
  sim::AccessContext* ctx_;
  BlockCache* cache_;
  size_t index_ = 0;
  IteratorPtr file_iter_;
  Status status_;  ///< latched file-iterator error (survives the skip loop)
};

/// User-key view over an internal-key iterator: collapses versions and hides
/// tombstones at a given snapshot.
class UserKeyIterator final : public Iterator {
 public:
  UserKeyIterator(IteratorPtr inner, SequenceNumber seq,
                  sim::AccessContext* ctx)
      : inner_(std::move(inner)), seq_(seq), ctx_(ctx) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    status_ = Status::OK();
    inner_->SeekToFirst();
    FindNextVisible();
  }

  void Seek(const Slice& user_target) override {
    status_ = Status::OK();
    inner_->Seek(Slice(MakeLookupKey(user_target, seq_)));
    FindNextVisible();
  }

  void Next() override {
    SkipCurrentUserKey();
    FindNextVisible();
  }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }
  Status status() const override {
    return status_.ok() ? inner_->status() : status_;
  }

 private:
  void SkipCurrentUserKey() {
    while (inner_->Valid() &&
           ExtractUserKey(inner_->key()) == Slice(key_)) {
      ChargeStep(0);
      inner_->Next();
    }
  }

  /// Per-record iteration work: internal-key parse/compare plus copying the
  /// record out of the block (the dominant CPU share of the paper's
  /// device profile, Table 4: memcmp + compare internal keys).
  void ChargeStep(size_t value_bytes) {
    if (ctx_ == nullptr) return;
    ctx_->Charge(sim::CostKind::kCompareInternalKeys, 1);
    if (value_bytes > 0) {
      ctx_->ChargeCopy(key_.size() + value_bytes);
    }
  }

  void FindNextVisible() {
    valid_ = false;
    while (inner_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(inner_->key(), &parsed)) {
        // Stepping over the key could hide a flipped tombstone or drop a
        // row: end the scan with the error, like SstReader::Get does.
        status_ = Status::Corruption("bad internal key");
        return;
      }
      if (parsed.sequence > seq_) {  // newer than the snapshot
        ChargeStep(0);
        inner_->Next();
        continue;
      }
      if (parsed.type == ValueType::kDeletion) {
        key_.assign(parsed.user_key.data(), parsed.user_key.size());
        SkipCurrentUserKey();
        continue;
      }
      // assign() reuses the member strings' capacity; ToString() would
      // allocate a fresh temporary for every visible record.
      key_.assign(parsed.user_key.data(), parsed.user_key.size());
      const Slice v = inner_->value();
      value_.assign(v.data(), v.size());
      ChargeStep(value_.size());
      valid_ = true;
      return;
    }
  }

  IteratorPtr inner_;
  SequenceNumber seq_;
  sim::AccessContext* ctx_;
  bool valid_ = false;
  std::string key_;
  std::string value_;
  Status status_;  ///< latched corruption (survives until the next seek)
};

}  // namespace

IteratorPtr NewSnapshotInternalIterator(
    const CfSnapshot& snap, sim::AccessContext* ctx, BlockCache* cache,
    const std::function<SstReader*(const FileMetaData&)>& reader_fn) {
  std::vector<IteratorPtr> children;
  if (snap.mem != nullptr) children.push_back(snap.mem->NewIterator(ctx));
  for (auto it = snap.immutables.rbegin(); it != snap.immutables.rend(); ++it) {
    children.push_back((*it)->NewIterator(ctx));
  }
  if (!snap.version.levels.empty()) {
    for (const auto& f : snap.version.levels[0]) {
      children.push_back(reader_fn(f)->NewIterator(ctx, cache));
    }
    for (size_t level = 1; level < snap.version.levels.size(); ++level) {
      if (snap.version.levels[level].empty()) continue;
      children.push_back(std::make_unique<LevelConcatIterator>(
          snap.version.levels[level], reader_fn, ctx, cache));
    }
  }
  return std::make_unique<MergingIterator>(std::move(children), ctx);
}

IteratorPtr NewUserKeyIterator(IteratorPtr internal_iter, SequenceNumber seq,
                               sim::AccessContext* ctx) {
  return std::make_unique<UserKeyIterator>(std::move(internal_iter), seq, ctx);
}

IteratorPtr DB::NewIterator(const ReadOptions& opts, ColumnFamilyId cf_id) const {
  if (cf_id >= cfs_.size()) return std::make_unique<EmptyIterator>();
  CfSnapshot snap = GetCfSnapshot(cf_id);
  snap.sequence = opts.snapshot;
  auto internal = NewSnapshotInternalIterator(
      snap, opts.ctx, opts.cache,
      [this](const FileMetaData& meta) { return GetReader(meta); });
  return NewUserKeyIterator(std::move(internal), opts.snapshot, opts.ctx);
}

CfSnapshot DB::GetCfSnapshot(ColumnFamilyId cf_id) const {
  CfSnapshot snap;
  if (cf_id >= cfs_.size()) return snap;
  const ColumnFamily* cf = cfs_[cf_id].get();
  snap.cf = cf_id;
  snap.sequence = sequence_;
  snap.mem = cf->mem.get();
  for (const auto& imm : cf->immutables) snap.immutables.push_back(imm.get());
  snap.version = cf->version;
  return snap;
}

}  // namespace hybridndp::lsm
