// Unit + integration tests for the LSM substrate: memtable, blocks, SSTs,
// compaction, column families, iterators, snapshots, and cost charging.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "lsm/block.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/merge_iterator.h"
#include "lsm/sst.h"
#include "lsm/storage.h"
#include "sim/hw_model.h"

namespace hybridndp::lsm {
namespace {

using sim::AccessContext;
using sim::Actor;
using sim::CostKind;
using sim::HwParams;
using sim::IoPath;

std::string IKey(const std::string& user, SequenceNumber seq,
                 ValueType t = ValueType::kValue) {
  std::string k;
  AppendInternalKey(&k, user, seq, t);
  return k;
}

TEST(InternalKeyTest, ParseRoundTrip) {
  std::string k = IKey("hello", 42, ValueType::kValue);
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(Slice(k), &parsed));
  EXPECT_EQ(parsed.user_key.ToString(), "hello");
  EXPECT_EQ(parsed.sequence, 42u);
  EXPECT_EQ(parsed.type, ValueType::kValue);
}

TEST(InternalKeyTest, OrderingUserAscSeqDesc) {
  // Same user key: higher sequence sorts first.
  EXPECT_LT(CompareInternalKey(IKey("a", 5), IKey("a", 3)), 0);
  // Different user keys dominate.
  EXPECT_LT(CompareInternalKey(IKey("a", 1), IKey("b", 100)), 0);
  // Deletion vs value at same seq boundary.
  EXPECT_GT(CompareInternalKey(IKey("b", 1), IKey("a", 1)), 0);
}

TEST(MemTableTest, AddGetNewestVersionWins) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(2, ValueType::kValue, "k", "v2");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("k", kMaxSequenceNumber, &value, &deleted, nullptr));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v2");
}

TEST(MemTableTest, SnapshotVisibility) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(5, ValueType::kValue, "k", "v5");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("k", 3, &value, &deleted, nullptr));
  EXPECT_EQ(value, "v1");  // seq 5 invisible at snapshot 3
}

TEST(MemTableTest, DeletionVisible) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(2, ValueType::kDeletion, "k", "");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("k", kMaxSequenceNumber, &value, &deleted, nullptr));
  EXPECT_TRUE(deleted);
}

TEST(MemTableTest, MissingKey) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "a", "v");
  std::string value;
  bool deleted = false;
  EXPECT_FALSE(mem.Get("b", kMaxSequenceNumber, &value, &deleted, nullptr));
}

TEST(MemTableTest, IteratorSortedOrder) {
  MemTable mem;
  Rng rng(42);
  std::set<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    std::string k = rng.NextString(8);
    keys.insert(k);
    mem.Add(i + 1, ValueType::kValue, k, "v");
  }
  auto iter = mem.NewIterator();
  std::string prev;
  size_t count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string uk = ExtractUserKey(iter->key()).ToString();
    if (!prev.empty()) {
      EXPECT_LE(prev, uk);
    }
    prev = uk;
    ++count;
  }
  EXPECT_EQ(count, 500u);  // all entries, duplicates included
}

TEST(MemTableTest, IteratorSeek) {
  MemTable mem;
  for (int i = 0; i < 100; i += 2) {
    char buf[8];
    snprintf(buf, sizeof(buf), "k%03d", i);
    mem.Add(i + 1, ValueType::kValue, buf, "v");
  }
  auto iter = mem.NewIterator();
  iter->Seek(Slice(IKey("k005", kMaxSequenceNumber)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "k006");
}

TEST(BlockTest, BuildAndScan) {
  BlockBuilder builder(4);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    entries.push_back({IKey(buf, 1), "value" + std::to_string(i)});
  }
  for (const auto& [k, v] : entries) builder.Add(k, v);
  std::string data = builder.Finish();

  BlockReader reader((Slice(data)));
  auto iter = reader.NewIterator();
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++i) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(iter->key().ToString(), entries[i].first);
    EXPECT_EQ(iter->value().ToString(), entries[i].second);
  }
  EXPECT_EQ(i, entries.size());
}

TEST(BlockTest, SeekFindsFirstGreaterOrEqual) {
  BlockBuilder builder(4);
  for (int i = 0; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    builder.Add(IKey(buf, 1), "v");
  }
  std::string data = builder.Finish();
  BlockReader reader((Slice(data)));
  auto iter = reader.NewIterator();

  iter->Seek(Slice(IKey("key0013", kMaxSequenceNumber)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "key0014");

  iter->Seek(Slice(IKey("key0000", kMaxSequenceNumber)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "key0000");

  iter->Seek(Slice(IKey("key9999", kMaxSequenceNumber)));
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, EmptyAndCorruptBlocksAreSafe) {
  BlockReader empty(Slice("", 0));
  auto it = empty.NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());

  BlockReader garbage(Slice("ab", 2));
  auto it2 = garbage.NewIterator();
  it2->SeekToFirst();
  EXPECT_FALSE(it2->Valid());
}

class SstTest : public ::testing::Test {
 protected:
  SstTest() : hw_(HwParams::PaperDefaults()), storage_(&hw_) {}

  FileMetaData BuildFile(int num_keys, int start = 0, int step = 1) {
    SstBuilder builder(&storage_, SstOptions{});
    for (int i = 0; i < num_keys; ++i) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%06d", start + i * step);
      builder.Add(IKey(buf, 1), "value" + std::to_string(start + i * step));
    }
    auto meta = builder.Finish();
    EXPECT_TRUE(meta.ok());
    return *meta;
  }

  HwParams hw_;
  VirtualStorage storage_;
};

TEST_F(SstTest, PointLookupHitAndMiss) {
  FileMetaData meta = BuildFile(1000);
  SstReader reader(&storage_, meta);
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(reader.Get(nullptr, nullptr, "key000500", kMaxSequenceNumber,
                         &value, &deleted).ok());
  EXPECT_EQ(value, "value500");
  EXPECT_TRUE(reader.Get(nullptr, nullptr, "nokey", kMaxSequenceNumber,
                         &value, &deleted).IsNotFound());
}

TEST_F(SstTest, FencePointersPruneOutOfRange) {
  FileMetaData meta = BuildFile(100, 1000);
  SstReader reader(&storage_, meta);
  EXPECT_TRUE(reader.OutsideKeyRange("key000001"));
  EXPECT_TRUE(reader.OutsideKeyRange("key999999"));
  EXPECT_FALSE(reader.OutsideKeyRange("key001050"));
}

TEST_F(SstTest, FullScanReturnsAllInOrder) {
  FileMetaData meta = BuildFile(5000);
  SstReader reader(&storage_, meta);
  auto iter = reader.NewIterator(nullptr, nullptr);
  int count = 0;
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string uk = ExtractUserKey(iter->key()).ToString();
    if (!prev.empty()) {
      EXPECT_LT(prev, uk);
    }
    prev = uk;
    ++count;
  }
  EXPECT_EQ(count, 5000);
  EXPECT_EQ(meta.num_entries, 5000u);
}

TEST_F(SstTest, IteratorSeekMidFile) {
  FileMetaData meta = BuildFile(1000, 0, 2);  // even keys
  SstReader reader(&storage_, meta);
  auto iter = reader.NewIterator(nullptr, nullptr);
  iter->Seek(Slice(IKey("key000101", kMaxSequenceNumber)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "key000102");
}

TEST_F(SstTest, ReadsChargeFlashCosts) {
  FileMetaData meta = BuildFile(2000);
  SstReader reader(&storage_, meta);
  AccessContext ctx(&hw_, Actor::kDevice, IoPath::kInternal);
  auto iter = reader.NewIterator(&ctx, nullptr);
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  EXPECT_GT(ctx.counters().Units(CostKind::kFlashLoad), 0u);
  EXPECT_GT(ctx.now(), 0.0);
}

TEST_F(SstTest, HostPathCostsMoreThanDevicePath) {
  FileMetaData meta = BuildFile(5000);
  SstReader r1(&storage_, meta);
  SstReader r2(&storage_, meta);
  AccessContext dev(&hw_, Actor::kDevice, IoPath::kInternal);
  AccessContext host(&hw_, Actor::kHost, IoPath::kBlk);
  {
    auto iter = r1.NewIterator(&dev, nullptr);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  {
    auto iter = r2.NewIterator(&host, nullptr);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  // Device-internal flash access is faster than host via BLK stack
  // (flash-only time; CPU costs differ the other way).
  EXPECT_LT(dev.counters().Time(CostKind::kFlashLoad),
            host.counters().Time(CostKind::kFlashLoad));
}

TEST_F(SstTest, BlockCacheAbsorbsRepeatedReads) {
  FileMetaData meta = BuildFile(2000);
  SstReader reader(&storage_, meta);
  BlockCache cache(64 << 20);
  AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
  {
    auto iter = reader.NewIterator(&ctx, &cache);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  const auto cold_flash = ctx.counters().Units(CostKind::kFlashLoad);
  {
    auto iter = reader.NewIterator(&ctx, &cache);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  const auto warm_flash = ctx.counters().Units(CostKind::kFlashLoad);
  EXPECT_EQ(cold_flash, warm_flash);  // second scan fully cached
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(SstTest, OversizedEntriesEachGetTheirOwnBlock) {
  // Regression: an entry bigger than the whole block-size target must still
  // be emitted (one-entry block), and it must not drag the preceding or
  // following small entries into a mis-sized block.
  SstOptions opts;
  opts.block_size = 64;
  SstBuilder builder(&storage_, opts);
  const std::string big_value(200, 'x');  // > block_size on its own
  builder.Add(IKey("a_small", 1), "v1");
  builder.Add(IKey("b_big", 1), big_value);
  builder.Add(IKey("c_big", 1), big_value);
  builder.Add(IKey("d_small", 1), "v2");
  auto meta = builder.Finish();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_entries, 4u);

  SstReader reader(&storage_, *meta);
  std::string value;
  bool deleted = false;
  for (const auto& [k, v] :
       std::map<std::string, std::string>{{"a_small", "v1"},
                                          {"b_big", big_value},
                                          {"c_big", big_value},
                                          {"d_small", "v2"}}) {
    ASSERT_TRUE(reader.Get(nullptr, nullptr, k, kMaxSequenceNumber, &value,
                           &deleted)
                    .ok())
        << k;
    EXPECT_EQ(value, v) << k;
    EXPECT_FALSE(deleted);
  }
  auto iter = reader.NewIterator(nullptr, nullptr);
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
  EXPECT_EQ(count, 4);
}

TEST_F(SstTest, FirstAddOversizedStillEmitsOneEntryBlock) {
  SstOptions opts;
  opts.block_size = 64;
  SstBuilder builder(&storage_, opts);
  builder.Add(IKey("only", 1), std::string(500, 'y'));
  auto meta = builder.Finish();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_entries, 1u);
  SstReader reader(&storage_, *meta);
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(reader.Get(nullptr, nullptr, "only", kMaxSequenceNumber, &value,
                         &deleted)
                  .ok());
  EXPECT_EQ(value, std::string(500, 'y'));
}

TEST_F(SstTest, PinnedIndexServesSeeksAfterSingleLoad) {
  FileMetaData meta = BuildFile(2000);
  SstReader reader(&storage_, meta);
  std::string value;
  bool deleted = false;
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i * 37);
    ASSERT_TRUE(reader.Get(nullptr, nullptr, buf, kMaxSequenceNumber, &value,
                           &deleted)
                    .ok());
  }
  // The serialized index was decoded exactly once; every Get's index seek
  // was answered from the pinned decoded form.
  EXPECT_EQ(reader.read_stats().index_loads.load(), 1u);
  EXPECT_EQ(reader.read_stats().pinned_index_seeks.load(), 50u);
}

TEST(BlockCacheTest, EvictsLruBeyondCapacity) {
  BlockCache cache(100);
  cache.Insert(1, 0, 60);
  cache.Insert(1, 60, 60);  // evicts (1,0)
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_TRUE(cache.Lookup(1, 60));
  EXPECT_LE(cache.used_bytes(), 100u);
}

TEST(BlockCacheTest, LookupRefreshesRecency) {
  BlockCache cache(100);
  cache.Insert(1, 0, 40);
  cache.Insert(1, 40, 40);
  EXPECT_TRUE(cache.Lookup(1, 0));  // refresh
  cache.Insert(1, 80, 40);          // evicts (1,40), not (1,0)
  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 40));
}

TEST(BlockCacheTest, EraseFileDropsAllItsBlocks) {
  BlockCache cache(1000);
  cache.Insert(1, 0, 10);
  cache.Insert(2, 0, 10);
  cache.EraseFile(1);
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_TRUE(cache.Lookup(2, 0));
}

TEST_F(SstTest, CorruptFooterRejected) {
  FileMetaData meta = BuildFile(100);
  // Clobber the magic number in a copied file.
  const std::string* contents = storage_.FileContents(meta.file_id);
  ASSERT_NE(contents, nullptr);
  std::string corrupted = *contents;
  corrupted[corrupted.size() - 1] ^= 0x5a;
  FileMetaData bad = meta;
  bad.file_id = storage_.AddFile(std::move(corrupted));
  SstReader reader(&storage_, bad);
  std::string value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr, "key000050", kMaxSequenceNumber,
                        &value, &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  auto iter = reader.NewIterator(nullptr, nullptr);
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(SstTest, TruncatedFileRejected) {
  FileMetaData meta = BuildFile(100);
  const std::string* contents = storage_.FileContents(meta.file_id);
  FileMetaData bad = meta;
  bad.file_id = storage_.AddFile(contents->substr(0, 16));  // far too short
  SstReader reader(&storage_, bad);
  std::string value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr, "key000050", kMaxSequenceNumber,
                        &value, &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(SstTest, MissingFileSurfacesNotFound) {
  FileMetaData meta = BuildFile(100);
  storage_.RemoveFile(meta.file_id);
  SstReader reader(&storage_, meta);
  std::string value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr, "key000050", kMaxSequenceNumber,
                        &value, &deleted);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST_F(SstTest, UnknownValueTypeIsCorruptionNotARow) {
  // The middle key's type byte is neither kDeletion nor kValue, e.g. a
  // flipped tombstone: it must not read as a live row.
  std::string bad = "b";
  PutFixed64(&bad, (SequenceNumber{1} << 8) | 0x7f);
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(Slice(bad), &parsed));

  SstBuilder builder(&storage_, SstOptions{});
  builder.Add(IKey("a", 1), "va");
  builder.Add(bad, "vb");
  builder.Add(IKey("c", 1), "vc");
  auto meta = builder.Finish();
  ASSERT_TRUE(meta.ok());
  SstReader reader(&storage_, *meta);

  auto iter = NewUserKeyIterator(reader.NewIterator(nullptr, nullptr),
                                 kMaxSequenceNumber, nullptr);
  std::vector<std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen.push_back(iter->key().ToString());
  }
  EXPECT_EQ(seen, std::vector<std::string>{"a"});
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();

  std::string value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr, "b", kMaxSequenceNumber, &value,
                        &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

class DBTest : public ::testing::Test {
 protected:
  DBTest() : hw_(HwParams::PaperDefaults()), storage_(&hw_) {
    DBOptions opts;
    opts.memtable_bytes = 32 << 10;  // small, to force flushes
    opts.l1_target_bytes = 64 << 10;
    db_ = std::make_unique<DB>(&storage_, opts);
    cf_ = db_->CreateColumnFamily("default");
  }

  HwParams hw_;
  VirtualStorage storage_;
  std::unique_ptr<DB> db_;
  ColumnFamilyId cf_ = 0;
};

TEST_F(DBTest, PutGetRoundTrip) {
  ASSERT_TRUE(db_->Put(cf_, "alpha", "1").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions{}, cf_, "alpha", &value).ok());
  EXPECT_EQ(value, "1");
}

TEST_F(DBTest, GetMissingReturnsNotFound) {
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions{}, cf_, "nothing", &value).IsNotFound());
}

TEST_F(DBTest, DeleteHidesKeyAcrossFlush) {
  ASSERT_TRUE(db_->Put(cf_, "k", "v").ok());
  ASSERT_TRUE(db_->Flush(cf_).ok());
  ASSERT_TRUE(db_->Delete(cf_, "k").ok());
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions{}, cf_, "k", &value).IsNotFound());
  ASSERT_TRUE(db_->Flush(cf_).ok());
  EXPECT_TRUE(db_->Get(ReadOptions{}, cf_, "k", &value).IsNotFound());
}

TEST_F(DBTest, ManyKeysSurviveFlushesAndCompactions) {
  std::map<std::string, std::string> model;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    std::string k = "key" + std::to_string(rng.Uniform(5000));
    std::string v = "val" + std::to_string(i);
    model[k] = v;
    ASSERT_TRUE(db_->Put(cf_, k, v).ok());
  }
  ASSERT_TRUE(db_->Flush(cf_).ok());
  EXPECT_GT(db_->stats().flushes, 0u);
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(db_->Get(ReadOptions{}, cf_, k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
}

TEST_F(DBTest, IteratorMatchesModelAfterMixedWorkload) {
  std::map<std::string, std::string> model;
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    std::string k = "k" + std::to_string(rng.Uniform(2000));
    if (rng.Bernoulli(0.2)) {
      model.erase(k);
      ASSERT_TRUE(db_->Delete(cf_, k).ok());
    } else {
      std::string v = "v" + std::to_string(i);
      model[k] = v;
      ASSERT_TRUE(db_->Put(cf_, k, v).ok());
    }
  }
  auto iter = db_->NewIterator(ReadOptions{}, cf_);
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(iter->key().ToString(), mit->first);
    EXPECT_EQ(iter->value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(DBTest, IteratorSeekLandsOnLowerBound) {
  for (int i = 0; i < 100; i += 5) {
    char buf[8];
    snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE(db_->Put(cf_, buf, "v").ok());
  }
  ASSERT_TRUE(db_->Flush(cf_).ok());
  auto iter = db_->NewIterator(ReadOptions{}, cf_);
  iter->Seek("k012");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "k015");
}

TEST_F(DBTest, SnapshotIsolatesLaterWrites) {
  ASSERT_TRUE(db_->Put(cf_, "k", "old").ok());
  SequenceNumber snap = db_->LatestSequence();
  ASSERT_TRUE(db_->Put(cf_, "k", "new").ok());
  ASSERT_TRUE(db_->Put(cf_, "extra", "x").ok());

  ReadOptions opts;
  opts.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(opts, cf_, "k", &value).ok());
  EXPECT_EQ(value, "old");
  EXPECT_TRUE(db_->Get(opts, cf_, "extra", &value).IsNotFound());
}

TEST_F(DBTest, ColumnFamiliesAreIsolated) {
  ColumnFamilyId other = db_->CreateColumnFamily("secondary");
  ASSERT_TRUE(db_->Put(cf_, "k", "main").ok());
  ASSERT_TRUE(db_->Put(other, "k", "idx").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions{}, other, "k", &value).ok());
  EXPECT_EQ(value, "idx");
  ASSERT_TRUE(db_->Get(ReadOptions{}, cf_, "k", &value).ok());
  EXPECT_EQ(value, "main");
}

TEST_F(DBTest, CreateColumnFamilyIsIdempotent) {
  EXPECT_EQ(db_->CreateColumnFamily("x"), db_->CreateColumnFamily("x"));
  auto found = db_->FindColumnFamily("x");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(db_->FindColumnFamily("missing").status().IsNotFound());
}

TEST_F(DBTest, CompactAllReducesToStableShape) {
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        db_->Put(cf_, "key" + std::to_string(i % 4000), "v" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll(cf_).ok());
  const Version& v = db_->GetVersion(cf_);
  EXPECT_TRUE(v.levels[0].empty());  // C1 fully pushed down
  // Non-overlap invariant below C1.
  for (size_t level = 1; level < v.levels.size(); ++level) {
    for (size_t i = 1; i < v.levels[level].size(); ++i) {
      EXPECT_LT(v.levels[level][i - 1].LargestUserKey().compare(
                    v.levels[level][i].SmallestUserKey()),
                0);
    }
  }
  // Data still correct.
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions{}, cf_, "key123", &value).ok());
}

TEST_F(DBTest, ChargedGetIsIndependentOfEarlierReads) {
  // Every reader is opened when its file is installed, so the first charged
  // read of a file pays no index load that a later identical read skips.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_->Put(cf_, "key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactAll(cf_).ok());
  auto charged_get = [&] {
    AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
    ReadOptions opts;
    opts.ctx = &ctx;
    std::string value;
    EXPECT_TRUE(db_->Get(opts, cf_, "key1234", &value).ok());
    EXPECT_EQ(value, "v");
    return ctx.now();
  };
  const SimNanos first = charged_get();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(first, charged_get());
}

TEST_F(DBTest, CfSnapshotCarriesPlacementInfo) {
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_->Put(cf_, "key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush(cf_).ok());
  CfSnapshot snap = db_->GetCfSnapshot(cf_);
  EXPECT_EQ(snap.sequence, db_->LatestSequence());
  uint64_t files = 0;
  for (const auto& level : snap.version.levels) files += level.size();
  EXPECT_GT(files, 0u);
  // Each file has physical placement in storage.
  for (const auto& level : snap.version.levels) {
    for (const auto& f : level) {
      auto placement = storage_.Placement(f.file_id);
      ASSERT_TRUE(placement.ok());
      EXPECT_GT(placement->num_pages, 0u);
    }
  }
}

TEST_F(DBTest, SharedStateSnapshotSeesUnflushedWrites) {
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_->Put(cf_, "key" + std::to_string(i), "cold").ok());
  }
  ASSERT_TRUE(db_->Flush(cf_).ok());
  // Hot, unflushed update lives only in C0.
  ASSERT_TRUE(db_->Put(cf_, "key42", "hot").ok());

  CfSnapshot snap = db_->GetCfSnapshot(cf_);
  auto internal = NewSnapshotInternalIterator(
      snap, nullptr, nullptr, [&](const FileMetaData& meta) {
        return db_->GetReader(meta);
      });
  auto iter = NewUserKeyIterator(std::move(internal), snap.sequence, nullptr);
  iter->Seek("key42");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "key42");
  EXPECT_EQ(iter->value().ToString(), "hot");  // update-aware snapshot
}

TEST(MergeIteratorTest, InterleavesSortedChildren) {
  MemTable a, b;
  for (int i = 0; i < 100; i += 2) {
    a.Add(i + 1, ValueType::kValue, "k" + std::to_string(1000 + i), "a");
  }
  for (int i = 1; i < 100; i += 2) {
    b.Add(i + 1000, ValueType::kValue, "k" + std::to_string(1000 + i), "b");
  }
  std::vector<IteratorPtr> children;
  children.push_back(a.NewIterator());
  children.push_back(b.NewIterator());
  MergingIterator merged(std::move(children), nullptr);
  int count = 0;
  std::string prev;
  for (merged.SeekToFirst(); merged.Valid(); merged.Next()) {
    std::string uk = ExtractUserKey(merged.key()).ToString();
    if (!prev.empty()) {
      EXPECT_LT(prev, uk);
    }
    prev = uk;
    ++count;
  }
  EXPECT_EQ(count, 100);
}

// Property sweep: DB contents match a std::map model across block sizes and
// value sizes.
struct DbParam {
  uint32_t block_size;
  int value_len;
};

class DBPropertyTest : public ::testing::TestWithParam<DbParam> {};

TEST_P(DBPropertyTest, MatchesModel) {
  HwParams hw = HwParams::PaperDefaults();
  VirtualStorage storage(&hw);
  DBOptions opts;
  opts.memtable_bytes = 16 << 10;
  opts.l1_target_bytes = 32 << 10;
  opts.sst.block_size = GetParam().block_size;
  DB db(&storage, opts);
  auto cf = db.CreateColumnFamily("t");

  std::map<std::string, std::string> model;
  Rng rng(GetParam().block_size * 131 + GetParam().value_len);
  for (int i = 0; i < 5000; ++i) {
    std::string k = "key" + std::to_string(rng.Uniform(1500));
    if (rng.Bernoulli(0.15)) {
      model.erase(k);
      ASSERT_TRUE(db.Delete(cf, k).ok());
    } else {
      std::string v = rng.NextString(GetParam().value_len);
      model[k] = v;
      ASSERT_TRUE(db.Put(cf, k, v).ok());
    }
  }
  // Half the time, flush at the end too.
  if (rng.Bernoulli(0.5)) {
    ASSERT_TRUE(db.Flush(cf).ok());
  }

  // Point lookups.
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(db.Get(ReadOptions{}, cf, k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
  // Full scan matches model exactly.
  auto iter = db.NewIterator(ReadOptions{}, cf);
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(iter->key().ToString(), mit->first);
    EXPECT_EQ(iter->value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(
    BlockAndValueSizes, DBPropertyTest,
    ::testing::Values(DbParam{512, 16}, DbParam{1024, 64}, DbParam{4096, 16},
                      DbParam{4096, 200}, DbParam{16384, 64},
                      DbParam{65536, 500}));

}  // namespace
}  // namespace hybridndp::lsm
