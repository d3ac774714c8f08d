// Unit + integration tests for the LSM substrate: memtable, blocks, SSTs,
// compaction, column families, iterators, snapshots, and cost charging.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
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
  Slice value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get(LookupKey("k", kMaxSequenceNumber), &value, &deleted,
                      nullptr));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v2");
}

TEST(MemTableTest, SnapshotVisibility) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(5, ValueType::kValue, "k", "v5");
  Slice value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get(LookupKey("k", 3), &value, &deleted, nullptr));
  EXPECT_EQ(value, "v1");  // seq 5 invisible at snapshot 3
}

TEST(MemTableTest, DeletionVisible) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(2, ValueType::kDeletion, "k", "");
  Slice value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get(LookupKey("k", kMaxSequenceNumber), &value, &deleted,
                      nullptr));
  EXPECT_TRUE(deleted);
}

TEST(MemTableTest, MissingKey) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "a", "v");
  Slice value;
  bool deleted = false;
  EXPECT_FALSE(mem.Get(LookupKey("b", kMaxSequenceNumber), &value, &deleted,
                       nullptr));
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

/// Big-endian bytes of v: ascending v gives ascending keys.
std::string BigEndian64(uint64_t v) {
  std::string s(8, '\0');
  for (int i = 7; i >= 0; --i, v >>= 8) s[i] = static_cast<char>(v & 0xff);
  return s;
}

// Model test: a seeded stream of ascending runs past every key so far,
// ascending runs inside the key space, rewrites of the largest key (each
// sorts before its older version), and random keys and deletions of 1 to 14
// bytes over {0x00, 'a', 0x80, 0xfe} (so keys share prefixes, are prefixes
// of each other and differ in high bytes). The MemTable must iterate like a
// std::map of internal keys and answer Get at several snapshots like a
// per-key version list. The arena's reserved bytes after every 1 000
// inserts and the compares charged by a fixed set of Gets and Seeks are
// pinned: the first fixes the flush points of a DB, the second the
// skiplist's shape, and a faster insert path must move neither.
TEST(MemTableModelTest, MatchesModelAndKeepsShape) {
  struct Version {
    SequenceNumber seq;
    ValueType type;
    std::string value;
  };
  auto ikey_less = [](const std::string& a, const std::string& b) {
    return CompareInternalKey(a, b) < 0;
  };
  std::map<std::string, std::string, decltype(ikey_less)> entries(ikey_less);
  std::map<std::string, std::vector<Version>> versions;  // oldest first
  MemTable mem;
  Rng rng(2024);
  constexpr SequenceNumber kInserts = 20000;
  SequenceNumber seq = 0;
  uint64_t next_top = 0;
  std::string top;  // the largest user key so far
  std::vector<size_t> usage;
  auto add = [&](const std::string& key, ValueType type) {
    const std::string value = rng.NextString(rng.Uniform(24));
    mem.Add(++seq, type, key, value);
    versions[key].push_back({seq, type, value});
    entries.emplace(IKey(key, seq, type), value);
    if (seq % 1000 == 0) usage.push_back(mem.ApproximateMemoryUsage());
  };
  auto random_key = [&] {
    static const char kAlphabet[] = {'\0', 'a', '\x80', '\xfe'};
    std::string k(1 + rng.Uniform(14), '\0');
    for (char& c : k) c = kAlphabet[rng.Uniform(4)];
    return k;
  };
  while (seq < kInserts) {
    const uint64_t kind = rng.Uniform(4);
    const size_t run = 1 + rng.Uniform(64);
    const std::string prefix = random_key();
    for (size_t i = 0; i < run && seq < kInserts; ++i) {
      switch (kind) {
        case 0:  // past every key so far: "\xff\xff" beats every random key
          top = "\xff\xff" + BigEndian64(next_top++);
          add(top, ValueType::kValue);
          break;
        case 1:  // the largest key again, newest version first
          if (top.empty()) top = "\xff\xff" + BigEndian64(next_top++);
          add(top, rng.Uniform(4) == 0 ? ValueType::kDeletion
                                       : ValueType::kValue);
          break;
        case 2:  // ascending inside the key space
          add(prefix + BigEndian64(i).substr(4), ValueType::kValue);
          break;
        default:
          add(random_key(), rng.Uniform(5) == 0 ? ValueType::kDeletion
                                                : ValueType::kValue);
          break;
      }
    }
  }
  ASSERT_EQ(mem.num_entries(), kInserts);

  // Iteration order and contents.
  auto iter = mem.NewIterator();
  iter->SeekToFirst();
  for (const auto& [ikey, value] : entries) {
    ASSERT_TRUE(iter->Valid());
    ASSERT_EQ(iter->key().ToString(), ikey);
    ASSERT_EQ(iter->value().ToString(), value);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Get of every key and of absent ones at several snapshots.
  std::vector<std::string> lookups;
  for (const auto& [key, _] : versions) lookups.push_back(key);
  for (int i = 0; i < 500; ++i) lookups.push_back(random_key());
  for (SequenceNumber snap :
       {kInserts / 4, kInserts / 2, kInserts - 1, kMaxSequenceNumber}) {
    for (const std::string& key : lookups) {
      const Version* want = nullptr;
      auto it = versions.find(key);
      if (it != versions.end()) {
        for (const Version& v : it->second) {
          if (v.seq <= snap) want = &v;
        }
      }
      Slice value;
      bool deleted = false;
      const bool found = mem.Get(LookupKey(key, snap), &value, &deleted,
                                 nullptr);
      ASSERT_EQ(found, want != nullptr) << "snapshot " << snap;
      if (!found) continue;
      ASSERT_EQ(deleted, want->type == ValueType::kDeletion);
      if (!deleted) {
        ASSERT_EQ(value, want->value);
      }
    }
  }

  // Recorded while Add still encoded each entry into a temporary string and
  // always descended the skiplist.
  const std::vector<size_t> kUsage = {
      53352,  106704, 160056, 213408, 270864, 324216, 377568,
      430920, 484272, 541728, 595080, 644328, 697680, 751032,
      808488, 861840, 915192, 968544, 1021896, 1075248};
  EXPECT_EQ(usage, kUsage);

  HwParams hw = HwParams::PaperDefaults();
  AccessContext ctx(&hw, Actor::kDevice, IoPath::kInternal);
  auto compares = [&] {
    return ctx.counters().Units(CostKind::kCompareInternalKeys);
  };
  std::vector<uint64_t> get_units, seek_units;
  auto charged = mem.NewIterator(&ctx);
  for (size_t i = 0; i < 16; ++i) {
    const std::string& key = lookups[i * (versions.size() / 16)];
    Slice value;
    bool deleted = false;
    uint64_t before = compares();
    mem.Get(LookupKey(key, i % 2 == 0 ? kMaxSequenceNumber : kInserts / 2),
            &value, &deleted, &ctx);
    get_units.push_back(compares() - before);
    before = compares();
    charged->Seek(IKey(lookups[lookups.size() - 1 - i], kMaxSequenceNumber));
    seek_units.push_back(compares() - before);
  }
  const std::vector<uint64_t> kGetUnits = {10, 26, 18, 21, 32, 22, 23, 24,
                                           32, 27, 42, 26, 41, 51, 18, 12};
  const std::vector<uint64_t> kSeekUnits = {23, 28, 41, 21, 26, 25, 28, 22,
                                            32, 18, 32, 27, 27, 26, 34, 33};
  EXPECT_EQ(get_units, kGetUnits);
  EXPECT_EQ(seek_units, kSeekUnits);
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
  std::string data = builder.Finish().ToString();

  BlockIter iter;
  iter.Reset(Slice(data));
  size_t i = 0;
  for (iter.SeekToFirst(); iter.Valid(); iter.Next(), ++i) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(iter.key().ToString(), entries[i].first);
    EXPECT_EQ(iter.value().ToString(), entries[i].second);
  }
  EXPECT_EQ(i, entries.size());
  EXPECT_TRUE(iter.status().ok());
}

TEST(BlockTest, SeekFindsFirstGreaterOrEqual) {
  BlockBuilder builder(4);
  for (int i = 0; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    builder.Add(IKey(buf, 1), "v");
  }
  std::string data = builder.Finish().ToString();
  BlockIter iter;
  iter.Reset(Slice(data));

  iter.Seek(Slice(IKey("key0013", kMaxSequenceNumber)));
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(ExtractUserKey(iter.key()).ToString(), "key0014");

  iter.Seek(Slice(IKey("key0000", kMaxSequenceNumber)));
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(ExtractUserKey(iter.key()).ToString(), "key0000");

  iter.Seek(Slice(IKey("key9999", kMaxSequenceNumber)));
  EXPECT_FALSE(iter.Valid());
  EXPECT_TRUE(iter.status().ok());
}

/// Seek over random blocks against a sorted-vector model: the entry found
/// and the kCompareInternalKeys charged (binary-search steps over the
/// restarts plus one per entry the linear scan passes). Keys are 4-byte
/// user keys with several versions each, or user keys of mixed lengths
/// with shared prefixes, so both the in-place compare and its fallback run.
TEST(BlockTest, SeekMatchesAModel) {
  const HwParams hw = HwParams::PaperDefaults();
  Rng rng(77);
  constexpr int kInterval = 16;
  for (int round = 0; round < 40; ++round) {
    const bool fixed = round % 2 == 0;
    auto user_key = [&] {
      std::string u;
      const size_t n = fixed ? 4 : 1 + rng.Uniform(6);
      for (size_t i = 0; i < n; ++i) u.push_back("ab\x01\xff"[rng.Uniform(4)]);
      return u;
    };
    std::set<std::string, std::function<bool(const std::string&,
                                             const std::string&)>>
        keys([](const std::string& a, const std::string& b) {
          return CompareInternalKey(a, b) < 0;
        });
    const size_t n = 1 + rng.Uniform(200);
    while (keys.size() < n) {
      keys.insert(IKey(user_key(), 1 + rng.Uniform(5)));
    }
    const std::vector<std::string> sorted(keys.begin(), keys.end());
    BlockBuilder builder(kInterval);
    for (const std::string& k : sorted) builder.Add(k, "v");
    const std::string data = builder.Finish().ToString();

    for (int probe = 0; probe < 50; ++probe) {
      const std::string target = IKey(user_key(), rng.Uniform(7));
      // The model: the restart binary search, then a linear scan.
      const size_t restarts = (sorted.size() + kInterval - 1) / kInterval;
      size_t left = 0, right = restarts - 1;
      uint64_t compares = 0;
      while (left < right) {
        const size_t mid = (left + right + 1) / 2;
        ++compares;
        if (CompareInternalKey(sorted[mid * kInterval], target) < 0) {
          left = mid;
        } else {
          right = mid - 1;
        }
      }
      size_t pos = left * kInterval;
      while (pos < sorted.size() &&
             CompareInternalKey(sorted[pos], target) < 0) {
        ++compares;
        ++pos;
      }

      AccessContext ctx(&hw, Actor::kHost, IoPath::kNative);
      BlockIter iter(&ctx);
      iter.Reset(Slice(data));
      iter.Seek(Slice(target));
      ASSERT_TRUE(iter.status().ok());
      ASSERT_EQ(iter.Valid(), pos < sorted.size());
      if (iter.Valid()) {
        ASSERT_EQ(iter.key().ToString(), sorted[pos]);
      }
      ASSERT_EQ(ctx.counters().Units(CostKind::kCompareInternalKeys),
                compares);
      ASSERT_EQ(ctx.counters().Units(CostKind::kSeekDataBlock), 1u);
    }
  }
}

TEST(BlockTest, ResetRepointsTheCursor) {
  // One cursor walks two blocks in turn; Clear leaves it invalid and OK.
  std::string blocks[2];
  for (int b = 0; b < 2; ++b) {
    BlockBuilder builder(4);
    for (int i = 0; i < 10; ++i) {
      char buf[16];
      snprintf(buf, sizeof(buf), "b%dkey%04d", b, i);
      builder.Add(IKey(buf, 1), std::to_string(b));
    }
    blocks[b] = builder.Finish().ToString();
  }
  BlockIter iter;
  for (int b = 0; b < 2; ++b) {
    iter.Reset(Slice(blocks[b]));
    EXPECT_FALSE(iter.Valid());
    int n = 0;
    for (iter.SeekToFirst(); iter.Valid(); iter.Next(), ++n) {
      EXPECT_EQ(iter.value().ToString(), std::to_string(b));
    }
    EXPECT_EQ(n, 10);
  }
  iter.Reset(Slice("ab", 2));
  EXPECT_TRUE(iter.status().IsCorruption());
  iter.Clear();
  iter.SeekToFirst();
  EXPECT_FALSE(iter.Valid());
  EXPECT_TRUE(iter.status().ok());
}

TEST(BlockTest, RestartOffsetAtRestartArrayIsCorruption) {
  // 40 entries, restart interval 16: restarts at entries 0, 16 and 32.
  BlockBuilder builder(16);
  for (int i = 0; i < 40; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    builder.Add(IKey(buf, 1), "v");
  }
  std::string data = builder.Finish().ToString();
  const uint32_t num_restarts = DecodeFixed32(data.data() + data.size() - 4);
  ASSERT_EQ(num_restarts, 3u);
  const size_t restarts_offset = data.size() - 4 - 4 * num_restarts;

  // restart[0] -> the restart array itself: no row may silently vanish.
  std::string bad = data;
  EncodeFixed32(bad.data() + restarts_offset,
                static_cast<uint32_t>(restarts_offset));
  BlockIter iter;
  iter.Reset(Slice(bad));
  int rows = 0;
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) ++rows;
  EXPECT_EQ(rows, 0);
  EXPECT_TRUE(iter.status().IsCorruption()) << iter.status().ToString();

  // The same offset on a restart the binary search probes fails the seek.
  bad = data;
  EncodeFixed32(bad.data() + restarts_offset + 4,
                static_cast<uint32_t>(restarts_offset));
  iter.Reset(Slice(bad));
  iter.Seek(Slice(IKey("key0030", kMaxSequenceNumber)));
  EXPECT_FALSE(iter.Valid());
  EXPECT_TRUE(iter.status().IsCorruption()) << iter.status().ToString();

  // The last restart entry's key length runs past the entries.
  bad = data;
  const uint32_t restart2 = DecodeFixed32(data.data() + restarts_offset + 8);
  ASSERT_LT(restarts_offset - restart2, 0x7fu);
  bad[restart2 + 1] = 0x7f;  // non_shared
  iter.Reset(Slice(bad));
  iter.Seek(Slice(IKey("key0030", kMaxSequenceNumber)));
  EXPECT_FALSE(iter.Valid());
  EXPECT_TRUE(iter.status().IsCorruption()) << iter.status().ToString();
}

TEST(BlockTest, EmptyAndCorruptBlocksAreSafe) {
  BlockIter it;
  it.Reset(Slice("", 0));
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().IsCorruption());

  it.Reset(Slice("ab", 2));
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().IsCorruption());

  // A finished empty builder is a block without entries, not a corrupt one.
  BlockBuilder builder;
  const std::string no_entries = builder.Finish().ToString();
  it.Reset(Slice(no_entries));
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
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

  /// Location of the sparse index block, from the footer:
  /// fixed64 index_off | fixed64 index_sz | ... (36 bytes).
  static BlockHandle IndexHandle(const std::string& file) {
    const char* footer = file.data() + file.size() - 36;
    return {DecodeFixed64(footer), DecodeFixed64(footer + 8)};
  }

  /// Copy of `meta`'s file with `mutate` applied to its first data block.
  FileMetaData CopyWithBadFirstBlock(
      const FileMetaData& meta,
      const std::function<void(std::string* file, const BlockHandle& block)>&
          mutate) {
    std::string file = *storage_.FileContents(meta.file_id);
    const BlockHandle index_handle = IndexHandle(file);
    BlockIter index;
    index.Reset(Slice(file.data() + index_handle.offset, index_handle.size));
    index.SeekToFirst();
    EXPECT_TRUE(index.Valid());
    mutate(&file, BlockHandle::Decode(index.value()));
    FileMetaData bad = meta;
    bad.file_id = *storage_.AddFile(std::move(file));
    return bad;
  }

  /// A scan of `bad` must end with Corruption, not skip the bad block, and a
  /// Get of a key in that block must fail the same way.
  void ExpectFirstBlockCorruption(const FileMetaData& bad) {
    SstReader reader(&storage_, bad);
    auto iter = reader.NewIterator(nullptr, nullptr);
    uint64_t rows = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++rows;
    EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
    EXPECT_LT(rows, bad.num_entries);

    Slice value;
    bool deleted = false;
    Status s = reader.Get(nullptr, nullptr,
                          LookupKey("key000003", kMaxSequenceNumber), &value,
                          &deleted);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }

  HwParams hw_;
  VirtualStorage storage_;
};

TEST_F(SstTest, PointLookupHitAndMiss) {
  FileMetaData meta = BuildFile(1000);
  SstReader reader(&storage_, meta);
  Slice value;
  bool deleted = false;
  ASSERT_TRUE(reader.Get(nullptr, nullptr,
                         LookupKey("key000500", kMaxSequenceNumber), &value,
                         &deleted).ok());
  EXPECT_EQ(value, "value500");
  EXPECT_TRUE(reader.Get(nullptr, nullptr,
                         LookupKey("nokey", kMaxSequenceNumber), &value,
                         &deleted).IsNotFound());
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
  Slice value;
  bool deleted = false;
  for (const auto& [k, v] :
       std::map<std::string, std::string>{{"a_small", "v1"},
                                          {"b_big", big_value},
                                          {"c_big", big_value},
                                          {"d_small", "v2"}}) {
    ASSERT_TRUE(reader.Get(nullptr, nullptr, LookupKey(k, kMaxSequenceNumber),
                           &value, &deleted) .ok())
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
  Slice value;
  bool deleted = false;
  ASSERT_TRUE(reader.Get(nullptr, nullptr,
                         LookupKey("only", kMaxSequenceNumber), &value,
                         &deleted) .ok());
  EXPECT_EQ(value, std::string(500, 'y'));
}

TEST_F(SstTest, PinnedIndexServesSeeksAfterSingleLoad) {
  FileMetaData meta = BuildFile(2000);
  SstReader reader(&storage_, meta);
  Slice value;
  bool deleted = false;
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i * 37);
    ASSERT_TRUE(reader.Get(nullptr, nullptr, LookupKey(buf, kMaxSequenceNumber),
                           &value, &deleted) .ok());
  }
  // The serialized index was decoded exactly once; every Get's index seek
  // was answered from the pinned decoded form.
  EXPECT_EQ(reader.read_stats().index_loads.load(), 1u);
  EXPECT_EQ(reader.read_stats().pinned_index_seeks.load(), 50u);
}

// Eviction must be one exact LRU over the whole capacity, at byte scale and
// at MiB scale, where every block is a large share of a multi-MiB cache.
// Byte sizes in the checks below are multiples of `unit`.
void CheckEvictsLruBeyondCapacity(uint64_t unit) {
  BlockCache cache(100 * unit);
  cache.Insert(1, 0, 60 * unit);
  cache.Insert(1, 60 * unit, 60 * unit);  // evicts (1,0)
  EXPECT_FALSE(cache.Lookup(1, 0));
  EXPECT_TRUE(cache.Lookup(1, 60 * unit));
  EXPECT_EQ(cache.used_bytes(), 60 * unit);
}

void CheckLookupRefreshesRecency(uint64_t unit) {
  BlockCache cache(100 * unit);
  cache.Insert(1, 0, 40 * unit);
  cache.Insert(1, 40 * unit, 40 * unit);
  EXPECT_TRUE(cache.Lookup(1, 0));        // refresh
  cache.Insert(1, 80 * unit, 40 * unit);  // evicts (1,40), not (1,0)
  EXPECT_TRUE(cache.Lookup(1, 0));
  EXPECT_FALSE(cache.Lookup(1, 40 * unit));
  EXPECT_TRUE(cache.Lookup(1, 80 * unit));
}

TEST(BlockCacheTest, EvictsLruBeyondCapacity) {
  CheckEvictsLruBeyondCapacity(1);
}

TEST(BlockCacheTest, EvictsLruBeyondCapacityAtMiBScale) {
  CheckEvictsLruBeyondCapacity(uint64_t{1} << 20);
}

TEST(BlockCacheTest, LookupRefreshesRecency) { CheckLookupRefreshesRecency(1); }

TEST(BlockCacheTest, LookupRefreshesRecencyAtMiBScale) {
  CheckLookupRefreshesRecency(uint64_t{1} << 20);
}

TEST_F(SstTest, CorruptFooterRejected) {
  FileMetaData meta = BuildFile(100);
  // Clobber the magic number in a copied file.
  const std::string* contents = storage_.FileContents(meta.file_id);
  ASSERT_NE(contents, nullptr);
  std::string corrupted = *contents;
  corrupted[corrupted.size() - 1] ^= 0x5a;
  FileMetaData bad = meta;
  bad.file_id = *storage_.AddFile(std::move(corrupted));
  SstReader reader(&storage_, bad);
  Slice value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr,
                        LookupKey("key000050", kMaxSequenceNumber), &value,
                        &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  auto iter = reader.NewIterator(nullptr, nullptr);
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(SstTest, TruncatedFileRejected) {
  FileMetaData meta = BuildFile(100);
  const std::string* contents = storage_.FileContents(meta.file_id);
  FileMetaData bad = meta;
  bad.file_id = *storage_.AddFile(contents->substr(0, 16));  // far too short
  SstReader reader(&storage_, bad);
  Slice value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr,
                        LookupKey("key000050", kMaxSequenceNumber), &value,
                        &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(SstTest, CorruptEntryInDataBlockIsCorruption) {
  // The first entry's shared-prefix length points past an empty previous
  // key, so block 0 cannot be decoded.
  ExpectFirstBlockCorruption(CopyWithBadFirstBlock(
      BuildFile(2000),
      [](std::string* file, const BlockHandle& block) {
        (*file)[block.offset] = 0x7f;
      }));
}

TEST_F(SstTest, BadRestartCountInDataBlockIsCorruption) {
  ExpectFirstBlockCorruption(CopyWithBadFirstBlock(
      BuildFile(2000),
      [](std::string* file, const BlockHandle& block) {
        EncodeFixed32(file->data() + block.offset + block.size - 4,
                      0x7fffffff);
      }));
}

TEST_F(SstTest, BadIndexBlockTrailerIsCorruption) {
  // An undecodable sparse index must not open as an empty file.
  const FileMetaData meta = BuildFile(100);
  std::string file = *storage_.FileContents(meta.file_id);
  const BlockHandle index = IndexHandle(file);
  EncodeFixed32(file.data() + index.offset + index.size - 4, 0x7fffffff);
  FileMetaData bad = meta;
  bad.file_id = *storage_.AddFile(std::move(file));

  SstReader reader(&storage_, bad);
  Slice value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr,
                        LookupKey("key000050", kMaxSequenceNumber), &value,
                        &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  auto iter = reader.NewIterator(nullptr, nullptr);
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

TEST_F(SstTest, FooterRangesThatWrapAreCorruption) {
  // index_off + index_sz wraps past 2^64 to a small number: the footer must
  // still be rejected, not decoded from far outside the file.
  const FileMetaData meta = BuildFile(100);
  std::string file = *storage_.FileContents(meta.file_id);
  char* footer = file.data() + file.size() - 36;
  EncodeFixed64(footer, ~uint64_t{0} - 63);  // index_off = 2^64 - 64
  EncodeFixed64(footer + 8, 72);             // index_sz
  FileMetaData bad = meta;
  bad.file_id = *storage_.AddFile(std::move(file));

  SstReader reader(&storage_, bad);
  EXPECT_TRUE(reader.EnsureOpened(nullptr, nullptr).IsCorruption());
  Slice value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr,
                        LookupKey("key000050", kMaxSequenceNumber), &value,
                        &deleted);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // The same wrap on the bloom filter's range.
  file = *storage_.FileContents(meta.file_id);
  footer = file.data() + file.size() - 36;
  EncodeFixed64(footer + 16, ~uint64_t{0} - 7);
  EncodeFixed64(footer + 24, 16);
  bad.file_id = *storage_.AddFile(std::move(file));
  SstReader reader2(&storage_, bad);
  EXPECT_TRUE(reader2.EnsureOpened(nullptr, nullptr).IsCorruption());
}

TEST_F(SstTest, IndexEntryOutsideDataRegionIsCorruption) {
  const FileMetaData meta = BuildFile(2000);
  // Rewrite the first index entry's handle (its value, the last 16 bytes
  // before the second entry) to name a block past the data region.
  auto with_first_handle = [&](const std::function<void(char*)>& mutate) {
    std::string file = *storage_.FileContents(meta.file_id);
    const BlockHandle index = IndexHandle(file);
    BlockIter it;
    it.Reset(Slice(file.data() + index.offset, index.size));
    it.SeekToFirst();
    EXPECT_TRUE(it.Valid());
    mutate(const_cast<char*>(it.value().data()));
    FileMetaData bad = meta;
    bad.file_id = *storage_.AddFile(std::move(file));
    return bad;
  };
  const uint64_t index_off = IndexHandle(*storage_.FileContents(meta.file_id))
                                 .offset;
  const FileMetaData past_end = with_first_handle([&](char* h) {
    EncodeFixed64(h, index_off - 8);  // offset inside, size runs past
    EncodeFixed64(h + 8, 4096);
  });
  const FileMetaData wraps = with_first_handle([](char* h) {
    EncodeFixed64(h, ~uint64_t{0} - 15);
    EncodeFixed64(h + 8, 32);
  });
  for (const FileMetaData& bad : {past_end, wraps}) {
    SstReader reader(&storage_, bad);
    Status s = reader.EnsureOpened(nullptr, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

TEST_F(SstTest, IndexValueThatIsNotAHandleIsCorruption) {
  // A hand-built file: one data block, an index entry whose value is one
  // byte short of a 16-byte handle, an empty bloom filter, the footer.
  const std::string ikey = IKey("key000001", 1);
  BlockBuilder data_block(16);
  data_block.Add(ikey, "v");
  std::string file = data_block.Finish().ToString();
  std::string handle(BlockHandle::kEncodedLength, '\0');
  BlockHandle{0, file.size()}.EncodeTo(handle.data());
  handle.pop_back();
  BlockBuilder index_block(1);
  index_block.Add(ikey, handle);
  const uint64_t index_off = file.size();
  file += index_block.Finish().ToString();
  const uint64_t index_sz = file.size() - index_off;
  const uint64_t bloom_off = file.size();
  PutFixed64(&file, index_off);
  PutFixed64(&file, index_sz);
  PutFixed64(&file, bloom_off);
  PutFixed64(&file, 0);
  PutFixed32(&file, 0x6e644221);
  FileMetaData meta;
  meta.file_id = *storage_.AddFile(std::move(file));
  meta.smallest = meta.largest = ikey;
  meta.num_entries = 1;

  SstReader reader(&storage_, meta);
  Status s = reader.EnsureOpened(nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(SstTest, StorageReadRangeThatWrapsIsRejected) {
  const FileMetaData meta = BuildFile(10);
  AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
  auto rd = storage_.Read(&ctx, meta.file_id, 8, ~uint64_t{0} - 3, false);
  EXPECT_FALSE(rd.ok());
  EXPECT_EQ(ctx.now(), 0.0);  // rejected before anything is charged
}

TEST_F(SstTest, MissingFileSurfacesNotFound) {
  FileMetaData meta = BuildFile(100);
  storage_.RemoveFile(meta.file_id);
  SstReader reader(&storage_, meta);
  Slice value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr,
                        LookupKey("key000050", kMaxSequenceNumber), &value,
                        &deleted);
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

  MemTable mem;
  Version version;
  version.levels.resize(1);
  version.levels[0].push_back(*meta);
  ReaderTable readers;
  readers.AddFiles(&storage_, version);
  auto iter = NewSnapshotIterator(mem, version, readers, ReadOptions{});
  std::vector<std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen.push_back(iter->key().ToString());
  }
  EXPECT_EQ(seen, std::vector<std::string>{"a"});
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();

  Slice value;
  bool deleted = false;
  Status s = reader.Get(nullptr, nullptr, LookupKey("b", kMaxSequenceNumber),
                        &value, &deleted);
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
  Slice value;
  ASSERT_TRUE(db_->Get(ReadOptions{}, cf_, "alpha", &value).ok());
  EXPECT_EQ(value, "1");
}

TEST_F(DBTest, GetMissingReturnsNotFound) {
  Slice value;
  EXPECT_TRUE(db_->Get(ReadOptions{}, cf_, "nothing", &value).IsNotFound());
}

TEST_F(DBTest, DeleteHidesKeyAcrossFlush) {
  ASSERT_TRUE(db_->Put(cf_, "k", "v").ok());
  ASSERT_TRUE(db_->Flush(cf_).ok());
  ASSERT_TRUE(db_->Delete(cf_, "k").ok());
  Slice value;
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
    Slice got;
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
  Slice value;
  ASSERT_TRUE(db_->Get(opts, cf_, "k", &value).ok());
  EXPECT_EQ(value, "old");
  EXPECT_TRUE(db_->Get(opts, cf_, "extra", &value).IsNotFound());
}

TEST_F(DBTest, ColumnFamiliesAreIsolated) {
  ColumnFamilyId other = db_->CreateColumnFamily("secondary");
  ASSERT_TRUE(db_->Put(cf_, "k", "main").ok());
  ASSERT_TRUE(db_->Put(other, "k", "idx").ok());
  Slice value;
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
  Slice value;
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
    Slice value;
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
  ReaderTable readers;
  readers.AddFiles(&storage_, snap.version);
  ReadOptions opts;
  opts.snapshot = snap.sequence;
  auto iter = NewSnapshotIterator(*snap.mem, snap.version, readers, opts);
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
    Slice got;
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
