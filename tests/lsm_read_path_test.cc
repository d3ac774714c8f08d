// Pins the LSM read path: the exact simulated charges of scans, seeks and
// point lookups on a fixed DB, the BlockCache's LRU order against a naive
// model, and the merge's compare count when children run out.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/merge_iterator.h"
#include "lsm/sst.h"
#include "lsm/storage.h"
#include "sim/cost.h"
#include "sim/hw_model.h"

namespace hybridndp::lsm {
namespace {

using sim::AccessContext;
using sim::Actor;
using sim::CostKind;
using sim::HwParams;
using sim::IoPath;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%03d", i);
  return buf;
}

/// Internal key that seeks to the newest version of `user_key`.
std::string SeekKey(const std::string& user_key) {
  std::string k;
  AppendInternalKey(&k, user_key, kMaxSequenceNumber, ValueType::kValue);
  return k;
}

/// Every charge of one context plus its cache's hit/miss tally.
struct Charges {
  std::array<uint64_t, sim::kNumCostKinds> units;
  std::array<SimPicos, sim::kNumCostKinds> time_ps;
  uint64_t cache_hits;
  uint64_t cache_misses;
};

void ExpectCharges(const AccessContext& ctx, const BlockCache& cache,
                   const Charges& want) {
  const sim::CostCounters& got = ctx.counters();
  for (int k = 0; k < sim::kNumCostKinds; ++k) {
    const char* name = sim::CostKindName(static_cast<CostKind>(k));
    EXPECT_EQ(got.units[k], want.units[k]) << name << " units";
    EXPECT_EQ(got.time_ps[k], want.time_ps[k]) << name << " time_ps";
  }
  EXPECT_EQ(cache.hits(), want.cache_hits);
  EXPECT_EQ(cache.misses(), want.cache_misses);
  if (::testing::Test::HasFailure()) {
    std::string units, times;
    for (int k = 0; k < sim::kNumCostKinds; ++k) {
      units += std::to_string(got.units[k]) + ", ";
      times += std::to_string(got.time_ps[k]) + ", ";
    }
    ADD_FAILURE() << "actual: {{" << units << "}, {" << times << "}, "
                  << cache.hits() << ", " << cache.misses() << "}";
  }
}

/// A fixed store: k000..k199 compacted into C2, an overwrite of k050, a
/// tombstone for k120 and k200..k219 in one C1 file, and k300..k309 plus a
/// second overwrite of k010 in the MemTable. Small blocks give every file
/// several of them.
class ReadPathGoldenTest : public ::testing::Test {
 protected:
  ReadPathGoldenTest() : hw_(HwParams::PaperDefaults()), storage_(&hw_) {
    DBOptions opts;
    opts.sst.block_size = 256;
    db_ = std::make_unique<DB>(&storage_, opts);
    cf_ = db_->CreateColumnFamily("golden");
    for (int i = 0; i < 200; ++i) Put(Key(i), "c2-" + std::to_string(i * 7));
    EXPECT_TRUE(db_->CompactAll(cf_).ok());
    Put(Key(50), "c1-overwrite");
    EXPECT_TRUE(db_->Delete(cf_, Key(120)).ok());
    for (int i = 200; i < 220; ++i) Put(Key(i), "c1-" + std::to_string(i));
    EXPECT_TRUE(db_->Flush(cf_).ok());
    for (int i = 300; i < 310; ++i) Put(Key(i), "mem-" + std::to_string(i));
    Put(Key(10), "mem-overwrite");

    const Version& v = db_->GetVersion(cf_);
    EXPECT_EQ(v.levels[0].size(), 1u);  // C1
    EXPECT_GE(v.levels[1].size(), 1u);  // C2
  }

  void Put(const std::string& k, const std::string& v) {
    EXPECT_TRUE(db_->Put(cf_, k, v).ok());
  }

  /// The reads both sides run: a full scan, a Seek plus five rows, and Gets
  /// that hit each component, hit a tombstone, miss inside a file's range
  /// (past the bloom filter on the host, through the file on the device)
  /// and miss outside every range.
  void RunReads(const std::function<IteratorPtr()>& new_iter,
                const std::function<Status(const Slice&, Slice*)>& get) {
    auto iter = new_iter();
    int rows = 0;
    std::string concat;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ++rows;
      concat += iter->key().ToString() + "=" + iter->value().ToString() + ";";
    }
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
    EXPECT_EQ(rows, 199 + 20 + 10);
    EXPECT_NE(concat.find("k010=mem-overwrite;"), std::string::npos);
    EXPECT_NE(concat.find("k050=c1-overwrite;"), std::string::npos);
    EXPECT_EQ(concat.find("k120="), std::string::npos);

    iter->Seek("k118");
    std::vector<std::string> seen;
    for (int i = 0; i < 5 && iter->Valid(); ++i, iter->Next()) {
      seen.push_back(iter->key().ToString());
    }
    EXPECT_EQ(seen, (std::vector<std::string>{"k118", "k119", "k121", "k122",
                                              "k123"}));

    Slice value;
    ASSERT_TRUE(get("k305", &value).ok());
    EXPECT_EQ(value, "mem-305");
    ASSERT_TRUE(get("k010", &value).ok());
    EXPECT_EQ(value, "mem-overwrite");
    ASSERT_TRUE(get("k050", &value).ok());
    EXPECT_EQ(value, "c1-overwrite");
    ASSERT_TRUE(get("k210", &value).ok());
    EXPECT_EQ(value, "c1-210");
    ASSERT_TRUE(get("k100", &value).ok());
    EXPECT_EQ(value, "c2-700");
    EXPECT_TRUE(get("k120", &value).IsNotFound());
    EXPECT_TRUE(get("k0505", &value).IsNotFound());
    EXPECT_TRUE(get("k999", &value).IsNotFound());
  }

  HwParams hw_;
  VirtualStorage storage_;
  std::unique_ptr<DB> db_;
  ColumnFamilyId cf_ = 0;
};

TEST_F(ReadPathGoldenTest, HostChargesArePinned) {
  AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
  BlockCache cache(2048);
  ReadOptions opts;
  opts.ctx = &ctx;
  opts.cache = &cache;
  RunReads([&] { return db_->NewIterator(opts, cf_); },
           [&](const Slice& k, Slice* v) { return db_->Get(opts, cf_, k, v); });
  ExpectCharges(ctx, cache,
                Charges{{0, 991, 6, 0, 12, 21341, 0, 0, 0, 2458, 0, 0, 0},
                        {0, 1524397, 346152, 0, 461544, 241224242, 0, 0, 0,
                         307250, 0, 0, 0},
                        3,
                        23});
}

TEST_F(ReadPathGoldenTest, DeviceChargesArePinned) {
  AccessContext ctx(&hw_, Actor::kDevice, IoPath::kInternal);
  BlockCache cache(2048);
  const CfSnapshot snap = db_->GetCfSnapshot(cf_);
  // The device opens its own readers, charging each index load.
  ReaderTable readers;
  readers.AddFiles(&storage_, snap.version);
  ReadOptions opts;
  opts.ctx = &ctx;
  opts.cache = &cache;
  opts.snapshot = snap.sequence;
  RunReads(
      [&] {
        return NewSnapshotIterator(*snap.mem, snap.version, readers, opts);
      },
      [&](const Slice& k, Slice* v) {
        return SnapshotGet(*snap.mem, snap.version, readers, opts, k, v);
      });
  ExpectCharges(ctx, cache,
                Charges{{0, 1002, 9, 0, 18, 70493, 0, 0, 0, 2458, 0, 0, 0},
                        {0, 24035976, 8095950, 0, 10794600, 109021120, 0, 0,
                         0, 3072500, 0, 0, 0},
                        5,
                        26});
}

/// The obvious LRU: a vector, most recent first.
class NaiveLru {
 public:
  explicit NaiveLru(uint64_t capacity) : capacity_(capacity) {}

  bool Lookup(FileId file, uint64_t offset) {
    auto it = Find(file, offset);
    if (it == entries_.end()) return false;
    std::rotate(entries_.begin(), it, it + 1);
    return true;
  }

  void Insert(FileId file, uint64_t offset, uint64_t bytes) {
    auto it = Find(file, offset);
    if (it != entries_.end()) {
      std::rotate(entries_.begin(), it, it + 1);
      return;
    }
    if (bytes > capacity_) return;
    entries_.insert(entries_.begin(), Entry{file, offset, bytes});
    used_ += bytes;
    while (used_ > capacity_) {
      used_ -= entries_.back().bytes;
      entries_.pop_back();
    }
  }

  uint64_t used_bytes() const { return used_; }

 private:
  struct Entry {
    FileId file;
    uint64_t offset;
    uint64_t bytes;
  };
  std::vector<Entry>::iterator Find(FileId file, uint64_t offset) {
    return std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return e.file == file && e.offset == offset;
    });
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::vector<Entry> entries_;
};

TEST(BlockCacheModelTest, MatchesNaiveLruStepByStep) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    const uint64_t capacity = 64 * 1024;
    BlockCache cache(capacity);
    NaiveLru model(capacity);
    uint64_t hits = 0, misses = 0;
    for (int step = 0; step < 20000; ++step) {
      // Few files and offsets, so keys repeat; sizes from 1 byte to above
      // the capacity, so evictions remove one or many entries.
      const FileId file = 1 + rng.Uniform(4);
      const uint64_t offset = 512 * rng.Uniform(96);
      const uint64_t size_class = rng.Uniform(10);
      const uint64_t bytes = size_class == 0   ? 1 + rng.Uniform(64)
                             : size_class == 9 ? capacity / 2 +
                                                     rng.Uniform(capacity)
                                               : 512 + rng.Uniform(8192);
      if (rng.Uniform(3) == 0) {
        cache.Insert(file, offset, bytes);
        model.Insert(file, offset, bytes);
      } else {
        const bool hit = model.Lookup(file, offset);
        ASSERT_EQ(cache.Lookup(file, offset), hit)
            << "seed " << seed << " step " << step;
        (hit ? hits : misses)++;
      }
      ASSERT_EQ(cache.used_bytes(), model.used_bytes())
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_GT(hits, 300u);
  }
}

TEST(MergeIteratorTest, ExhaustedChildrenReturnOnReseek) {
  // a: b e    b: a c f g h    c: d   -- the merge runs c dry first, then a.
  MemTable a, b, c;
  SequenceNumber seq = 0;
  for (const char* k : {"b", "e"}) a.Add(++seq, ValueType::kValue, k, "a");
  for (const char* k : {"a", "c", "f", "g", "h"}) {
    b.Add(++seq, ValueType::kValue, k, "b");
  }
  c.Add(++seq, ValueType::kValue, "d", "c");
  std::vector<IteratorPtr> children;
  children.push_back(a.NewIterator());
  children.push_back(b.NewIterator());
  children.push_back(c.NewIterator());
  HwParams hw = HwParams::PaperDefaults();
  AccessContext ctx(&hw, Actor::kDevice, IoPath::kInternal);
  MergingIterator merged(std::move(children), &ctx);

  auto drain = [&merged] {
    std::string out;
    for (; merged.Valid(); merged.Next()) {
      out += ExtractUserKey(merged.key()).ToString();
      out += merged.value().ToString();
    }
    return out;
  };
  auto compares = [&ctx] {
    return ctx.counters().Units(CostKind::kCompareInternalKeys);
  };

  // One compare per valid child beyond the first at every step:
  // 2+2+2+2 while all three are live, 1 after c ends, 0 after a ends.
  merged.SeekToFirst();
  EXPECT_EQ(drain(), "abbacbdceafbgbhb");
  EXPECT_EQ(compares(), 9u);
  EXPECT_FALSE(merged.Valid());
  EXPECT_TRUE(merged.status().ok());

  // The seek brings every child back: 2 at the seek, 2 after c, 1 after d.
  merged.Seek(Slice(SeekKey("c")));
  EXPECT_EQ(drain(), "cbdceafbgbhb");
  EXPECT_EQ(compares(), 9u + 5u);

  // A seek past one child's end leaves that child out from the start.
  merged.Seek(Slice(SeekKey("e")));
  EXPECT_EQ(drain(), "eafbgbhb");
  EXPECT_EQ(compares(), 9u + 5u + 1u);

  merged.SeekToFirst();
  EXPECT_EQ(drain(), "abbacbdceafbgbhb");
  EXPECT_EQ(compares(), 9u + 5u + 1u + 9u);
}

}  // namespace
}  // namespace hybridndp::lsm
