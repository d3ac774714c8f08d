// Pins the LSM scan where the merge has one live child: a compacted store
// with an empty MemTable, read through UserKeyIterator and TableScanOp on
// host and device contexts. Every CostKind's units and time, the block
// cache's hits and misses and a hash of the rows are golden values. Then
// checks that the batch pull (NextValues) is invisible: any pull size reads
// the same values with the same charges as the row-at-a-time loop, on
// random multi-version stores and up to a corrupt entry.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/operator.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "lsm/memtable.h"
#include "lsm/sst.h"
#include "lsm/storage.h"
#include "rel/table.h"
#include "sim/cost.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

using lsm::BlockCache;
using lsm::CfSnapshot;
using lsm::DB;
using lsm::FileMetaData;
using lsm::IteratorPtr;
using lsm::SequenceNumber;
using lsm::SstReader;
using lsm::ValueType;
using rel::CharCol;
using rel::IntCol;
using sim::AccessContext;
using sim::Actor;
using sim::CostKind;
using sim::HwParams;
using sim::IoPath;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%04d", i);
  return buf;
}

/// FNV-1a: a hash of the row sequence that does not depend on the library.
uint64_t Fnv1a(uint64_t h, const Slice& bytes) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes.data()[i]);
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

/// Every charge of one context, its cache's hit/miss tally and the row hash.
struct Golden {
  std::array<uint64_t, sim::kNumCostKinds> units;
  std::array<SimPicos, sim::kNumCostKinds> time_ps;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t rows;
  uint64_t row_hash;
};

void ExpectGolden(const AccessContext& ctx, const BlockCache& cache,
                  uint64_t rows, uint64_t row_hash, const Golden& want) {
  const sim::CostCounters& got = ctx.counters();
  for (int k = 0; k < sim::kNumCostKinds; ++k) {
    const char* name = sim::CostKindName(static_cast<CostKind>(k));
    EXPECT_EQ(got.units[k], want.units[k]) << name << " units";
    EXPECT_EQ(got.time_ps[k], want.time_ps[k]) << name << " time_ps";
  }
  EXPECT_EQ(cache.hits(), want.cache_hits);
  EXPECT_EQ(cache.misses(), want.cache_misses);
  EXPECT_EQ(rows, want.rows);
  EXPECT_EQ(row_hash, want.row_hash);
  if (::testing::Test::HasFailure()) {
    std::string units, times;
    for (int k = 0; k < sim::kNumCostKinds; ++k) {
      units += std::to_string(got.units[k]) + ", ";
      times += std::to_string(got.time_ps[k]) + ", ";
    }
    ADD_FAILURE() << "actual: {{" << units << "}, {" << times << "}, "
                  << cache.hits() << ", " << cache.misses() << ", " << rows
                  << ", " << row_hash << "ull}";
  }
}

/// A fixed snapshot, built file by file:
///  - C2: k0000..k0599 at sequences 1..600, in three files of 200 keys;
///  - C1: one file over k0001..k0020 holding two versions of k0005..k0009
///    (one older and one newer than the snapshot), an older version of
///    k0001, a tombstone of k0003 older than the snapshot, a tombstone of
///    k0011 and a version of k0020 that are both newer;
///  - an empty MemTable.
/// Blocks are 256 bytes, so every file has many. Past k0020 the C1 file has
/// run out and the C2 level is the merge's only live child.
class ScanGoldenTest : public ::testing::Test {
 protected:
  static constexpr SequenceNumber kSnapshot = 1500;

  ScanGoldenTest() : hw_(HwParams::PaperDefaults()), storage_(&hw_) {
    def_.name = "golden";
    def_.schema = rel::Schema({IntCol("id"), CharCol("tag", 12)});
    def_.pk_col = 0;

    snap_.sequence = kSnapshot;
    snap_.mem = &mem_;
    snap_.version.levels.resize(3);
    for (int file = 0; file < 3; ++file) {
      Builder c2;
      for (int i = 200 * file; i < 200 * (file + 1); ++i) {
        c2.Add(Key(i), static_cast<SequenceNumber>(i + 1), ValueType::kValue,
               Row(i, "c2-" + std::to_string(i)));
      }
      snap_.version.levels[1].push_back(Finish(&c2));
    }
    Builder c1;
    c1.Add(Key(1), 1001, ValueType::kValue, Row(1, "c1a-1"));
    c1.Add(Key(3), 1003, ValueType::kDeletion, "");
    for (int i = 5; i <= 9; ++i) {
      const std::string n = std::to_string(i);
      c1.Add(Key(i), 2000 + i, ValueType::kValue, Row(i, "c1b-" + n));
      c1.Add(Key(i), 1000 + i, ValueType::kValue, Row(i, "c1a-" + n));
    }
    c1.Add(Key(11), 2011, ValueType::kDeletion, "");
    c1.Add(Key(20), 2020, ValueType::kValue, Row(20, "c1b-20"));
    snap_.version.levels[0].push_back(Finish(&c1));
  }

  /// Internal keys added in order into one SST of 256-byte blocks.
  struct Builder {
    std::vector<std::pair<std::string, std::string>> entries;
    void Add(const std::string& user_key, SequenceNumber seq, ValueType type,
             const std::string& value) {
      std::string ikey;
      lsm::AppendInternalKey(&ikey, user_key, seq, type);
      entries.emplace_back(std::move(ikey), value);
    }
  };

  FileMetaData Finish(Builder* b) {
    lsm::SstOptions opts;
    opts.block_size = 256;
    lsm::SstBuilder builder(&storage_, opts);
    for (const auto& [k, v] : b->entries) builder.Add(k, v);
    auto meta = builder.Finish();
    EXPECT_TRUE(meta.ok());
    auto reader = std::make_unique<SstReader>(&storage_, *meta);
    EXPECT_TRUE(reader->EnsureOpened(nullptr, nullptr).ok());
    host_readers_.Add(std::move(reader));
    device_readers_.Add(std::make_unique<SstReader>(&storage_, *meta));
    return *meta;
  }

  std::string Row(int id, const std::string& tag) {
    rel::RowBuilder rb(&def_.schema);
    rb.SetInt(0, id).SetString(1, tag);
    return rb.row();
  }

  IteratorPtr NewScan(bool device, AccessContext* ctx, BlockCache* cache) {
    lsm::ReadOptions opts;
    opts.snapshot = snap_.sequence;
    opts.ctx = ctx;
    opts.cache = cache;
    return lsm::NewSnapshotIterator(*snap_.mem, snap_.version,
                                    device ? device_readers_ : host_readers_,
                                    opts);
  }

  /// Scans the snapshot as a table (GetByPk and indexes are not used).
  class Accessor final : public rel::TableAccessor {
   public:
    Accessor(ScanGoldenTest* t, bool device) : t_(t), device_(device) {}
    const rel::TableDef& def() const override { return t_->def_; }
    Status GetByPk(const lsm::ReadOptions&, int32_t,
                   Slice*) const override {
      return Status::NotSupported("scan only");
    }
    IteratorPtr NewScanIterator(const lsm::ReadOptions& opts) const override {
      return t_->NewScan(device_, opts.ctx, opts.cache);
    }
    IteratorPtr NewIndexIterator(const lsm::ReadOptions&,
                                 size_t) const override {
      return std::make_unique<lsm::EmptyIterator>();
    }

   private:
    ScanGoldenTest* t_;
    bool device_;
  };

  /// A full scan, a Seek to rows the scan left in the cache, a Seek into C1
  /// plus five rows, and a Seek into C2 plus 250 rows across a file
  /// boundary.
  void RunIterator(bool device, AccessContext* ctx, BlockCache* cache,
                   uint64_t* rows, uint64_t* hash) {
    auto iter = NewScan(device, ctx, cache);
    auto take = [&](int limit) {
      for (int i = 0; i < limit && iter->Valid(); ++i, iter->Next()) {
        ++*rows;
        *hash = Fnv1a(*hash, iter->key());
        *hash = Fnv1a(*hash, iter->value());
      }
      ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
    };
    iter->SeekToFirst();
    take(1 << 20);
    iter->Seek(Key(570));
    take(20);
    iter->Seek(Key(4));
    take(5);
    iter->Seek(Key(330));
    take(250);
  }

  /// TableScanOp with a predicate and a projection, drained in batches of
  /// 37 rows, then rewound and drained again in batches of 512.
  void RunTableScan(bool device, AccessContext* ctx, BlockCache* cache,
                    uint64_t* rows, uint64_t* hash) {
    const Accessor table(this, device);
    lsm::ReadOptions opts;
    opts.ctx = ctx;
    opts.cache = cache;
    opts.snapshot = snap_.sequence;
    exec::TableScanOp scan(&table, "t", opts,
                           exec::Expr::CmpInt("t.id", exec::CmpOp::kLt, 450),
                           {"t.tag", "t.id"});
    for (size_t max_rows : {37, 512}) {
      ASSERT_TRUE(scan.Open().ok());
      while (exec::RowBatch* b = scan.NextBatch(max_rows)) {
        EXPECT_LE(b->num_active(), max_rows);
        for (size_t k = 0; k < b->num_active(); ++k) {
          ++*rows;
          *hash = Fnv1a(*hash, Slice(b->active_row(k), b->row_size()));
        }
      }
      ASSERT_TRUE(scan.status().ok()) << scan.status().ToString();
    }
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  rel::TableDef def_;
  lsm::MemTable mem_;
  CfSnapshot snap_;
  /// Host readers were opened uncharged when the files were written, like
  /// the DB's; the device's open on first use, charging the loads.
  lsm::ReaderTable host_readers_;
  lsm::ReaderTable device_readers_;
};

TEST_F(ScanGoldenTest, SnapshotSeesTheRightVersions) {
  auto iter = NewScan(false, nullptr, nullptr);
  std::string tags;
  int rows = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const rel::RowView view(iter->value().data(), &def_.schema);
    if (rows < 12) tags += view.GetString(1).ToString() + ",";
    ++rows;
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(rows, 599);  // k0003 deleted before the snapshot
  EXPECT_EQ(tags,
            "c2-0,c1a-1,c2-2,c2-4,c1a-5,c1a-6,c1a-7,c1a-8,c1a-9,c2-10,c2-11,"
            "c2-12,");
}

TEST_F(ScanGoldenTest, HostIteratorChargesArePinned) {
  AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
  BlockCache cache(2048);
  uint64_t rows = 0, hash = kFnvBasis;
  RunIterator(false, &ctx, &cache, &rows, &hash);
  ExpectGolden(ctx, cache, rows, hash,
               Golden{{0, 1854, 6, 0, 10, 26546, 0, 0, 0, 18417, 0, 0, 0},
                      {0, 2851463, 346152, 0, 384620, 921750008, 0, 0, 0,
                       2302125, 0, 0, 0},
                      3, 113, 874, 10879157022698509337ull});
}

TEST_F(ScanGoldenTest, DeviceIteratorChargesArePinned) {
  AccessContext ctx(&hw_, Actor::kDevice, IoPath::kInternal);
  BlockCache cache(2048);
  uint64_t rows = 0, hash = kFnvBasis;
  RunIterator(true, &ctx, &cache, &rows, &hash);
  ExpectGolden(ctx, cache, rows, hash,
               Golden{{0, 1854, 6, 0, 10, 92082, 0, 0, 0, 18417, 0, 0, 0},
                      {0, 44473752, 5397300, 0, 5997000, 113468297, 0, 0, 0,
                       23021250, 0, 0, 0},
                      3, 117, 874, 10879157022698509337ull});
}

TEST_F(ScanGoldenTest, HostTableScanChargesArePinned) {
  AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
  BlockCache cache(2048);
  uint64_t rows = 0, hash = kFnvBasis;
  RunTableScan(false, &ctx, &cache, &rows, &hash);
  ExpectGolden(ctx, cache, rows, hash,
               Golden{{4792, 2494, 0, 1198, 0, 36248, 0, 0, 0, 39526, 0, 0, 0},
                      {553476, 3835772, 0, 6911262, 0, 1256237260, 0, 0, 0,
                       4940750, 0, 0, 0},
                      0, 154, 898, 13554531672883209905ull});
}

TEST_F(ScanGoldenTest, DeviceTableScanChargesArePinned) {
  AccessContext ctx(&hw_, Actor::kDevice, IoPath::kInternal);
  BlockCache cache(2048);
  uint64_t rows = 0, hash = kFnvBasis;
  RunTableScan(true, &ctx, &cache, &rows, &hash);
  ExpectGolden(ctx, cache, rows, hash,
               Golden{{4792, 2494, 0, 1198, 0, 101784, 0, 0, 0, 39526, 0, 0, 0},
                      {8620808, 59826072, 0, 107766090, 0, 115466844, 0, 0,
                       0, 49407500, 0, 0, 0},
                      0, 158, 898, 13554531672883209905ull});
}

/// One read of a store: every value in order, the final status, and the
/// context's counters and clock.
struct ReadLog {
  std::vector<std::string> values;
  Status status;
  sim::CostCounters counters;
  SimPicos clock_ps = 0;
};

/// Drain `iter` from its current entry: with Valid/value/Next when `pull`
/// is 0, else with NextValues(pull).
void Drain(lsm::Iterator* iter, size_t pull, ReadLog* log) {
  if (pull == 0) {
    for (; iter->Valid(); iter->Next()) {
      log->values.push_back(iter->value().ToString());
    }
  } else {
    std::vector<Slice> views(pull);
    size_t n = 0;
    do {
      n = iter->NextValues(pull, views.data());
      for (size_t i = 0; i < n; ++i) log->values.push_back(views[i].ToString());
    } while (n == pull);
    EXPECT_FALSE(iter->Valid());
  }
  if (log->status.ok()) log->status = iter->status();
}

void ExpectSameRead(const ReadLog& got, const ReadLog& want,
                    const std::string& what) {
  EXPECT_EQ(got.values, want.values) << what;
  EXPECT_EQ(got.status.ToString(), want.status.ToString()) << what;
  EXPECT_EQ(got.counters.units, want.counters.units) << what;
  EXPECT_EQ(got.counters.time_ps, want.counters.time_ps) << what;
  EXPECT_EQ(got.clock_ps, want.clock_ps) << what;
}

constexpr size_t kPullSizes[] = {1, 2, 7, 64, 1024};

class ScanPullSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanPullSizeTest, PullSizeIsInvisible) {
  // A random multi-version store: overwrites and deletes over a small key
  // space, values of varied length (some empty), small MemTables and
  // levels so the writes spread over C1 files, deeper levels and a live
  // MemTable, and a snapshot taken part-way through.
  HwParams hw = HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::DBOptions opts;
  opts.sst.block_size = 256;
  opts.memtable_bytes = 16 << 10;
  opts.l1_target_bytes = 4 << 10;
  DB db(&storage, opts);
  const lsm::ColumnFamilyId cf = db.CreateColumnFamily("random");
  Rng rng(GetParam());
  SequenceNumber snapshot = lsm::kMaxSequenceNumber;
  const int kOps = 3000;
  const int snapshot_at = kOps / 2 + static_cast<int>(rng.Uniform(kOps / 2));
  for (int op = 0; op < kOps; ++op) {
    const std::string key = Key(static_cast<int>(rng.Uniform(400)));
    if (rng.Uniform(100) < 15) {
      ASSERT_TRUE(db.Delete(cf, key).ok());
    } else {
      const size_t len = rng.Uniform(5) == 0 ? 0 : 1 + rng.Uniform(40);
      std::string value(len, static_cast<char>('a' + op % 26));
      ASSERT_TRUE(db.Put(cf, key, value).ok());
    }
    if (op == snapshot_at) snapshot = db.LatestSequence();
    if (rng.Uniform(500) == 0) {
      ASSERT_TRUE(db.CompactAll(cf).ok());
    }
  }
  const CfSnapshot shape = db.GetCfSnapshot(cf);
  ASSERT_GT(shape.mem->num_entries(), 0u);
  size_t deep_files = 0;
  for (size_t level = 1; level < shape.version.levels.size(); ++level) {
    deep_files += shape.version.levels[level].size();
  }
  ASSERT_GT(deep_files, 0u);

  for (const Actor actor : {Actor::kHost, Actor::kDevice}) {
    const IoPath path =
        actor == Actor::kHost ? IoPath::kNative : IoPath::kInternal;
    const std::string seek_key = Key(static_cast<int>(rng.Uniform(400)));
    for (const SequenceNumber seq : {snapshot, lsm::kMaxSequenceNumber}) {
      auto read = [&](size_t pull) {
        AccessContext ctx(&hw, actor, path);
        BlockCache cache(4096);
        lsm::ReadOptions ro;
        ro.snapshot = seq;
        ro.ctx = &ctx;
        ro.cache = &cache;
        ReadLog log;
        auto iter = db.NewIterator(ro, cf);
        iter->SeekToFirst();
        Drain(iter.get(), pull, &log);
        iter->Seek(seek_key);
        Drain(iter.get(), pull, &log);
        log.counters = ctx.counters();
        log.clock_ps = ctx.clock().now_ps();
        return log;
      };
      const ReadLog want = read(0);
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      ASSERT_FALSE(want.values.empty());
      for (const size_t pull : kPullSizes) {
        ExpectSameRead(read(pull), want,
                       "seed " + std::to_string(GetParam()) + " pull " +
                           std::to_string(pull) + " seq " +
                           std::to_string(seq));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanPullSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ScanPullCorruptionTest, PullStopsAtABadKeyWithTheSameCharges) {
  // One file of 200 keys whose entry k has an invalid type byte. The pull
  // returns exactly the rows before it, then ends with Corruption, charged
  // like the row-at-a-time loop. With an empty MemTable the scan runs on
  // the file's block cursor; with a live one it steps through the merge.
  HwParams hw = HwParams::PaperDefaults();
  for (const int bad : {0, 1, 7, 63, 64, 150, 199}) {
    lsm::VirtualStorage storage(&hw);
    lsm::SstOptions sst_opts;
    sst_opts.block_size = 256;
    lsm::SstBuilder builder(&storage, sst_opts);
    for (int i = 0; i < 200; ++i) {
      std::string ikey;
      const auto type = i == bad ? static_cast<ValueType>(7) : ValueType::kValue;
      lsm::AppendInternalKey(&ikey, Key(i), static_cast<SequenceNumber>(i + 1),
                             type);
      builder.Add(ikey, "value-" + std::to_string(i));
    }
    auto meta = builder.Finish();
    ASSERT_TRUE(meta.ok());
    auto reader = std::make_unique<SstReader>(&storage, *meta);
    ASSERT_TRUE(reader->EnsureOpened(nullptr, nullptr).ok());
    lsm::ReaderTable readers;
    readers.Add(std::move(reader));

    for (const bool live_mem : {false, true}) {
      lsm::MemTable mem;
      if (live_mem) {
        for (int i = 0; i < 200; i += 9) {
          mem.Add(1000 + i, ValueType::kValue, Key(i) + "m", "mem");
        }
      }
      CfSnapshot snap;
      snap.sequence = lsm::kMaxSequenceNumber;
      snap.mem = &mem;
      snap.version.levels.resize(2);
      snap.version.levels[1].push_back(*meta);
      auto read = [&](size_t pull) {
        AccessContext ctx(&hw, Actor::kDevice, IoPath::kInternal);
        BlockCache cache(4096);
        lsm::ReadOptions opts;
        opts.snapshot = snap.sequence;
        opts.ctx = &ctx;
        opts.cache = &cache;
        auto iter =
            lsm::NewSnapshotIterator(*snap.mem, snap.version, readers, opts);
        ReadLog log;
        iter->SeekToFirst();
        Drain(iter.get(), pull, &log);
        log.counters = ctx.counters();
        log.clock_ps = ctx.clock().now_ps();
        return log;
      };
      const std::string what = "bad entry " + std::to_string(bad) +
                               (live_mem ? " with" : " without") +
                               " a live MemTable";
      const ReadLog want = read(0);
      EXPECT_TRUE(want.status.IsCorruption()) << what;
      if (!live_mem) {
        EXPECT_EQ(want.values.size(), static_cast<size_t>(bad)) << what;
      }
      for (const size_t pull : kPullSizes) {
        ExpectSameRead(read(pull), want,
                       what + ", pull " + std::to_string(pull));
      }
    }
  }
}

}  // namespace
}  // namespace hybridndp
