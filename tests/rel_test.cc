// Tests for the relational layer: schema/row codec, secondary index
// encoding, and the statistics collector.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "lsm/db.h"
#include "rel/schema.h"
#include "rel/stats.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp::rel {
namespace {

TEST(SchemaTest, OffsetsAndRowSize) {
  Schema s({IntCol("id"), CharCol("name", 10), IntCol("age")});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 4u);
  // CHAR(10) is 4-byte aligned to 12.
  EXPECT_EQ(s.column(1).size, 12u);
  EXPECT_EQ(s.offset(2), 16u);
  EXPECT_EQ(s.row_size(), 20u);
}

TEST(SchemaTest, FindAndProject) {
  Schema s({IntCol("a"), IntCol("b"), CharCol("c", 8)});
  EXPECT_EQ(s.Find("b"), 1);
  EXPECT_EQ(s.Find("missing"), -1);
  Schema p = s.Project({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "c");
  EXPECT_EQ(p.row_size(), 12u);
}

TEST(SchemaTest, ConcatPreservesColumns) {
  Schema a({IntCol("x")});
  Schema b({IntCol("y"), CharCol("z", 4)});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 3u);
  EXPECT_EQ(c.row_size(), a.row_size() + b.row_size());
  EXPECT_EQ(c.Find("z"), 2);
}

TEST(RowCodecTest, IntAndStringRoundTrip) {
  Schema s({IntCol("id"), CharCol("name", 8), IntCol("neg")});
  RowBuilder rb(&s);
  rb.SetInt(0, 42).SetString(1, "hello").SetInt(2, -7);
  RowView v = rb.view();
  EXPECT_EQ(v.GetInt(0), 42);
  EXPECT_EQ(v.GetString(1).ToString(), "hello");
  EXPECT_EQ(v.GetInt(2), -7);
  // Raw view keeps padding.
  EXPECT_EQ(v.GetRaw(1).size(), 8u);
}

TEST(RowCodecTest, LongStringsTrimmedToColumnWidth) {
  Schema s({CharCol("name", 4)});
  RowBuilder rb(&s);
  rb.SetString(0, "a longer string");
  EXPECT_EQ(rb.view().GetString(0).ToString(), "a lo");
}

TEST(IndexEncodingTest, OrderPreservingComposite) {
  // Secondary-index keys must sort by (value, pk).
  std::string a = EncodeIndexPrefixInt(-5) + EncodeIndexPrefixInt(10);
  std::string b = EncodeIndexPrefixInt(-5) + EncodeIndexPrefixInt(11);
  std::string c = EncodeIndexPrefixInt(3) + EncodeIndexPrefixInt(1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(StatsTest, MinMaxNdvOnSmallDomain) {
  Schema s({IntCol("v")});
  StatsCollector collector(&s);
  for (int i = 0; i < 1000; ++i) {
    RowBuilder rb(&s);
    rb.SetInt(0, i % 10);
    collector.AddRow(rb.view());
  }
  TableStats stats = collector.Finish();
  EXPECT_EQ(stats.row_count, 1000u);
  EXPECT_EQ(stats.col(0).min_int, 0);
  EXPECT_EQ(stats.col(0).max_int, 9);
  EXPECT_EQ(stats.col(0).ndv, 10u);
  EXPECT_NEAR(stats.col(0).EqSelectivity(5), 0.1, 0.05);
}

TEST(StatsTest, KmvEstimatesLargeNdv) {
  Schema s({IntCol("v")});
  StatsCollector collector(&s);
  Rng rng(11);
  for (int i = 0; i < 60000; ++i) {
    RowBuilder rb(&s);
    // 30000 distinct values, each appearing ~2 times.
    rb.SetInt(0, static_cast<int32_t>(rng.Uniform(30000)));
    collector.AddRow(rb.view());
  }
  TableStats stats = collector.Finish();
  const double ndv = static_cast<double>(stats.col(0).ndv);
  EXPECT_GT(ndv, 30000 * 0.7);
  EXPECT_LT(ndv, 30000 * 1.3);
}

/// The k smallest distinct values of `stream`, ascending: the sample a
/// std::set-based KMV sketch keeps.
std::vector<uint64_t> SmallestDistinct(const std::vector<uint64_t>& stream,
                                       size_t k) {
  const std::set<uint64_t> all(stream.begin(), stream.end());
  std::vector<uint64_t> out(all.begin(), all.end());
  if (out.size() > k) out.resize(k);
  return out;
}

TEST(KmvSketchTest, SampleIsTheKSmallestDistinctHashes) {
  constexpr size_t k = StatsCollector::kSampleDistinct;
  Rng rng(77);
  for (size_t distinct : {size_t{1000}, k - 1, k, k + 1, size_t{20000}}) {
    std::vector<uint64_t> values;
    for (size_t i = 0; i < distinct; ++i) values.push_back(rng.Next());
    // Extremes, and values sharing their low bits with a neighbour.
    values[0] = 0;
    values[1] = UINT64_MAX;
    values[2] = values[3] ^ (uint64_t{1} << 40);
    std::vector<uint64_t> stream = values;
    // Heavy duplicates at the kth and (k+1)th smallest distinct value and
    // a few everywhere else.
    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (size_t rank : {k - 1, k}) {
      if (rank < sorted.size()) stream.insert(stream.end(), 3000, sorted[rank]);
    }
    for (int i = 0; i < 5000; ++i) {
      stream.push_back(values[rng.Uniform(values.size())]);
    }
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.Uniform(i)]);
    }
    std::vector<uint64_t> descending = stream;
    std::sort(descending.rbegin(), descending.rend());
    std::vector<uint64_t> ascending = stream;
    std::sort(ascending.begin(), ascending.end());
    // Last in every order, when the sketch is full: a new value just below
    // the kth smallest (after an ascending run, exactly below its bound).
    std::vector<uint64_t> late;
    if (k - 1 < sorted.size()) late.assign(3, sorted[k - 1] - 1);
    std::vector<uint64_t> all = stream;
    all.insert(all.end(), late.begin(), late.end());
    const std::vector<uint64_t> want = SmallestDistinct(all, k);
    for (const auto* order : {&stream, &descending, &ascending}) {
      KmvSketch sketch(k);
      for (uint64_t h : *order) sketch.Add(h);
      for (uint64_t h : late) sketch.Add(h);
      EXPECT_EQ(sketch.Sample(), want) << distinct << " distinct";
    }
  }
}

TEST(StatsTest, HistogramRangeSelectivity) {
  Schema s({IntCol("year")});
  StatsCollector collector(&s);
  for (int i = 0; i < 10000; ++i) {
    RowBuilder rb(&s);
    rb.SetInt(0, 1900 + i % 100);  // uniform 1900..1999
    collector.AddRow(rb.view());
  }
  TableStats stats = collector.Finish();
  EXPECT_NEAR(stats.col(0).RangeSelectivity(1950, 1999), 0.5, 0.08);
  EXPECT_NEAR(stats.col(0).LeSelectivity(1999), 1.0, 0.01);
  EXPECT_NEAR(stats.col(0).LeSelectivity(1899), 0.0, 0.01);
  EXPECT_NEAR(stats.col(0).RangeSelectivity(2500, 2600), 0.0, 0.01);
}

TEST(StatsTest, NullFractionTracked) {
  Schema s({CharCol("name", 8)});
  StatsCollector collector(&s);
  for (int i = 0; i < 100; ++i) {
    RowBuilder rb(&s);
    rb.SetString(0, i % 4 == 0 ? "" : "x");
    collector.AddRow(rb.view());
  }
  TableStats stats = collector.Finish();
  EXPECT_NEAR(stats.col(0).null_fraction, 0.25, 0.01);
}

TEST(TableTest, SecondaryIndexMaintainedOnInsert) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::DB db(&storage, lsm::DBOptions{});
  rel::Catalog catalog(&db);

  TableDef def;
  def.name = "t";
  def.schema = Schema({IntCol("id"), IntCol("grp")});
  def.pk_col = 0;
  def.indexes.push_back({"grp", 1});
  Table* t = catalog.CreateTable(std::move(def));

  for (int i = 1; i <= 100; ++i) {
    RowBuilder rb(&t->schema());
    rb.SetInt(0, i).SetInt(1, i % 10);
    ASSERT_TRUE(t->Insert(rb.row()).ok());
  }
  // Index scan for grp == 3 returns exactly the matching pks.
  auto iter = t->NewIndexIterator(lsm::ReadOptions{}, 0);
  std::string start = EncodeIndexPrefixInt(3);
  iter->Seek(Slice(start));
  int count = 0;
  while (iter->Valid() && memcmp(iter->key().data(), start.data(), 4) == 0) {
    const int32_t pk = GetOrderedInt32(iter->key().data() + 4);
    EXPECT_EQ(pk % 10, 3);
    ++count;
    iter->Next();
  }
  EXPECT_EQ(count, 10);
}

TEST(TableTest, RejectsWrongRowSize) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::DB db(&storage, lsm::DBOptions{});
  rel::Catalog catalog(&db);
  TableDef def;
  def.name = "t";
  def.schema = Schema({IntCol("id")});
  Table* t = catalog.CreateTable(std::move(def));
  EXPECT_FALSE(t->Insert("too long for one int").ok());
}

TEST(TableTest, StoredBytesReflectsPhysicalSize) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  lsm::VirtualStorage storage(&hw);
  lsm::DB db(&storage, lsm::DBOptions{});
  rel::Catalog catalog(&db);
  TableDef def;
  def.name = "t";
  def.schema = Schema({IntCol("id"), CharCol("pad", 32)});
  Table* t = catalog.CreateTable(std::move(def));
  for (int i = 1; i <= 5000; ++i) {
    RowBuilder rb(&t->schema());
    rb.SetInt(0, i).SetString(1, "x");
    ASSERT_TRUE(t->Insert(rb.row()).ok());
  }
  ASSERT_TRUE(db.FlushAll().ok());
  // Physical SSTs carry internal keys + index blocks: more than logical.
  EXPECT_GT(t->stored_bytes(), t->data_bytes());
  EXPECT_LT(t->stored_bytes(), t->data_bytes() * 3);
}

}  // namespace
}  // namespace hybridndp::rel
