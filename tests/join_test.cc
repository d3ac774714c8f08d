// Pins the join operators and the index range scan: the exact simulated
// charges and output row sequence of BNLJ and GHJ (each under a FilterOp),
// BNLJI (primary key and secondary index) and IndexScanOp on a fixed fixture
// with duplicate keys, under host and device contexts, and exec::JoinTable
// against a std::unordered_multimap model.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "exec/join_table.h"
#include "exec/operator.h"
#include "lsm/db.h"
#include "rel/table.h"
#include "sim/cost.h"
#include "sim/hw_model.h"

namespace hybridndp::exec {
namespace {

using rel::CharCol;
using rel::IntCol;
using rel::RowBuilder;
using sim::AccessContext;
using sim::Actor;
using sim::CostKind;
using sim::HwParams;
using sim::IoPath;

/// Every charge of one run plus its output: the row count and a hash of the
/// rows in output order.
struct Golden {
  std::array<uint64_t, sim::kNumCostKinds> units;
  std::array<SimPicos, sim::kNumCostKinds> time_ps;
  size_t rows;
  uint64_t sequence_hash;
};

uint64_t SequenceHash(const std::vector<std::string>& rows) {
  uint64_t h = 0;
  for (const std::string& row : rows) h = Hash64(row.data(), row.size(), h);
  return h;
}

/// Fixed tables: `fact` (240 rows, id -> dim_id with heavy duplicates and
/// keys 30..36 that match no dim row; secondary index on dim_id) and `dim`
/// (30 rows). Both share a `grp` column for two-column keys.
class JoinGoldenTest : public ::testing::Test {
 protected:
  JoinGoldenTest()
      : hw_(HwParams::PaperDefaults()),
        storage_(&hw_),
        db_(&storage_, MakeDbOptions()),
        catalog_(&db_) {
    rel::TableDef fact;
    fact.name = "fact";
    fact.schema = rel::Schema({IntCol("id"), IntCol("dim_id"), IntCol("grp"),
                               CharCol("tag", 6)});
    fact.pk_col = 0;
    fact.indexes.push_back({"dim_id", 1});
    fact_ = catalog_.CreateTable(std::move(fact));

    rel::TableDef dim;
    dim.name = "dim";
    dim.schema =
        rel::Schema({IntCol("id"), IntCol("grp"), CharCol("name", 8)});
    dim.pk_col = 0;
    dim_ = catalog_.CreateTable(std::move(dim));

    for (int i = 0; i < 240; ++i) {
      RowBuilder rb(&fact_->schema());
      rb.SetInt(0, i)
          .SetInt(1, (i * 7) % 37)
          .SetInt(2, i % 3)
          .SetString(3, "t" + std::to_string(i % 5));
      EXPECT_TRUE(fact_->Insert(rb.row()).ok());
    }
    for (int i = 0; i < 30; ++i) {
      RowBuilder rb(&dim_->schema());
      rb.SetInt(0, i).SetInt(1, (i / 2) % 3).SetString(
          2, "d" + std::to_string(i));
      EXPECT_TRUE(dim_->Insert(rb.row()).ok());
    }
    EXPECT_TRUE(db_.FlushAll().ok());
  }

  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 4 << 10;  // several files per column family
    return o;
  }

  OperatorPtr Scan(const rel::Table* table, const std::string& alias,
                   AccessContext* ctx) {
    lsm::ReadOptions opts;
    opts.ctx = ctx;
    return std::make_unique<TableScanOp>(table, alias, opts, nullptr,
                                         std::vector<std::string>{});
  }

  /// Runs the tree `build(ctx)` builds under a fresh context of `actor`, at
  /// 1024 rows per pull and at one row per pull, and checks both runs
  /// against `want`.
  void ExpectGolden(Actor actor,
                    const std::function<OperatorPtr(AccessContext*)>& build,
                    const Golden& want) {
    for (size_t batch_rows : {size_t{1024}, size_t{1}}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
      AccessContext ctx(&hw_, actor,
                        actor == Actor::kHost ? IoPath::kNative
                                              : IoPath::kInternal);
      auto op = build(&ctx);
      auto rows = CollectAll(op.get(), batch_rows);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      const sim::CostCounters& got = ctx.counters();
      for (int k = 0; k < sim::kNumCostKinds; ++k) {
        const char* name = sim::CostKindName(static_cast<CostKind>(k));
        EXPECT_EQ(got.units[k], want.units[k]) << name << " units";
        EXPECT_EQ(got.time_ps[k], want.time_ps[k]) << name << " time_ps";
      }
      EXPECT_EQ(rows->size(), want.rows);
      EXPECT_EQ(SequenceHash(*rows), want.sequence_hash);
      if (::testing::Test::HasFailure()) {
        std::string units, times;
        for (int k = 0; k < sim::kNumCostKinds; ++k) {
          units += std::to_string(got.units[k]) + ", ";
          times += std::to_string(got.time_ps[k]) + ", ";
        }
        ADD_FAILURE() << "actual: {{" << units << "}, {" << times << "}, "
                      << rows->size() << ", " << SequenceHash(*rows) << "u}";
        return;
      }
    }
  }

  /// Filters a join's output on f.grp <= d.grp.
  static OperatorPtr GrpFilter(OperatorPtr join, AccessContext* ctx) {
    return std::make_unique<FilterOp>(
        std::move(join), Expr::CmpCol("f.grp", CmpOp::kLe, "d.grp"), ctx);
  }
  /// fact ⋈ dim on dim_id = id in 600-byte blocks of 34 outer rows, then
  /// the f.grp <= d.grp filter.
  OperatorPtr Bnlj(AccessContext* ctx) {
    return GrpFilter(std::make_unique<BlockNLJoinOp>(
                         Scan(fact_, "f", ctx), Scan(dim_, "d", ctx),
                         std::vector<JoinKey>{{"f.dim_id", "d.id"}}, 600, ctx),
                     ctx);
  }
  /// fact ⋈ dim on (dim_id, grp) = (id, grp), same blocks.
  OperatorPtr BnljTwoColumnKey(AccessContext* ctx) {
    return std::make_unique<BlockNLJoinOp>(
        Scan(fact_, "f", ctx), Scan(dim_, "d", ctx),
        std::vector<JoinKey>{{"f.dim_id", "d.id"}, {"f.grp", "d.grp"}}, 600,
        ctx);
  }
  /// fact (build) ⋈ dim (probe) in four partitions, same filter.
  OperatorPtr Ghj(AccessContext* ctx) {
    return GrpFilter(std::make_unique<GraceHashJoinOp>(
                         Scan(fact_, "f", ctx), Scan(dim_, "d", ctx),
                         std::vector<JoinKey>{{"f.dim_id", "d.id"}}, 4, ctx),
                     ctx);
  }
  /// fact ⋈ dim by primary-key lookups, inner residual d.grp != 2,
  /// projected to (d.id, d.name).
  OperatorPtr BnljiPk(AccessContext* ctx) {
    lsm::ReadOptions opts;
    opts.ctx = ctx;
    return std::make_unique<BlockNLIndexJoinOp>(
        Scan(fact_, "f", ctx), "f.dim_id", dim_, "d", "id", opts,
        Expr::CmpInt("d.grp", CmpOp::kNe, 2),
        std::vector<std::string>{"d.id", "d.name"}, 600, ctx);
  }
  /// dim ⋈ fact through the secondary index on fact.dim_id, inner residual
  /// f.tag != 't3', in 200-byte blocks of 13 outer rows.
  OperatorPtr BnljiSecondary(AccessContext* ctx) {
    lsm::ReadOptions opts;
    opts.ctx = ctx;
    return std::make_unique<BlockNLIndexJoinOp>(
        Scan(dim_, "d", ctx), "d.id", fact_, "f", "dim_id", opts,
        Expr::CmpStr("f.tag", CmpOp::kNe, "t3"), std::vector<std::string>{},
        200, ctx);
  }
  /// fact rows with dim_id in [5, 20] through the secondary index, residual
  /// f.tag != 't3', projected to (f.tag, f.id).
  OperatorPtr IndexRange(AccessContext* ctx) {
    lsm::ReadOptions opts;
    opts.ctx = ctx;
    return std::make_unique<IndexScanOp>(
        fact_, "f", 0, opts, 5, 20, Expr::CmpStr("f.tag", CmpOp::kNe, "t3"),
        std::vector<std::string>{"f.tag", "f.id"});
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
  rel::Table* fact_ = nullptr;
  rel::Table* dim_ = nullptr;
};

TEST_F(JoinGoldenTest, BlockNLJoinHost) {
  ExpectGolden(Actor::kHost, [&](AccessContext* c) { return Bnlj(c); },
               Golden{{780, 1419, 0, 480, 0, 16053, 0, 240, 240, 31040, 195,
                       0, 0},
                      {90090, 2182647, 0, 2769120, 0, 1090733874, 0, 1384560,
                       923040, 3880000, 1499940, 0, 0},
                      127, 15359512015593396097u});
}

TEST_F(JoinGoldenTest, BlockNLJoinDevice) {
  ExpectGolden(Actor::kDevice, [&](AccessContext* c) { return Bnlj(c); },
               Golden{{780, 1419, 0, 480, 0, 16053, 0, 240, 240, 31040, 195,
                       0, 0},
                      {1403220, 34038972, 0, 43178400, 0, 3306801, 0, 21589200,
                       14392800, 38800000, 23388300, 0, 0},
                      127, 15359512015593396097u});
}

TEST_F(JoinGoldenTest, BlockNLJoinTwoColumnKeyHost) {
  ExpectGolden(Actor::kHost,
               [&](AccessContext* c) { return BnljTwoColumnKey(c); },
               Golden{{0, 1419, 0, 480, 0, 16053, 0, 240, 240, 26216, 0, 0, 0},
                      {0, 2182647, 0, 2769120, 0, 1090733874, 0, 1384560,
                       923040, 3277000, 0, 0, 0},
                      61, 9235457589884032202u});
}

TEST_F(JoinGoldenTest, BlockNLJoinTwoColumnKeyDevice) {
  ExpectGolden(Actor::kDevice,
               [&](AccessContext* c) { return BnljTwoColumnKey(c); },
               Golden{{0, 1419, 0, 480, 0, 16053, 0, 240, 240, 26216, 0, 0, 0},
                      {0, 34038972, 0, 43178400, 0, 3306801, 0, 21589200,
                       14392800, 32770000, 0, 0, 0},
                      61, 9235457589884032202u});
}

TEST_F(JoinGoldenTest, GraceHashJoinHost) {
  ExpectGolden(Actor::kHost, [&](AccessContext* c) { return Ghj(c); },
               Golden{{780, 597, 0, 270, 0, 19839, 0, 240, 300, 18660, 195, 0,
                       0},
                      {90090, 918214, 0, 1557630, 0, 581265402, 0, 1384560,
                       1153800, 2332500, 1499940, 0, 0},
                      127, 6128081795885054064u});
}

TEST_F(JoinGoldenTest, GraceHashJoinDevice) {
  ExpectGolden(Actor::kDevice, [&](AccessContext* c) { return Ghj(c); },
               Golden{{780, 597, 0, 270, 0, 19839, 0, 240, 300, 18660, 195, 0,
                       0},
                      {1403220, 14320836, 0, 24287850, 0, 4086699, 0, 21589200,
                       17991000, 23325000, 23388300, 0, 0},
                      127, 6128081795885054064u});
}

TEST_F(JoinGoldenTest, IndexJoinViaPrimaryKeyHost) {
  ExpectGolden(Actor::kHost, [&](AccessContext* c) { return BnljiPk(c); },
               Golden{{780, 751, 195, 435, 390, 3203220, 0, 0, 0, 24244, 0, 0,
                       0},
                      {90090, 1155128, 11249940, 2509515, 15000180, 12557974515,
                       0, 0, 0, 3030500, 0, 0, 0},
                      131, 17452695357347415815u});
}

TEST_F(JoinGoldenTest, IndexJoinViaPrimaryKeyDevice) {
  ExpectGolden(Actor::kDevice, [&](AccessContext* c) { return BnljiPk(c); },
               Golden{{780, 751, 195, 435, 390, 3203220, 0, 0, 0, 24244, 0, 0,
                       0},
                      {1403220, 18014988, 175412250, 39130425, 233883000,
                       5266717980, 0, 0, 0, 30305000, 0, 0, 0},
                      131, 17452695357347415815u});
}

TEST_F(JoinGoldenTest, IndexJoinViaSecondaryIndexHost) {
  ExpectGolden(Actor::kHost,
               [&](AccessContext* c) { return BnljiSecondary(c); },
               Golden{{585, 1203, 225, 225, 450, 3291249, 0, 0, 0, 14084, 0, 0,
                       0},
                      {67470, 1850514, 12980700, 1298025, 17307900, 12448835227,
                       0, 0, 0, 1760500, 0, 0, 0},
                      154, 4508870228395037235u});
}

TEST_F(JoinGoldenTest, IndexJoinViaSecondaryIndexDevice) {
  ExpectGolden(Actor::kDevice,
               [&](AccessContext* c) { return BnljiSecondary(c); },
               Golden{{585, 1203, 225, 225, 450, 3291249, 0, 0, 0, 14084, 0, 0,
                       0},
                      {1052415, 28857564, 202398750, 20239875, 269865000,
                       5284851407, 0, 0, 0, 17605000, 0, 0, 0},
                      154, 4508870228395037235u});
}

TEST_F(JoinGoldenTest, IndexScanRangeHost) {
  ExpectGolden(Actor::kHost, [&](AccessContext* c) { return IndexRange(c); },
               Golden{{312, 374, 105, 104, 210, 1707117, 0, 0, 0, 3040, 0, 0,
                       0},
                      {35984, 575268, 6057660, 599976, 8077020, 6448739213, 0,
                       0, 0, 380000, 0, 0, 0},
                      80, 11078647732232998789u});
}

TEST_F(JoinGoldenTest, IndexScanRangeDevice) {
  ExpectGolden(Actor::kDevice, [&](AccessContext* c) { return IndexRange(c); },
               Golden{{312, 374, 105, 104, 210, 1707117, 0, 0, 0, 3040, 0, 0,
                       0},
                      {561288, 8971512, 94452750, 9355320, 125937000,
                       2808655266, 0, 0, 0, 3800000, 0, 0, 0},
                      80, 11078647732232998789u});
}

// --------------------------------------------------- JoinTable vs a model

/// The hasher the join operators' std::unordered_multimap used. With a
/// user-defined hasher libstdc++ files each insert before the equal keys
/// already present, so equal_range yields them newest first; std::hash of
/// std::string instead puts a small table's inserts after the first equal
/// key.
struct ModelHash {
  size_t operator()(const std::string& s) const {
    return static_cast<size_t>(Hash64(s.data(), s.size()));
  }
};

/// Rows of a build schema (a, s, b, t) probed from a schema with the same
/// key columns at other offsets (t, b, pad, s, a).
class JoinTableModelTest : public ::testing::Test {
 protected:
  JoinTableModelTest()
      : build_({IntCol("a"), CharCol("s", 5), IntCol("b"), CharCol("t", 3)}),
        probe_({CharCol("t", 3), IntCol("b"), IntCol("pad"), CharCol("s", 5),
                IntCol("a")}) {}

  /// A build row whose key columns draw from `distinct` values each.
  std::string BuildRow(Rng* rng, uint64_t distinct) {
    RowBuilder rb(&build_);
    rb.SetInt(0, static_cast<int32_t>(rng->Uniform(distinct)))
        .SetString(1, "s" + std::to_string(rng->Uniform(distinct)))
        .SetInt(2, static_cast<int32_t>(rng->Uniform(distinct)) - 2)
        .SetString(3, std::string(rng->Uniform(3), 'x'));
    return rb.row();
  }

  /// The probe-schema row carrying the same column values as `row`.
  std::string ProbeRow(const std::string& row) {
    const rel::RowView v(row.data(), &build_);
    RowBuilder rb(&probe_);
    rb.SetString(0, v.GetString(3).ToString())
        .SetInt(1, v.GetInt(2))
        .SetInt(2, 12345)
        .SetString(3, v.GetString(1).ToString())
        .SetInt(4, v.GetInt(0));
    return rb.row();
  }

  /// Builds a JoinTable over `rows` keyed by `build_cols` and checks every
  /// probe against std::unordered_multimap::equal_range over KeyBytesInto
  /// keys: the same row indexes in the same order, and the same largest
  /// multiplicity.
  void ExpectMatchesModel(const std::vector<std::string>& rows,
                          const std::vector<int>& build_cols,
                          const std::vector<int>& probe_cols,
                          const std::vector<std::string>& probes) {
    JoinTable table;
    table.Reset(build_, build_cols);
    std::unordered_multimap<std::string, uint32_t, ModelHash> model;
    std::string key;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      table.Append(rows[i].data());
      KeyBytesInto(build_, build_cols, rows[i].data(), &key);
      model.emplace(key, i);
    }
    size_t model_max = 0;
    for (auto it = model.begin(); it != model.end();) {
      auto range = model.equal_range(it->first);
      model_max = std::max<size_t>(
          model_max, std::distance(range.first, range.second));
      it = range.second;
    }
    ASSERT_EQ(table.Build(), model_max);
    ASSERT_EQ(table.size(), rows.size());
    for (uint32_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(std::string(table.row(i), build_.row_size()), rows[i]);
    }

    const KeyLayout probe_key(probe_, probe_cols);
    for (const std::string& probe : probes) {
      KeyBytesInto(probe_, probe_cols, probe.data(), &key);
      std::vector<uint32_t> want;
      for (auto [it, end] = model.equal_range(key); it != end; ++it) {
        want.push_back(it->second);
      }
      std::vector<uint32_t> got;
      for (uint32_t i = table.Find(probe_key, probe.data());
           i != JoinTable::kNone; i = table.Next(i)) {
        got.push_back(i);
      }
      ASSERT_EQ(got, want);
    }
  }

  rel::Schema build_, probe_;
};

TEST_F(JoinTableModelTest, NewestFirstLikeTheMultimap) {
  // Keys a, b, a, c, a, b: "a" matches rows 4, 2, 0.
  std::vector<std::string> rows;
  for (int k : {1, 2, 1, 3, 1, 2}) {
    RowBuilder rb(&build_);
    rb.SetInt(0, k);
    rows.push_back(rb.row());
  }
  JoinTable table;
  table.Reset(build_, {0});
  for (const std::string& r : rows) table.Append(r.data());
  EXPECT_EQ(table.Build(), 3u);
  const KeyLayout key(build_, {0});
  std::vector<uint32_t> got;
  for (uint32_t i = table.Find(key, rows[0].data()); i != JoinTable::kNone;
       i = table.Next(i)) {
    got.push_back(i);
  }
  EXPECT_EQ(got, (std::vector<uint32_t>{4, 2, 0}));
  ExpectMatchesModel(rows, {0}, {4}, {ProbeRow(rows[0]), ProbeRow(rows[1]),
                                      ProbeRow(rows[3])});
}

TEST_F(JoinTableModelTest, EmptyTableMatchesNothing) {
  Rng rng(1);
  std::vector<std::string> probes;
  for (int i = 0; i < 8; ++i) probes.push_back(ProbeRow(BuildRow(&rng, 4)));
  ExpectMatchesModel({}, {0}, {4}, probes);
  ExpectMatchesModel({}, {0, 1}, {4, 3}, probes);
}

TEST_F(JoinTableModelTest, SeededDifferentialAgainstMultimap) {
  // Build key column sets and the same columns in the probe schema.
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> keys = {
      {{0}, {4}}, {{1}, {3}}, {{0, 2}, {4, 1}}, {{3, 1, 0}, {0, 3, 4}},
      {{0, 1, 2, 3}, {4, 3, 1, 0}}};
  // 5000 rows of 16 bytes cross the first chunk boundary (4096 rows).
  for (uint64_t seed : {1, 2, 3}) {
    for (size_t n : {size_t{1}, size_t{40}, size_t{5000}}) {
      for (uint64_t distinct : {uint64_t{2}, uint64_t{50}, uint64_t{100000}}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" +
                     std::to_string(n) + " distinct=" +
                     std::to_string(distinct));
        Rng rng(seed * 1000 + n + distinct);
        std::vector<std::string> rows;
        for (size_t i = 0; i < n; ++i) rows.push_back(BuildRow(&rng, distinct));
        // Probe every stored key plus keys that may be absent.
        std::vector<std::string> probes;
        for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 300)) {
          probes.push_back(ProbeRow(rows[i]));
        }
        for (int i = 0; i < 100; ++i) {
          probes.push_back(ProbeRow(BuildRow(&rng, distinct * 2)));
        }
        for (const auto& [build_cols, probe_cols] : keys) {
          ExpectMatchesModel(rows, build_cols, probe_cols, probes);
        }
      }
    }
  }
}

TEST(RowStoreTest, RowsSurviveChunkBoundariesAndClear) {
  for (size_t row_size : {size_t{1}, size_t{20}, size_t{116}, size_t{70000}}) {
    RowStore store;
    store.Reset(row_size);
    const size_t n = 2 * RowStore::kChunkBytes / row_size + 3;
    for (int pass = 0; pass < 2; ++pass) {
      store.Clear();
      for (size_t i = 0; i < n; ++i) {
        memset(store.AppendRow(), static_cast<int>((i + pass) % 251),
               row_size);
      }
      ASSERT_EQ(store.size(), n);
      for (size_t i = 0; i < n; ++i) {
        const char* r = store.row(i);
        ASSERT_EQ(static_cast<unsigned char>(r[0]), (i + pass) % 251);
        ASSERT_EQ(static_cast<unsigned char>(r[row_size - 1]),
                  (i + pass) % 251);
      }
    }
  }
}

}  // namespace
}  // namespace hybridndp::exec
