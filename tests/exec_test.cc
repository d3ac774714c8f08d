// Tests for the expression system and the volcano operators, validated
// against brute-force reference implementations on small synthetic tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "exec/operator.h"
#include "lsm/db.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp::exec {
namespace {

using rel::CharCol;
using rel::IntCol;
using rel::RowBuilder;
using rel::RowView;
using rel::TableDef;
using sim::AccessContext;
using sim::Actor;
using sim::HwParams;
using sim::IoPath;

TEST(LikeMatchTest, BasicPatterns) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "world"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_lo"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_TRUE(LikeMatch("a(co-production)b", "%(co-production)%"));
  EXPECT_FALSE(LikeMatch("a(coproduction)b", "%(co-production)%"));
}

TEST(LikeMatchTest, BacktrackingCases) {
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_TRUE(LikeMatch("mississippi", "%iss%ppi"));
  EXPECT_FALSE(LikeMatch("mississippi", "%iss%xppi"));
}

TEST(LikeMatchTest, PercentInTheValueIsLiteral) {
  EXPECT_TRUE(LikeMatch("%a", "%"));
  EXPECT_TRUE(LikeMatch("a%b", "a%"));
  EXPECT_TRUE(LikeMatch("%%x", "%x"));
  EXPECT_FALSE(LikeMatch("%a", "%b"));
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest()
      : hw_(HwParams::PaperDefaults()),
        storage_(&hw_),
        db_(&storage_, MakeDbOptions()),
        catalog_(&db_),
        ctx_(&hw_, Actor::kHost, IoPath::kNative) {
    // Table "emp": id, dept_id (indexed), salary, name.
    TableDef emp;
    emp.name = "emp";
    emp.schema = rel::Schema({IntCol("id"), IntCol("dept_id"),
                              IntCol("salary"), CharCol("name", 12)});
    emp.pk_col = 0;
    emp.indexes.push_back({"dept_id", 1});
    emp_ = catalog_.CreateTable(std::move(emp));

    // Table "dept": id, budget, dname.
    TableDef dept;
    dept.name = "dept";
    dept.schema =
        rel::Schema({IntCol("id"), IntCol("budget"), CharCol("dname", 8)});
    dept.pk_col = 0;
    dept_ = catalog_.CreateTable(std::move(dept));

    for (int i = 0; i < 500; ++i) {
      RowBuilder rb(&emp_->schema());
      rb.SetInt(0, i)
          .SetInt(1, i % 20)
          .SetInt(2, 1000 + (i * 37) % 5000)
          .SetString(3, "emp" + std::to_string(i));
      EXPECT_TRUE(emp_->Insert(rb.row()).ok());
    }
    for (int i = 0; i < 20; ++i) {
      RowBuilder rb(&dept_->schema());
      rb.SetInt(0, i).SetInt(1, 10000 * i).SetString(2, "d" + std::to_string(i));
      EXPECT_TRUE(dept_->Insert(rb.row()).ok());
    }
    EXPECT_TRUE(db_.FlushAll().ok());
  }

  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 64 << 10;
    return o;
  }

  lsm::ReadOptions ReadOpts() {
    lsm::ReadOptions o;
    o.ctx = &ctx_;
    return o;
  }

  OperatorPtr ScanEmp(Expr::Ptr pred = nullptr,
                      std::vector<std::string> proj = {}) {
    return std::make_unique<TableScanOp>(emp_, "e", ReadOpts(),
                                         std::move(pred), std::move(proj));
  }
  OperatorPtr ScanDept(Expr::Ptr pred = nullptr,
                       std::vector<std::string> proj = {}) {
    return std::make_unique<TableScanOp>(dept_, "d", ReadOpts(),
                                         std::move(pred), std::move(proj));
  }

  /// Runs the tree produced by `build(ctx)` one row per pull (the
  /// row-at-a-time reference) and at each capacity in `batch_sizes`,
  /// asserting identical output rows and bit-identical simulated charges
  /// (units and picoseconds per cost kind).
  void ExpectBatchSizeInvariant(
      const std::function<OperatorPtr(AccessContext*)>& build,
      const std::vector<size_t>& batch_sizes) {
    // Warm-up run: SST readers decode their index lazily and charge that
    // load to whichever context touches them first. Readers are shared
    // across runs, so absorb the one-time opens here to keep every measured
    // context's charge stream identical.
    {
      AccessContext warm(&hw_, Actor::kHost, IoPath::kNative);
      auto op = build(&warm);
      ASSERT_TRUE(CollectAll(op.get()).ok());
    }
    AccessContext row_ctx(&hw_, Actor::kHost, IoPath::kNative);
    auto row_op = build(&row_ctx);
    auto row_rows = CollectAll(row_op.get(), 1);
    ASSERT_TRUE(row_rows.ok());
    for (size_t n : batch_sizes) {
      AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
      auto op = build(&ctx);
      auto rows = CollectAll(op.get(), n);
      ASSERT_TRUE(rows.ok()) << "batch_rows=" << n;
      EXPECT_EQ(*rows, *row_rows) << "batch_rows=" << n;
      EXPECT_EQ(ctx.counters().units, row_ctx.counters().units)
          << "batch_rows=" << n;
      EXPECT_EQ(ctx.counters().time_ps, row_ctx.counters().time_ps)
          << "batch_rows=" << n;
    }
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
  AccessContext ctx_;
  rel::Table* emp_ = nullptr;
  rel::Table* dept_ = nullptr;
};

TEST_F(ExecTest, TableScanAllRows) {
  auto scan = ScanEmp();
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 500u);
}

TEST_F(ExecTest, TableScanWithEarlySelection) {
  auto scan = ScanEmp(Expr::CmpInt("e.salary", CmpOp::kGe, 5000));
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  int expected = 0;
  for (int i = 0; i < 500; ++i) {
    if (1000 + (i * 37) % 5000 >= 5000) ++expected;
  }
  EXPECT_EQ(static_cast<int>(rows->size()), expected);
  EXPECT_GT(expected, 0);
}

TEST_F(ExecTest, TableScanEarlyProjectionShrinksRows) {
  auto scan = ScanEmp(nullptr, {"e.id", "e.salary"});
  ASSERT_TRUE(scan->Open().ok());
  EXPECT_EQ(scan->output_schema().row_size(), 8u);
  RowBatch* b = scan->NextBatch(1);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->row_size(), 8u);
}

TEST_F(ExecTest, TableScanUnknownProjectionFailsOpen) {
  auto scan = ScanEmp(nullptr, {"e.bogus"});
  EXPECT_FALSE(scan->Open().ok());
}

TEST_F(ExecTest, PredicateUnknownColumnFailsBind) {
  auto scan = ScanEmp(Expr::CmpInt("e.nope", CmpOp::kEq, 1));
  EXPECT_FALSE(scan->Open().ok());
}

TEST_F(ExecTest, StringPredicates) {
  auto scan = ScanEmp(Expr::Like("e.name", "emp1%"));
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  // emp1, emp10..emp19, emp100..emp199: 1 + 10 + 100 = 111.
  EXPECT_EQ(rows->size(), 111u);

  auto scan2 = ScanEmp(Expr::InStr("e.name", {"emp7", "emp8", "nobody"}));
  auto rows2 = CollectAll(scan2.get());
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(rows2->size(), 2u);
}

TEST_F(ExecTest, BetweenAndOrPredicates) {
  auto pred = Expr::Or({Expr::Between("e.id", 10, 19),
                        Expr::CmpInt("e.id", CmpOp::kEq, 400)});
  auto scan = ScanEmp(pred);
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 11u);
}

TEST_F(ExecTest, NotAndIsNotNull) {
  auto scan = ScanEmp(Expr::Not(Expr::Between("e.id", 0, 489)));
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);

  auto scan2 = ScanEmp(Expr::IsNotNull("e.id"));
  auto rows2 = CollectAll(scan2.get());
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(rows2->size(), 499u);  // id 0 counts as null-ish zero
}

TEST_F(ExecTest, IndexScanEquality) {
  auto scan = std::make_unique<IndexScanOp>(emp_, "e", 0, ReadOpts(), 7, 7,
                                            nullptr, std::vector<std::string>{});
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 25u);  // 500 employees / 20 depts
  for (const auto& r : *rows) {
    RowView v(r.data(), &scan->output_schema());
    EXPECT_EQ(v.GetInt(1), 7);
  }
}

TEST_F(ExecTest, IndexScanRangeWithResidual) {
  auto scan = std::make_unique<IndexScanOp>(
      emp_, "e", 0, ReadOpts(), 5, 8,
      Expr::CmpInt("e.salary", CmpOp::kLt, 2000), std::vector<std::string>{});
  auto rows = CollectAll(scan.get());
  ASSERT_TRUE(rows.ok());
  int expected = 0;
  for (int i = 0; i < 500; ++i) {
    if (i % 20 >= 5 && i % 20 <= 8 && 1000 + (i * 37) % 5000 < 2000) ++expected;
  }
  EXPECT_EQ(static_cast<int>(rows->size()), expected);
}

TEST_F(ExecTest, IndexScanBoundsBeyondInt32) {
  // Range bounds are int64: the planner's range for `col > INT32_MAX` is
  // [2^31, INT32_MAX]. An empty range or one wholly outside int32 reads
  // nothing; a range that only reaches past int32 keeps its int32 part.
  const int64_t kMin = std::numeric_limits<int32_t>::min();
  const int64_t kMax = std::numeric_limits<int32_t>::max();
  const struct {
    int64_t lo, hi;
    size_t rows;
  } cases[] = {{kMax + 1, kMax, 0}, {kMin - 10, kMin - 1, 0}, {10, 5, 0},
               {kMax + 1, kMax + 9, 0}, {kMin - 5, 3, 100}};
  for (const auto& c : cases) {
    SCOPED_TRACE("[" + std::to_string(c.lo) + ", " + std::to_string(c.hi) +
                 "]");
    AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
    lsm::ReadOptions opts;
    opts.ctx = &ctx;
    auto scan = std::make_unique<IndexScanOp>(emp_, "e", 0, opts, c.lo, c.hi,
                                              nullptr,
                                              std::vector<std::string>{});
    auto rows = CollectAll(scan.get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), c.rows);
    EXPECT_EQ(ctx.counters().Units(sim::CostKind::kSelectionProcessing),
              c.rows);
  }
}

TEST_F(ExecTest, FilterAndProjectCompose) {
  OperatorPtr plan = ScanEmp();
  plan = std::make_unique<FilterOp>(
      std::move(plan), Expr::CmpInt("e.dept_id", CmpOp::kEq, 3), &ctx_);
  plan = std::make_unique<ProjectOp>(std::move(plan),
                                     std::vector<std::string>{"e.name"}, &ctx_);
  auto rows = CollectAll(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 25u);
  EXPECT_EQ(plan->output_schema().row_size(), 12u);
}

// Reference join for validation.
std::multiset<std::pair<int, int>> ReferenceJoin() {
  std::multiset<std::pair<int, int>> expected;
  for (int i = 0; i < 500; ++i) expected.insert({i, i % 20});
  return expected;
}

std::multiset<std::pair<int, int>> ExtractJoin(
    const std::vector<std::string>& rows, const rel::Schema& schema,
    const std::string& emp_id_col, const std::string& dept_id_col) {
  std::multiset<std::pair<int, int>> out;
  const int e = schema.Find(emp_id_col);
  const int d = schema.Find(dept_id_col);
  EXPECT_GE(e, 0);
  EXPECT_GE(d, 0);
  for (const auto& r : rows) {
    RowView v(r.data(), &schema);
    out.insert({v.GetInt(e), v.GetInt(d)});
  }
  return out;
}

TEST_F(ExecTest, NestedLoopJoinMatchesReference) {
  auto join = std::make_unique<NestedLoopJoinOp>(
      ScanDept(), ScanEmp(), std::vector<JoinKey>{{"d.id", "e.dept_id"}},
      &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 500u);
  EXPECT_EQ(ExtractJoin(*rows, join->output_schema(), "e.id", "d.id"),
            ReferenceJoin());
}

TEST_F(ExecTest, BlockNLJoinMatchesReferenceAcrossBufferSizes) {
  for (uint64_t buffer : {64u, 512u, 1u << 20}) {
    auto join = std::make_unique<BlockNLJoinOp>(
        ScanEmp(), ScanDept(), std::vector<JoinKey>{{"e.dept_id", "d.id"}},
        buffer, &ctx_);
    auto rows = CollectAll(join.get());
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 500u) << "buffer=" << buffer;
    EXPECT_EQ(ExtractJoin(*rows, join->output_schema(), "e.id", "d.id"),
              ReferenceJoin());
    if (buffer <= 512u) {
      EXPECT_GT(static_cast<BlockNLJoinOp*>(join.get())->blocks_used(), 1u);
    }
  }
}

TEST_F(ExecTest, BlockNLJoinWithResidual) {
  // The residual is a FilterOp above the join.
  auto join = std::make_unique<FilterOp>(
      std::make_unique<BlockNLJoinOp>(
          ScanEmp(), ScanDept(), std::vector<JoinKey>{{"e.dept_id", "d.id"}},
          1 << 20, &ctx_),
      Expr::CmpInt("d.budget", CmpOp::kGe, 100000), &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 250u);  // depts 10..19
}

TEST_F(ExecTest, BlockNLJoinProbesEveryInnerRowItPulls) {
  // Outer keys with fan-out 2 (ids 0..39 cover each dept_id twice): one
  // probe emits two rows. Whatever the pull size, the join must not pull an
  // inner row it has not probed yet when it returns a batch.
  for (size_t k : {1u, 3u, 5u, 8u, 64u}) {
    AccessContext join_ctx(&hw_, Actor::kHost, IoPath::kNative);
    auto inner = ScanDept();
    const Operator* inner_ptr = inner.get();
    auto join = std::make_unique<BlockNLJoinOp>(
        ScanEmp(Expr::CmpInt("e.id", CmpOp::kLt, 40)), std::move(inner),
        std::vector<JoinKey>{{"e.dept_id", "d.id"}}, 1 << 20, &join_ctx);
    ASSERT_TRUE(join->Open().ok());
    size_t rows = 0;
    while (RowBatch* b = join->NextBatch(k)) {
      EXPECT_LE(b->num_active(), k);
      rows += b->num_active();
      EXPECT_EQ(inner_ptr->rows_produced(),
                join_ctx.counters().Units(sim::CostKind::kHashProbe))
          << "k=" << k << " after " << rows << " rows";
    }
    EXPECT_EQ(rows, 40u) << "k=" << k;
  }
}

TEST_F(ExecTest, IndexedJoinViaPrimaryKey) {
  // emp.dept_id -> dept.id (pk): BNLJI through primary key seeks.
  auto join = std::make_unique<BlockNLIndexJoinOp>(
      ScanEmp(), "e.dept_id", dept_, "d", "id", ReadOpts(), nullptr,
      std::vector<std::string>{}, 1 << 16, &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 500u);
  EXPECT_EQ(ExtractJoin(*rows, join->output_schema(), "e.id", "d.id"),
            ReferenceJoin());
}

TEST_F(ExecTest, IndexedJoinViaSecondaryIndex) {
  // dept.id -> emp.dept_id (secondary index on emp).
  auto join = std::make_unique<BlockNLIndexJoinOp>(
      ScanDept(), "d.id", emp_, "e", "dept_id", ReadOpts(), nullptr,
      std::vector<std::string>{}, 1 << 16, &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 500u);
  EXPECT_EQ(ExtractJoin(*rows, join->output_schema(), "e.id", "d.id"),
            ReferenceJoin());
  EXPECT_EQ(static_cast<BlockNLIndexJoinOp*>(join.get())->index_lookups(), 20u);
}

/// Forwards to a table, except that every secondary-index walk ends in
/// Corruption.
class CorruptIndexAccessor final : public rel::TableAccessor {
 public:
  explicit CorruptIndexAccessor(const rel::Table* base) : base_(base) {}
  const TableDef& def() const override { return base_->def(); }
  Status GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                 Slice* row) const override {
    return base_->GetByPk(opts, pk, row);
  }
  lsm::IteratorPtr NewScanIterator(
      const lsm::ReadOptions& opts) const override {
    return base_->NewScanIterator(opts);
  }
  lsm::IteratorPtr NewIndexIterator(const lsm::ReadOptions&,
                                    size_t) const override {
    return std::make_unique<lsm::EmptyIterator>(
        Status::Corruption("bad index block"));
  }

 private:
  const rel::Table* base_;
};

TEST_F(ExecTest, IndexedJoinSurfacesIndexIteratorError) {
  // An index walk that ends in an error must fail the join, not look like
  // an outer row without matches.
  const CorruptIndexAccessor emp(emp_);
  auto join = std::make_unique<BlockNLIndexJoinOp>(
      ScanDept(), "d.id", &emp, "e", "dept_id", ReadOpts(), nullptr,
      std::vector<std::string>{}, 1 << 16, &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
}

/// Index iterator over a fixed list of (key, value) entries, sorted.
class SortedEntriesIterator final : public lsm::Iterator {
 public:
  explicit SortedEntriesIterator(
      std::vector<std::pair<std::string, std::string>> entries)
      : entries_(std::move(entries)) {
    std::sort(entries_.begin(), entries_.end());
  }
  bool Valid() const override { return pos_ < entries_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void Seek(const Slice& target) override {
    pos_ = 0;
    while (pos_ < entries_.size() &&
           Slice(entries_[pos_].first).compare(target) < 0) {
      ++pos_;
    }
  }
  void Next() override { ++pos_; }
  Slice key() const override { return Slice(entries_[pos_].first); }
  Slice value() const override { return Slice(entries_[pos_].second); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  size_t pos_ = 0;
};

/// Forwards to a table, except that every secondary-index walk also meets
/// one malformed 5-byte key: the 4-byte prefix of `value` plus a zero byte,
/// which sorts just before that value's real entries.
class MalformedIndexKeyAccessor final : public rel::TableAccessor {
 public:
  MalformedIndexKeyAccessor(const rel::Table* base, int32_t value)
      : base_(base), value_(value) {}
  const TableDef& def() const override { return base_->def(); }
  Status GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                 Slice* row) const override {
    return base_->GetByPk(opts, pk, row);
  }
  lsm::IteratorPtr NewScanIterator(
      const lsm::ReadOptions& opts) const override {
    return base_->NewScanIterator(opts);
  }
  lsm::IteratorPtr NewIndexIterator(const lsm::ReadOptions& opts,
                                    size_t index_no) const override {
    std::vector<std::pair<std::string, std::string>> entries;
    auto iter = base_->NewIndexIterator(opts, index_no);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      entries.emplace_back(iter->key().ToString(), iter->value().ToString());
    }
    entries.emplace_back(rel::EncodeIndexPrefixInt(value_) + '\0', "");
    return std::make_unique<SortedEntriesIterator>(std::move(entries));
  }

 private:
  const rel::Table* base_;
  int32_t value_;
};

TEST_F(ExecTest, IndexScanFailsOnMalformedIndexKey) {
  // Index entries of an int column are 4 + 4 bytes. A key of another
  // length is corrupt, not a stale entry to step over.
  const MalformedIndexKeyAccessor emp(emp_, 7);
  auto scan = std::make_unique<IndexScanOp>(&emp, "e", 0, ReadOpts(), 5, 9,
                                            nullptr,
                                            std::vector<std::string>{});
  auto rows = CollectAll(scan.get());
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
}

TEST_F(ExecTest, IndexedJoinFailsOnMalformedIndexKey) {
  // The walk for dept 7 meets the malformed key first: the join must fail,
  // not return dept 7 without its employees.
  const MalformedIndexKeyAccessor emp(emp_, 7);
  auto join = std::make_unique<BlockNLIndexJoinOp>(
      ScanDept(), "d.id", &emp, "e", "dept_id", ReadOpts(), nullptr,
      std::vector<std::string>{}, 1 << 16, &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
}

TEST_F(ExecTest, IndexedJoinRequiresIndex) {
  auto join = std::make_unique<BlockNLIndexJoinOp>(
      ScanDept(), "d.id", emp_, "e", "salary", ReadOpts(), nullptr,
      std::vector<std::string>{}, 1 << 16, &ctx_);
  EXPECT_FALSE(join->Open().ok());
}

TEST_F(ExecTest, IndexedJoinUnknownInnerProjectionFailsOpen) {
  auto join = std::make_unique<BlockNLIndexJoinOp>(
      ScanDept(), "d.id", emp_, "e", "dept_id", ReadOpts(), nullptr,
      std::vector<std::string>{"e.name", "e.bogus"}, 1 << 16, &ctx_);
  const Status s = join->Open();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(ExecTest, GraceHashJoinMatchesReference) {
  for (int parts : {1, 4, 16}) {
    auto join = std::make_unique<GraceHashJoinOp>(
        ScanDept(), ScanEmp(), std::vector<JoinKey>{{"d.id", "e.dept_id"}},
        parts, &ctx_);
    auto rows = CollectAll(join.get());
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 500u) << "parts=" << parts;
    EXPECT_EQ(ExtractJoin(*rows, join->output_schema(), "e.id", "d.id"),
              ReferenceJoin());
  }
}

TEST_F(ExecTest, JoinKeyWidthMismatchIsRejected) {
  auto join = std::make_unique<BlockNLJoinOp>(
      ScanEmp(), ScanDept(), std::vector<JoinKey>{{"e.name", "d.id"}}, 1 << 20,
      &ctx_);
  EXPECT_FALSE(join->Open().ok());
}

TEST_F(ExecTest, GroupByAggregates) {
  auto agg = std::make_unique<GroupByAggOp>(
      ScanEmp(), std::vector<std::string>{"e.dept_id"},
      std::vector<AggSpec>{{AggFn::kCount, "", "cnt"},
                           {AggFn::kSum, "e.salary", "total"},
                           {AggFn::kMin, "e.salary", "lo"},
                           {AggFn::kMax, "e.salary", "hi"},
                           {AggFn::kAvg, "e.salary", "avg"}},
      &ctx_);
  auto rows = CollectAll(agg.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 20u);

  // Reference aggregation.
  std::map<int, std::vector<int>> ref;
  for (int i = 0; i < 500; ++i) ref[i % 20].push_back(1000 + (i * 37) % 5000);
  const auto& schema = agg->output_schema();
  for (const auto& r : *rows) {
    RowView v(r.data(), &schema);
    const int dept = v.GetInt(0);
    auto& salaries = ref[dept];
    EXPECT_EQ(v.GetInt(schema.Find("cnt")), 25);
    int64_t sum = 0;
    int lo = salaries[0], hi = salaries[0];
    for (int s : salaries) {
      sum += s;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    EXPECT_EQ(v.GetInt(schema.Find("total")), sum);
    EXPECT_EQ(v.GetInt(schema.Find("lo")), lo);
    EXPECT_EQ(v.GetInt(schema.Find("hi")), hi);
    EXPECT_EQ(v.GetInt(schema.Find("avg")), sum / 25);
  }
}

TEST_F(ExecTest, GlobalAggregateWithStringMin) {
  auto agg = std::make_unique<GroupByAggOp>(
      ScanEmp(Expr::CmpInt("e.id", CmpOp::kLt, 3)), std::vector<std::string>{},
      std::vector<AggSpec>{{AggFn::kMin, "e.name", "min_name"},
                           {AggFn::kCount, "", "cnt"},
                           {AggFn::kMax, "e.name", "max_name"}},
      &ctx_);
  auto rows = CollectAll(agg.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  RowView v((*rows)[0].data(), &agg->output_schema());
  EXPECT_EQ(v.GetString(0).ToString(), "emp0");
  EXPECT_EQ(v.GetInt(1), 3);
  EXPECT_EQ(v.GetString(2).ToString(), "emp2");

  // Grouped by dept_id (id % 20) over ids < 120: dept 5 holds emp5, emp25,
  // ..., emp105, whose string order differs from the numeric one.
  auto grouped = std::make_unique<GroupByAggOp>(
      ScanEmp(Expr::CmpInt("e.id", CmpOp::kLt, 120)),
      std::vector<std::string>{"e.dept_id"},
      std::vector<AggSpec>{{AggFn::kMin, "e.name", "min_name"},
                           {AggFn::kMax, "e.name", "max_name"}},
      &ctx_);
  auto group_rows = CollectAll(grouped.get());
  ASSERT_TRUE(group_rows.ok());
  ASSERT_EQ(group_rows->size(), 20u);
  std::map<int64_t, std::pair<std::string, std::string>> by_dept;
  for (const auto& row : *group_rows) {
    RowView g(row.data(), &grouped->output_schema());
    by_dept[g.GetInt(0)] = {g.GetString(1).ToString(),
                            g.GetString(2).ToString()};
  }
  EXPECT_EQ(by_dept[0], std::make_pair(std::string("emp0"),
                                       std::string("emp80")));
  EXPECT_EQ(by_dept[5], std::make_pair(std::string("emp105"),
                                       std::string("emp85")));
}

TEST_F(ExecTest, GlobalAggregateOnEmptyInputEmitsOneRow) {
  auto agg = std::make_unique<GroupByAggOp>(
      ScanEmp(Expr::CmpInt("e.id", CmpOp::kLt, -5)), std::vector<std::string>{},
      std::vector<AggSpec>{{AggFn::kCount, "", "cnt"}}, &ctx_);
  auto rows = CollectAll(agg.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  RowView v((*rows)[0].data(), &agg->output_schema());
  EXPECT_EQ(v.GetInt(0), 0);
}

TEST_F(ExecTest, OperatorsChargeCosts) {
  ctx_.ResetCosts();
  auto join = std::make_unique<BlockNLJoinOp>(
      ScanEmp(), ScanDept(), std::vector<JoinKey>{{"e.dept_id", "d.id"}},
      1 << 20, &ctx_);
  auto rows = CollectAll(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(ctx_.counters().Units(sim::CostKind::kHashBuild), 0u);
  EXPECT_GT(ctx_.counters().Units(sim::CostKind::kHashProbe), 0u);
  EXPECT_GT(ctx_.counters().Units(sim::CostKind::kFlashLoad), 0u);
  EXPECT_GT(ctx_.now(), 0.0);
}

// --- Batch execution (DESIGN.md §10) ---------------------------------------

TEST(RowBatchTest, SelectionNarrowsInPlace) {
  rel::Schema schema({IntCol("a"), CharCol("s", 4)});
  RowBatch b;
  b.Reset(&schema, 4);
  EXPECT_EQ(b.capacity(), 4u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.full());

  for (int i = 0; i < 4; ++i) {
    RowBuilder rb(&schema);
    rb.SetInt(0, i).SetString(1, std::string(1, static_cast<char>('a' + i)));
    b.AppendCopy(rb.row().data());
  }
  EXPECT_TRUE(b.full());
  ASSERT_EQ(b.num_active(), 4u);
  for (uint32_t k = 0; k < 4; ++k) EXPECT_EQ(b.sel(k), k);  // identity

  // Filters narrow by rewriting a prefix of the selection vector; the
  // physical rows stay put.
  uint32_t* sel = b.mutable_sel();
  sel[0] = 1;
  sel[1] = 3;
  b.SetNumActive(2);
  EXPECT_EQ(b.size(), 4u);
  ASSERT_EQ(b.num_active(), 2u);
  EXPECT_EQ(RowView(b.active_row(0), &schema).GetInt(0), 1);
  EXPECT_EQ(RowView(b.active_row(1), &schema).GetInt(0), 3);
  EXPECT_EQ(RowView(b.row(0), &schema).GetInt(0), 0);  // still addressable
}

TEST(RowBatchTest, ResetReusesStorageAndRegrows) {
  rel::Schema narrow({IntCol("a")});
  rel::Schema wide({IntCol("a"), CharCol("pad", 60)});
  RowBatch b;
  b.Reset(&narrow, 8);
  for (int i = 0; i < 8; ++i) {
    RowBuilder rb(&narrow);
    rb.SetInt(0, i);
    b.AppendCopy(rb.row().data());
  }
  EXPECT_TRUE(b.full());

  // Shrinking reuses the existing storage and empties the batch.
  b.Reset(&narrow, 2);
  EXPECT_EQ(b.capacity(), 2u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.num_active(), 0u);
  RowBuilder rb(&narrow);
  rb.SetInt(0, 42);
  b.AppendCopy(rb.row().data());
  EXPECT_EQ(RowView(b.row(0), &narrow).GetInt(0), 42);

  // Regrowing to a wider schema and a larger capacity.
  b.Reset(&wide, 1000);
  EXPECT_EQ(b.capacity(), 1000u);
  EXPECT_EQ(b.row_size(), wide.row_size());
  for (int i = 0; i < 1000; ++i) {
    RowBuilder rw(&wide);
    rw.SetInt(0, i).SetString(1, "x");
    b.AppendCopy(rw.row().data());
  }
  EXPECT_TRUE(b.full());
  EXPECT_EQ(RowView(b.row(999), &wide).GetInt(0), 999);
}

TEST_F(ExecTest, FilterNextBatchCompactsSelection) {
  // FilterOp::NextBatch narrows the child batch's selection in place: the
  // surviving indexes form a strictly increasing prefix and all survivors
  // satisfy the predicate.
  auto scan = ScanEmp();
  auto filter = std::make_unique<FilterOp>(
      std::move(scan), Expr::CmpInt("e.salary", CmpOp::kGe, 4000), &ctx_);
  ASSERT_TRUE(filter->Open().ok());
  const auto& schema = filter->output_schema();
  const int salary_col = schema.Find("e.salary");
  ASSERT_GE(salary_col, 0);
  size_t survivors = 0;
  while (RowBatch* b = filter->NextBatch(64)) {
    EXPECT_LE(b->num_active(), b->size());
    uint32_t prev = 0;
    for (size_t k = 0; k < b->num_active(); ++k) {
      if (k > 0) {
        EXPECT_GT(b->sel(k), prev);
      }
      prev = b->sel(k);
      EXPECT_GE(RowView(b->active_row(k), &schema).GetInt(salary_col), 4000);
      ++survivors;
    }
  }
  // Reference count.
  size_t expected = 0;
  for (int i = 0; i < 500; ++i) {
    if (1000 + (i * 37) % 5000 >= 4000) ++expected;
  }
  EXPECT_EQ(survivors, expected);
}

TEST_F(ExecTest, BatchedScanFilterProjectJoinMatchesRowExecution) {
  // Covers the capacity boundaries: batch size 1, an exact multiple of the
  // 500-row scan (100), a ragged tail (137), and larger-than-input (1024).
  auto build = [this](AccessContext* ctx) -> OperatorPtr {
    lsm::ReadOptions o;
    o.ctx = ctx;
    auto scan_e = std::make_unique<TableScanOp>(
        emp_, "e", o, Expr::CmpInt("e.salary", CmpOp::kGe, 2000),
        std::vector<std::string>{});
    auto scan_d = std::make_unique<TableScanOp>(
        dept_, "d", o, nullptr, std::vector<std::string>{});
    auto join = std::make_unique<BlockNLJoinOp>(
        std::move(scan_e), std::move(scan_d),
        std::vector<JoinKey>{{"e.dept_id", "d.id"}}, 4 << 10, ctx);
    auto filter = std::make_unique<FilterOp>(
        std::move(join), Expr::CmpInt("d.budget", CmpOp::kGe, 30000), ctx);
    return std::make_unique<ProjectOp>(
        std::move(filter), std::vector<std::string>{"e.name", "d.dname"}, ctx);
  };
  ExpectBatchSizeInvariant(build, {100, 137, 1024});
}

TEST_F(ExecTest, BatchedIndexedJoinAndAggMatchRowExecution) {
  auto build = [this](AccessContext* ctx) -> OperatorPtr {
    lsm::ReadOptions o;
    o.ctx = ctx;
    auto scan_d = std::make_unique<TableScanOp>(
        dept_, "d", o, nullptr, std::vector<std::string>{});
    auto join = std::make_unique<BlockNLIndexJoinOp>(
        std::move(scan_d), "d.id", emp_, "e", "dept_id", o, nullptr,
        std::vector<std::string>{}, 1 << 10, ctx);
    return std::make_unique<GroupByAggOp>(
        std::move(join), std::vector<std::string>{"d.dname"},
        std::vector<AggSpec>{{AggFn::kCount, "", "cnt"},
                             {AggFn::kSum, "e.salary", "total"},
                             {AggFn::kMin, "e.salary", "lo"}},
        ctx);
  };
  ExpectBatchSizeInvariant(build, {5, 20, 64});
}

TEST_F(ExecTest, BatchedGraceHashJoinMatchesRowExecution) {
  auto build = [this](AccessContext* ctx) -> OperatorPtr {
    lsm::ReadOptions o;
    o.ctx = ctx;
    auto scan_d = std::make_unique<TableScanOp>(
        dept_, "d", o, nullptr, std::vector<std::string>{});
    auto scan_e = std::make_unique<TableScanOp>(
        emp_, "e", o, nullptr, std::vector<std::string>{});
    return std::make_unique<GraceHashJoinOp>(
        std::move(scan_d), std::move(scan_e),
        std::vector<JoinKey>{{"d.id", "e.dept_id"}}, 4, ctx);
  };
  ExpectBatchSizeInvariant(build, {100, 137, 1024});
}

TEST_F(ExecTest, BatchedNestedLoopJoinMatchesRowExecution) {
  auto build = [this](AccessContext* ctx) -> OperatorPtr {
    lsm::ReadOptions o;
    o.ctx = ctx;
    auto scan_d = std::make_unique<TableScanOp>(
        dept_, "d", o, Expr::CmpInt("d.id", CmpOp::kLt, 6),
        std::vector<std::string>{});
    auto scan_e = std::make_unique<TableScanOp>(
        emp_, "e", o, Expr::CmpInt("e.salary", CmpOp::kGe, 3000),
        std::vector<std::string>{});
    auto join = std::make_unique<NestedLoopJoinOp>(
        std::move(scan_d), std::move(scan_e),
        std::vector<JoinKey>{{"d.id", "e.dept_id"}}, ctx);
    return std::make_unique<FilterOp>(
        std::move(join), Expr::CmpInt("e.id", CmpOp::kGe, 100), ctx);
  };
  ExpectBatchSizeInvariant(build, {7, 100, 1024});
}

TEST_F(ExecTest, ReopenReplaysEveryOperator) {
  // Open restarts a stream: a drained operator opened again yields the
  // same rows and charges the same work (no cache absorbs the re-reads).
  auto opts = [](AccessContext* ctx) {
    lsm::ReadOptions o;
    o.ctx = ctx;
    return o;
  };
  auto scan = [&](const rel::Table* table, const char* alias,
                  AccessContext* ctx, Expr::Ptr pred = nullptr) -> OperatorPtr {
    return std::make_unique<TableScanOp>(table, alias, opts(ctx),
                                         std::move(pred),
                                         std::vector<std::string>{});
  };
  const std::vector<std::pair<std::string,
                              std::function<OperatorPtr(AccessContext*)>>>
      builds = {
          {"TableScan",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<TableScanOp>(
                 emp_, "e", opts(ctx),
                 Expr::CmpInt("e.salary", CmpOp::kGe, 2000),
                 std::vector<std::string>{"e.id", "e.name"});
           }},
          {"IndexScan",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<IndexScanOp>(
                 emp_, "e", 0, opts(ctx), 5, 8,
                 Expr::CmpInt("e.salary", CmpOp::kLt, 3000),
                 std::vector<std::string>{});
           }},
          {"Filter",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<FilterOp>(
                 scan(emp_, "e", ctx),
                 Expr::CmpInt("e.dept_id", CmpOp::kLe, 4), ctx);
           }},
          {"Project",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<ProjectOp>(
                 scan(dept_, "d", ctx),
                 std::vector<std::string>{"d.dname", "d.id"}, ctx);
           }},
          {"NLJ",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<NestedLoopJoinOp>(
                 scan(dept_, "d", ctx, Expr::CmpInt("d.id", CmpOp::kLt, 4)),
                 scan(emp_, "e", ctx),
                 std::vector<JoinKey>{{"d.id", "e.dept_id"}}, ctx);
           }},
          {"BNLJ",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<BlockNLJoinOp>(
                 scan(emp_, "e", ctx), scan(dept_, "d", ctx),
                 std::vector<JoinKey>{{"e.dept_id", "d.id"}}, 2 << 10, ctx);
           }},
          {"BNLJI",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<BlockNLIndexJoinOp>(
                 scan(dept_, "d", ctx), "d.id", emp_, "e", "dept_id",
                 opts(ctx), nullptr, std::vector<std::string>{}, 1 << 8, ctx);
           }},
          {"GHJ",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<GraceHashJoinOp>(
                 scan(dept_, "d", ctx), scan(emp_, "e", ctx),
                 std::vector<JoinKey>{{"d.id", "e.dept_id"}}, 4, ctx);
           }},
          {"GroupByAgg",
           [&](AccessContext* ctx) -> OperatorPtr {
             return std::make_unique<GroupByAggOp>(
                 scan(emp_, "e", ctx), std::vector<std::string>{"e.dept_id"},
                 std::vector<AggSpec>{{AggFn::kCount, "", "cnt"},
                                      {AggFn::kMax, "e.name", "hi"}},
                 ctx);
           }},
      };
  for (const auto& [name, build] : builds) {
    SCOPED_TRACE(name);
    // Warm-up: absorb the SST readers' one-time index loads (see
    // ExpectBatchSizeInvariant).
    {
      AccessContext warm(&hw_, Actor::kHost, IoPath::kNative);
      auto op = build(&warm);
      ASSERT_TRUE(CollectAll(op.get()).ok());
    }
    AccessContext ctx(&hw_, Actor::kHost, IoPath::kNative);
    auto op = build(&ctx);
    auto first = CollectAll(op.get(), 64);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_GT(first->size(), 0u);
    const sim::CostCounters first_costs = ctx.counters();
    ctx.ResetCosts();
    auto second = CollectAll(op.get(), 64);  // opens the same operator again
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(*second, *first);
    EXPECT_EQ(ctx.counters().units, first_costs.units);
    EXPECT_EQ(ctx.counters().time_ps, first_costs.time_ps);
  }
}

TEST_F(ExecTest, ZeroByteJoinBufferFailsOpen) {
  // No outer row fits an empty block: both block joins refuse to open
  // instead of returning an empty result.
  auto bnlj = std::make_unique<BlockNLJoinOp>(
      ScanEmp(), ScanDept(), std::vector<JoinKey>{{"e.dept_id", "d.id"}}, 0,
      &ctx_);
  EXPECT_TRUE(bnlj->Open().IsInvalidArgument());
  auto bnlji = std::make_unique<BlockNLIndexJoinOp>(
      ScanEmp(), "e.dept_id", dept_, "d", "id", ReadOpts(), nullptr,
      std::vector<std::string>{}, 0, &ctx_);
  EXPECT_TRUE(bnlji->Open().IsInvalidArgument());
}

TEST_F(ExecTest, ExprSplitConjuncts) {
  auto e = Expr::And({Expr::CmpInt("a", CmpOp::kEq, 1),
                      Expr::And({Expr::CmpInt("b", CmpOp::kEq, 2),
                                 Expr::CmpInt("c", CmpOp::kEq, 3)})});
  std::vector<Expr::Ptr> conjuncts;
  Expr::SplitConjuncts(e, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST_F(ExecTest, ExprToStringRendersSql) {
  auto e = Expr::And({Expr::CmpStr("ct.kind", CmpOp::kEq, "production companies"),
                      Expr::Like("mc.note", "%(presents)%", true)});
  EXPECT_EQ(e->ToString(),
            "(ct.kind = 'production companies' AND mc.note NOT LIKE "
            "'%(presents)%')");
}

}  // namespace
}  // namespace hybridndp::exec
