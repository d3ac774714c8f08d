// JOB workload tests: schema integrity, generator determinism and FK
// validity, the 113-query catalog, and end-to-end execution consistency
// across all strategies on a small scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "job/generator.h"
#include "job/queries.h"
#include "job/schema.h"
#include "sim/hw_model.h"

namespace hybridndp::job {
namespace {

using hybrid::ExecChoice;
using hybrid::HybridExecutor;
using hybrid::Planner;
using hybrid::PlannerConfig;
using hybrid::Strategy;
using sim::HwParams;

TEST(JobSchemaTest, TwentyOneTablesSummingToPaperTotal) {
  const auto& tables = JobTables();
  EXPECT_EQ(tables.size(), 21u);
  uint64_t total = 0;
  for (const auto& t : tables) total += t.base_rows;
  // Paper Sect. 5: ~74 million records.
  EXPECT_GT(total, 70'000'000u);
  EXPECT_LT(total, 78'000'000u);
}

TEST(JobSchemaTest, EveryTableHasValidDef) {
  for (const auto& spec : JobTables()) {
    rel::TableDef def = MakeJobTableDef(spec.name);
    ASSERT_GT(def.schema.num_columns(), 0u) << spec.name;
    EXPECT_EQ(def.schema.column(0).name, "id") << spec.name;
    EXPECT_EQ(def.schema.row_size() % 4, 0u) << spec.name;  // 4B alignment
    for (const auto& idx : def.indexes) {
      ASSERT_GE(idx.col, 0) << spec.name;
      ASSERT_LT(idx.col, static_cast<int>(def.schema.num_columns()))
          << spec.name;
    }
  }
}

TEST(JobQueriesTest, CatalogHas113QueriesIn33Groups) {
  const auto all = AllJobQueries();
  EXPECT_EQ(all.size(), 113u);
  std::set<int> groups;
  for (const auto& id : all) groups.insert(id.group);
  EXPECT_EQ(groups.size(), 33u);
}

TEST(JobQueriesTest, EveryQueryIsWellFormed) {
  for (const auto& id : AllJobQueries()) {
    auto q = MakeJobQuery(id);
    ASSERT_TRUE(q.ok()) << id.ToString();
    EXPECT_GE(q->tables.size(), 4u) << id.ToString();
    EXPECT_GE(q->joins.size(), q->tables.size() - 1) << id.ToString();
    EXPECT_TRUE(q->has_agg) << id.ToString();
    // Each join edge references declared aliases.
    for (const auto& e : q->joins) {
      EXPECT_GE(q->FindTable(e.left_alias), 0)
          << id.ToString() << " " << e.left_alias;
      EXPECT_GE(q->FindTable(e.right_alias), 0)
          << id.ToString() << " " << e.right_alias;
    }
  }
}

TEST(JobQueriesTest, UnknownQueriesRejected) {
  EXPECT_FALSE(MakeJobQuery({99, 'a'}).ok());
  EXPECT_FALSE(MakeJobQuery({1, 'z'}).ok());
}

TEST(JobQueriesTest, PaperListingsMatch) {
  // Listing 1 (Q1a): 5 tables, company_type + info_type filters.
  auto q1 = MakeJobQuery({1, 'a'});
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->tables.size(), 5u);
  EXPECT_EQ(q1->tables[0].alias, "ct");
  EXPECT_EQ(q1->tables[0].predicate->ToString(),
            "ct.kind = 'production companies'");
  // Listing 3 (Q8c): 7 tables, rt.role = 'writer'; Q8d: 'costume designer'.
  auto q8c = MakeJobQuery({8, 'c'});
  ASSERT_TRUE(q8c.ok());
  EXPECT_EQ(q8c->tables.size(), 7u);
  bool found_writer = false;
  for (const auto& t : q8c->tables) {
    if (t.alias == "rt") {
      EXPECT_EQ(t.predicate->ToString(), "rt.role = 'writer'");
      found_writer = true;
    }
  }
  EXPECT_TRUE(found_writer);
  auto q8d = MakeJobQuery({8, 'd'});
  ASSERT_TRUE(q8d.ok());
  for (const auto& t : q8d->tables) {
    if (t.alias == "rt") {
      EXPECT_EQ(t.predicate->ToString(), "rt.role = 'costume designer'");
    }
  }
}

class JobDatabaseTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.0002;  // ~15k rows

  JobDatabaseTest()
      : hw_(MakeHw()), storage_(&hw_), db_(&storage_, MakeDbOptions()),
        catalog_(&db_) {
    JobDataOptions opts;
    opts.scale = kScale;
    Status s = BuildJobDatabase(&catalog_, opts);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  static HwParams MakeHw() {
    HwParams hw = HwParams::PaperDefaults();
    hw.mem.device_selection_bytes = 64 << 10;
    hw.mem.device_join_bytes = 32 << 10;
    hw.mem.device_ndp_budget_bytes = 16 << 20;
    return hw;
  }
  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 256 << 10;
    return o;
  }
  PlannerConfig MakePlannerConfig() {
    PlannerConfig cfg;
    cfg.buffers.selection_buffer_bytes = 64 << 10;
    cfg.buffers.join_buffer_bytes = 32 << 10;
    cfg.buffers.shared_slot_bytes = 8 << 10;
    cfg.buffers.shared_slots = 4;
    return cfg;
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
};

TEST_F(JobDatabaseTest, GeneratorProducesScaledCardinalities) {
  for (const auto& spec : JobTables()) {
    rel::Table* t = catalog_.Get(spec.name);
    ASSERT_NE(t, nullptr) << spec.name;
    EXPECT_EQ(t->row_count(), ScaledRows(spec, kScale)) << spec.name;
  }
  // Dimensions keep their exact sizes.
  EXPECT_EQ(catalog_.Get("info_type")->row_count(), 113u);
  EXPECT_EQ(catalog_.Get("company_type")->row_count(), 4u);
  EXPECT_EQ(catalog_.Get("role_type")->row_count(), 12u);
}

TEST_F(JobDatabaseTest, ForeignKeysResolve) {
  // Every movie_companies.movie_id must exist in title.
  rel::Table* mc = catalog_.Get("movie_companies");
  rel::Table* title = catalog_.Get("title");
  auto iter = mc->NewScanIterator(lsm::ReadOptions{});
  int checked = 0;
  for (iter->SeekToFirst(); iter->Valid() && checked < 200;
       iter->Next(), ++checked) {
    rel::RowView row(iter->value().data(), &mc->schema());
    std::string out;
    EXPECT_TRUE(title->GetByPk(lsm::ReadOptions{}, row.GetInt(1), &out).ok())
        << "movie_id " << row.GetInt(1);
  }
  EXPECT_GT(checked, 0);
}

TEST_F(JobDatabaseTest, StatsCollected) {
  rel::Table* t = catalog_.Get("title");
  ASSERT_FALSE(t->stats().empty());
  EXPECT_EQ(t->stats().row_count, t->row_count());
  const auto& year = t->stats().col(3);
  EXPECT_GE(year.min_int, 1880);
  EXPECT_LE(year.max_int, 2019);
  EXPECT_GT(year.ndv, 10u);
}

TEST_F(JobDatabaseTest, GeneratorIsDeterministic) {
  lsm::VirtualStorage storage2(&hw_);
  lsm::DB db2(&storage2, MakeDbOptions());
  rel::Catalog catalog2(&db2);
  JobDataOptions opts;
  opts.scale = kScale;
  ASSERT_TRUE(BuildJobDatabase(&catalog2, opts).ok());

  rel::Table* a = catalog_.Get("title");
  rel::Table* b = catalog2.Get("title");
  auto ia = a->NewScanIterator(lsm::ReadOptions{});
  auto ib = b->NewScanIterator(lsm::ReadOptions{});
  ia->SeekToFirst();
  ib->SeekToFirst();
  int rows = 0;
  while (ia->Valid() && ib->Valid()) {
    ASSERT_EQ(ia->value().ToString(), ib->value().ToString());
    ia->Next();
    ib->Next();
    ++rows;
  }
  EXPECT_EQ(ia->Valid(), ib->Valid());
  EXPECT_GT(rows, 100);
}

TEST_F(JobDatabaseTest, All113QueriesPlan) {
  Planner planner(&catalog_, &hw_, MakePlannerConfig());
  for (const auto& id : AllJobQueries()) {
    auto q = MakeJobQuery(id);
    ASSERT_TRUE(q.ok()) << id.ToString();
    auto plan = planner.PlanQuery(*q);
    ASSERT_TRUE(plan.ok()) << id.ToString() << ": "
                           << plan.status().ToString();
    EXPECT_EQ(plan->order.size(), q->tables.size()) << id.ToString();
    EXPECT_GT(plan->c_total_host, 0) << id.ToString();
    EXPECT_GT(plan->c_total_dev, 0) << id.ToString();
  }
}

TEST_F(JobDatabaseTest, All113QueriesExecuteUnderRecommendedStrategy) {
  Planner planner(&catalog_, &hw_, MakePlannerConfig());
  HybridExecutor executor(&catalog_, &storage_, &hw_, MakePlannerConfig());
  for (const auto& id : AllJobQueries()) {
    auto q = MakeJobQuery(id);
    ASSERT_TRUE(q.ok()) << id.ToString();
    auto plan = planner.PlanQuery(*q);
    ASSERT_TRUE(plan.ok()) << id.ToString();
    lsm::BlockCache cache(64 << 20);
    auto r = executor.Run(*plan, plan->recommended, &cache);
    if (!r.ok() && r.status().IsResourceExhausted()) {
      // Legal planner outcome at tiny scale; host-only must still work.
      r = executor.Run(*plan, {Strategy::kHostBlk, 0}, &cache);
    }
    ASSERT_TRUE(r.ok()) << id.ToString() << ": " << r.status().ToString();
    // Every JOB query is a global aggregate: exactly one result row.
    EXPECT_EQ(r->rows.size(), 1u) << id.ToString();
    EXPECT_GT(r->total_ns, 0) << id.ToString();
  }
}

TEST_F(JobDatabaseTest, SampleQueriesConsistentAcrossStrategies) {
  // Paper detail queries + a couple of structurally different groups.
  const std::vector<JobQueryId> sample = {
      {1, 'a'}, {3, 'b'}, {8, 'c'}, {8, 'd'}, {17, 'b'}, {32, 'b'}};
  Planner planner(&catalog_, &hw_, MakePlannerConfig());
  HybridExecutor executor(&catalog_, &storage_, &hw_, MakePlannerConfig());

  for (const auto& id : sample) {
    auto q = MakeJobQuery(id);
    ASSERT_TRUE(q.ok());
    auto plan = planner.PlanQuery(*q);
    ASSERT_TRUE(plan.ok()) << id.ToString();

    std::multiset<std::string> reference;
    bool have_reference = false;
    for (const auto& choice : HybridExecutor::AllChoices(*plan)) {
      lsm::BlockCache cache(256 << 20);
      auto result = executor.Run(*plan, choice, &cache);
      if (!result.ok() && result.status().IsResourceExhausted()) {
        continue;  // split too deep for the device budget: legal outcome
      }
      ASSERT_TRUE(result.ok())
          << id.ToString() << " " << choice.ToString() << ": "
          << result.status().ToString();
      auto canon =
          std::multiset<std::string>(result->rows.begin(), result->rows.end());
      if (!have_reference) {
        reference = canon;
        have_reference = true;
      } else {
        EXPECT_EQ(canon, reference)
            << id.ToString() << " " << choice.ToString();
      }
    }
    EXPECT_TRUE(have_reference) << id.ToString();
    // Aggregate queries always emit one row.
    EXPECT_EQ(reference.size(), 1u) << id.ToString();
  }
}

TEST_F(JobDatabaseTest, SampleQueriesKeepResultsUnderForcedJoinAlgos) {
  // Callers may override a position's join algorithm after planning (the
  // join-algorithm benches do). Every override that applies must keep the
  // host-only result under every strategy: BNLJI joins on one indexed edge
  // and filters the plan's residual, BNLJ and GHJ join on every key.
  const std::vector<JobQueryId> sample = {
      {1, 'a'}, {3, 'b'}, {8, 'c'}, {8, 'd'}, {17, 'b'}, {32, 'b'}};
  Planner planner(&catalog_, &hw_, MakePlannerConfig());
  HybridExecutor executor(&catalog_, &storage_, &hw_, MakePlannerConfig());
  auto run = [&](const hybrid::Plan& plan, const ExecChoice& choice) {
    lsm::BlockCache cache(256 << 20);
    return executor.Run(plan, choice, &cache);
  };

  bool saw_residual = false;
  for (const auto& id : sample) {
    auto q = MakeJobQuery(id);
    ASSERT_TRUE(q.ok());
    auto plan = planner.PlanQuery(*q);
    ASSERT_TRUE(plan.ok()) << id.ToString();
    auto host = run(*plan, {Strategy::kHostNative, 0});
    ASSERT_TRUE(host.ok()) << id.ToString();
    const std::multiset<std::string> reference(host->rows.begin(),
                                               host->rows.end());
    for (const auto& pt : plan->order) {
      if (pt.join.residual != nullptr) saw_residual = true;
    }

    for (auto algo : {nkv::JoinAlgo::kBNLJI, nkv::JoinAlgo::kBNLJ,
                      nkv::JoinAlgo::kGHJ}) {
      hybrid::Plan forced = *plan;
      for (size_t i = 1; i < forced.order.size(); ++i) {
        nkv::NdpJoinStage& join = forced.order[i].join;
        const bool applies = algo == nkv::JoinAlgo::kBNLJI
                                 ? !join.outer_key_col.empty()
                                 : !join.keys.empty();
        if (applies) join.algo = algo;
      }
      for (const auto& choice : HybridExecutor::AllChoices(forced)) {
        auto result = run(forced, choice);
        if (!result.ok() && result.status().IsResourceExhausted()) continue;
        ASSERT_TRUE(result.ok())
            << id.ToString() << " " << nkv::JoinAlgoName(algo) << " "
            << choice.ToString() << ": " << result.status().ToString();
        EXPECT_EQ(std::multiset<std::string>(result->rows.begin(),
                                             result->rows.end()),
                  reference)
            << id.ToString() << " " << nkv::JoinAlgoName(algo) << " "
            << choice.ToString();
      }
    }
  }
  // The sample exercises BNLJI's residual over the edges past the first.
  EXPECT_TRUE(saw_residual);
}

TEST_F(JobDatabaseTest, PlanResidualFiltersOnlyUnderBnlji) {
  // JOB's extra join edges are implied by earlier ones, so the test above
  // cannot tell whether a residual is applied at all. A never-true residual
  // can: under BNLJI it filters every joined row on both sides of the
  // split, while BNLJ joins on every key and ignores it, and so does H0,
  // whose host joins the shipped streams on every key.
  Planner planner(&catalog_, &hw_, MakePlannerConfig());
  HybridExecutor executor(&catalog_, &storage_, &hw_, MakePlannerConfig());
  auto q = MakeJobQuery({1, 'a'});
  ASSERT_TRUE(q.ok());
  auto plan = planner.PlanQuery(*q);
  ASSERT_TRUE(plan.ok());
  auto pos = std::find_if(plan->order.begin(), plan->order.end(),
                          [](const hybrid::PlannedTable& pt) {
                            return pt.join.residual != nullptr;
                          });
  ASSERT_NE(pos, plan->order.end());
  auto host = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(host.ok());

  hybrid::Plan forced = *plan;
  nkv::NdpJoinStage& join = forced.order[pos - plan->order.begin()].join;
  join.residual = exec::Expr::CmpCol(join.keys[0].left_col, exec::CmpOp::kNe,
                                     join.keys[0].right_col);
  for (auto algo : {nkv::JoinAlgo::kBNLJI, nkv::JoinAlgo::kBNLJ}) {
    join.algo = algo;
    for (const auto& choice : HybridExecutor::AllChoices(forced)) {
      lsm::BlockCache cache(256 << 20);
      auto result = executor.Run(forced, choice, &cache);
      if (!result.ok() && result.status().IsResourceExhausted()) continue;
      ASSERT_TRUE(result.ok()) << choice.ToString();
      const bool h0 = choice.strategy == Strategy::kHybrid &&
                      choice.split_joins == 0;
      if (algo == nkv::JoinAlgo::kBNLJI && !h0) {
        EXPECT_NE(result->rows, host->rows) << choice.ToString();
      } else {
        EXPECT_EQ(result->rows, host->rows) << choice.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace hybridndp::job
