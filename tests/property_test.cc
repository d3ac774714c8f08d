// Property tests: randomized select-project-join-aggregate queries are
// executed under EVERY strategy (BLK, NATIVE, H0..Hk, full NDP) and checked
// against a brute-force in-memory reference evaluator. This pins down the
// end-to-end correctness of the planner, both executors, the cooperative
// plumbing, and the device snapshot path in one sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "lsm/db.h"
#include "orders_world.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

using exec::CmpOp;
using exec::Expr;
using hybrid::ExecChoice;
using hybrid::Query;
using hybrid::Strategy;
using rel::CharCol;
using rel::IntCol;
using rel::RowBuilder;
using rel::RowView;
using sim::HwParams;

/// In-memory copy of the generated data for the reference evaluator.
struct RefData {
  // fact(id, a_ref, b_ref, v, tag) ; dim_a(id, grade, label) ; dim_b(id, w)
  struct FactRow {
    int id, a_ref, b_ref, v;
    std::string tag;
  };
  struct ARow {
    int id, grade;
    std::string label;
  };
  struct BRow {
    int id, w;
  };
  std::vector<FactRow> fact;
  std::vector<ARow> dim_a;
  std::vector<BRow> dim_b;
};

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  PropertyTest()
      : hw_(MakeHw()), storage_(&hw_), db_(&storage_, MakeDbOptions()),
        catalog_(&db_) {
    rel::TableDef fact;
    fact.name = "fact";
    fact.schema = rel::Schema({IntCol("id"), IntCol("a_ref"), IntCol("b_ref"),
                               IntCol("v"), CharCol("tag", 8)});
    fact.pk_col = 0;
    fact.indexes.push_back({"a_ref", 1});
    fact.indexes.push_back({"b_ref", 2});
    fact_ = catalog_.CreateTable(std::move(fact));

    rel::TableDef dim_a;
    dim_a.name = "dim_a";
    dim_a.schema =
        rel::Schema({IntCol("id"), IntCol("grade"), CharCol("label", 8)});
    dim_a.pk_col = 0;
    dim_a_ = catalog_.CreateTable(std::move(dim_a));

    rel::TableDef dim_b;
    dim_b.name = "dim_b";
    dim_b.schema = rel::Schema({IntCol("id"), IntCol("w")});
    dim_b.pk_col = 0;
    dim_b_ = catalog_.CreateTable(std::move(dim_b));

    Rng rng(GetParam() * 7919 + 13);
    const int n_a = 40 + static_cast<int>(rng.Uniform(60));
    const int n_b = 10 + static_cast<int>(rng.Uniform(30));
    const int n_fact = 1500 + static_cast<int>(rng.Uniform(2500));

    for (int i = 1; i <= n_a; ++i) {
      RefData::ARow row{i, static_cast<int>(rng.Uniform(5)),
                        "l" + std::to_string(rng.Uniform(7))};
      ref_.dim_a.push_back(row);
      RowBuilder rb(&dim_a_->schema());
      rb.SetInt(0, row.id).SetInt(1, row.grade).SetString(2, row.label);
      EXPECT_TRUE(dim_a_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= n_b; ++i) {
      RefData::BRow row{i, static_cast<int>(rng.Uniform(1000))};
      ref_.dim_b.push_back(row);
      RowBuilder rb(&dim_b_->schema());
      rb.SetInt(0, row.id).SetInt(1, row.w);
      EXPECT_TRUE(dim_b_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= n_fact; ++i) {
      RefData::FactRow row{i,
                           1 + static_cast<int>(rng.Zipf(n_a, 0.4)),
                           1 + static_cast<int>(rng.Uniform(n_b)),
                           static_cast<int>(rng.Uniform(100)),
                           rng.Bernoulli(0.3) ? "hot" : "cold"};
      ref_.fact.push_back(row);
      RowBuilder rb(&fact_->schema());
      rb.SetInt(0, row.id)
          .SetInt(1, row.a_ref)
          .SetInt(2, row.b_ref)
          .SetInt(3, row.v)
          .SetString(4, row.tag);
      EXPECT_TRUE(fact_->Insert(rb.row()).ok());
    }
    EXPECT_TRUE(db_.FlushAll().ok());
    for (auto* t : catalog_.tables()) EXPECT_TRUE(t->AnalyzeStats().ok());
  }

  static HwParams MakeHw() {
    HwParams hw = HwParams::PaperDefaults();
    hw.mem.device_ndp_budget_bytes = 2 << 20;
    return hw;
  }
  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 64 << 10;
    return o;
  }
  hybrid::PlannerConfig MakePlannerConfig() {
    hybrid::PlannerConfig cfg;
    cfg.buffers.selection_buffer_bytes = 48 << 10;
    cfg.buffers.join_buffer_bytes = 16 << 10;
    cfg.buffers.shared_slot_bytes = 4 << 10;
    cfg.buffers.shared_slots = 4;
    return cfg;
  }

  /// Randomized query: fact joins one or both dimensions, random predicates,
  /// COUNT + SUM(v) + MIN(a.label) aggregate (deterministic per seed).
  Query MakeRandomQuery(Rng* rng, bool* uses_b) {
    Query q;
    q.name = "prop";
    const int v_cut = static_cast<int>(rng->Uniform(100));
    const int grade_cut = static_cast<int>(rng->Uniform(5));
    Expr::Ptr fact_pred = nullptr;
    if (rng->Bernoulli(0.7)) {
      fact_pred = Expr::CmpInt("f.v", CmpOp::kGe, v_cut);
      if (rng->Bernoulli(0.4)) {
        fact_pred = Expr::And(
            {fact_pred, Expr::CmpStr("f.tag", CmpOp::kEq, "hot")});
      }
    }
    q.tables.push_back({"fact", "f", fact_pred});
    q.tables.push_back(
        {"dim_a", "a", Expr::CmpInt("a.grade", CmpOp::kLe, grade_cut)});
    q.joins.push_back({"f", "a_ref", "a", "id"});
    *uses_b = rng->Bernoulli(0.6);
    if (*uses_b) {
      q.tables.push_back({"dim_b", "b", nullptr});
      q.joins.push_back({"f", "b_ref", "b", "id"});
    }
    q.has_agg = true;
    q.aggs = {{exec::AggFn::kCount, "", "cnt"},
              {exec::AggFn::kSum, "f.v", "sum_v"},
              {exec::AggFn::kMin, "a.label", "min_label"}};
    params_ = {v_cut, grade_cut, fact_pred != nullptr,
               fact_pred != nullptr && fact_pred->kind == exec::ExprKind::kAnd};
    return q;
  }

  struct QueryParams {
    int v_cut = 0;
    int grade_cut = 0;
    bool has_fact_pred = false;
    bool has_tag_pred = false;
  };

  /// Brute-force reference: returns (count, sum_v, min_label).
  std::tuple<int64_t, int64_t, std::string> Reference(bool uses_b) {
    int64_t count = 0, sum = 0;
    std::string min_label;
    std::map<int, const RefData::ARow*> a_by_id;
    for (const auto& a : ref_.dim_a) a_by_id[a.id] = &a;
    std::set<int> b_ids;
    for (const auto& b : ref_.dim_b) b_ids.insert(b.id);

    for (const auto& f : ref_.fact) {
      if (params_.has_fact_pred && f.v < params_.v_cut) continue;
      if (params_.has_tag_pred && f.tag != "hot") continue;
      auto it = a_by_id.find(f.a_ref);
      if (it == a_by_id.end()) continue;
      if (it->second->grade > params_.grade_cut) continue;
      if (uses_b && !b_ids.count(f.b_ref)) continue;
      ++count;
      sum += f.v;
      if (min_label.empty() || it->second->label < min_label) {
        min_label = it->second->label;
      }
    }
    return {count, sum, min_label};
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
  rel::Table* fact_ = nullptr;
  rel::Table* dim_a_ = nullptr;
  rel::Table* dim_b_ = nullptr;
  RefData ref_;
  QueryParams params_;
};

TEST_P(PropertyTest, EveryStrategyMatchesBruteForceReference) {
  Rng rng(GetParam() * 104729 + 1);
  bool uses_b = false;
  Query q = MakeRandomQuery(&rng, &uses_b);

  hybrid::Planner planner(&catalog_, &hw_, MakePlannerConfig());
  auto plan = planner.PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto [ref_count, ref_sum, ref_min] = Reference(uses_b);

  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_,
                                  MakePlannerConfig());
  int executed = 0;
  for (const auto& choice : hybrid::HybridExecutor::AllChoices(*plan)) {
    lsm::BlockCache cache(16 << 20);
    auto r = executor.Run(*plan, choice, &cache);
    if (!r.ok() && r.status().IsResourceExhausted()) continue;
    ASSERT_TRUE(r.ok()) << choice.ToString() << ": "
                        << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << choice.ToString();
    RowView row(r->rows[0].data(), &r->schema);
    const int cnt_col = r->schema.Find("cnt");
    const int sum_col = r->schema.Find("sum_v");
    const int min_col = r->schema.Find("min_label");
    ASSERT_GE(cnt_col, 0);
    EXPECT_EQ(row.GetInt(cnt_col), ref_count) << choice.ToString();
    EXPECT_EQ(row.GetInt(sum_col), ref_sum) << choice.ToString();
    if (ref_count > 0) {
      EXPECT_EQ(row.GetString(min_col).ToString(), ref_min)
          << choice.ToString();
    }
    ++executed;
  }
  EXPECT_GE(executed, 3);  // at least BLK, NATIVE and one offload variant
}

// Batch execution: for the same random operator tree, the batched pipeline
// must produce the same rows AND the same simulated metrics as one row per
// pull, for every strategy, at a ragged (7), the default (1024) and a
// random batch capacity.
TEST_P(PropertyTest, BatchedExecutionMatchesRowExecutionOnRandomTrees) {
  Rng rng(GetParam() * 31337 + 7);
  bool uses_b = false;
  Query q = MakeRandomQuery(&rng, &uses_b);

  hybrid::Planner planner(&catalog_, &hw_, MakePlannerConfig());
  auto plan = planner.PlanQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto run_all = [&](size_t batch_rows) {
    hybrid::PlannerConfig cfg = MakePlannerConfig();
    cfg.exec_batch_rows = batch_rows;
    hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
    std::vector<Result<hybrid::RunResult>> out;
    for (const auto& choice : hybrid::HybridExecutor::AllChoices(*plan)) {
      lsm::BlockCache cache(16 << 20);
      out.push_back(executor.Run(*plan, choice, &cache));
    }
    return out;
  };

  const auto row_mode = run_all(1);
  const size_t random_rows = 2 + rng.Uniform(200);
  for (const size_t batch_rows : {size_t{7}, size_t{1024}, random_rows}) {
    const auto batch_mode = run_all(batch_rows);
    ASSERT_EQ(row_mode.size(), batch_mode.size());
    for (size_t i = 0; i < row_mode.size(); ++i) {
      SCOPED_TRACE("choice " + std::to_string(i) + " batch_rows=" +
                   std::to_string(batch_rows));
      ASSERT_EQ(row_mode[i].ok(), batch_mode[i].ok());
      if (!row_mode[i].ok()) continue;
      ExpectIdentical(*row_mode[i], *batch_mode[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace hybridndp
