// Tests for the hybridNDP planner (cost model, split points) and the
// cooperative executor: every strategy must produce identical results, and
// the simulated timelines must respect the paper's structural properties
// (device slower at compute, waits accounted, slots bound run-ahead).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>

#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "job/generator.h"
#include "lsm/db.h"
#include "ndp/device_executor.h"
#include "nkv/ndp_command.h"
#include "orders_world.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp::hybrid {
namespace {

using exec::CmpOp;
using exec::Expr;
using rel::CharCol;
using rel::IntCol;
using rel::RowBuilder;
using sim::HwParams;

/// The orders world at full size (200 customers, 100 products, 5000
/// orders).
class HybridTest : public OrdersWorld {};

TEST_F(HybridTest, SelectivityEstimationTracksReality) {
  auto pred = Expr::CmpStr("c.city", CmpOp::kEq, "berlin");
  const double sel = EstimateSelectivity(pred.get(), cust_->stats(),
                                         cust_->schema(), "c");
  // True selectivity is 40/200 = 0.2; the NDV estimator should be in range.
  EXPECT_GT(sel, 0.02);
  EXPECT_LT(sel, 0.6);

  auto range = Expr::Between("p.price", 10, 509);
  const double rsel = EstimateSelectivity(range.get(), prod_->stats(),
                                          prod_->schema(), "p");
  EXPECT_GT(rsel, 0.9);  // covers the whole domain
}

TEST_F(HybridTest, SelectivityOfIntBoundsBeyondInt32) {
  // Literals are int64; bounds past int32 select nothing or everything,
  // without wrapping (c.id spans 1..200).
  const int64_t kMin = std::numeric_limits<int32_t>::min();
  const int64_t kMax = std::numeric_limits<int32_t>::max();
  auto sel = [&](CmpOp op, int64_t v) {
    auto pred = Expr::CmpInt("c.id", op, v);
    return EstimateSelectivity(pred.get(), cust_->stats(), cust_->schema(),
                               "c");
  };
  EXPECT_EQ(sel(CmpOp::kLt, kMin), 0.0);
  EXPECT_EQ(sel(CmpOp::kGe, kMin), 1.0);
  EXPECT_EQ(sel(CmpOp::kEq, kMin), 0.0);
  EXPECT_EQ(sel(CmpOp::kEq, kMax + 1), 0.0);
  EXPECT_EQ(sel(CmpOp::kGt, kMax), 0.0);
  EXPECT_EQ(sel(CmpOp::kLe, kMax + 1), 1.0);
}

TEST_F(HybridTest, PlannerBuildsConnectedLeftDeepOrder) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_tables(), 3);
  // Every non-first table must join the prefix with keys or an index edge.
  for (size_t i = 1; i < plan->order.size(); ++i) {
    const auto& pt = plan->order[i];
    EXPECT_TRUE(!pt.join.keys.empty() || !pt.join.outer_key_col.empty())
        << "position " << i;
  }
  // Cumulative device costs are monotone (Fig. 5).
  for (size_t i = 1; i < plan->order.size(); ++i) {
    EXPECT_GE(plan->order[i].cum_dev, plan->order[i - 1].cum_dev);
  }
  EXPECT_GT(plan->c_target, 0);
  EXPECT_FALSE(plan->Explain().empty());
}

TEST_F(HybridTest, JoinAlgorithmChoiceIsCostBased) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  // All tables here are a handful of flash pages: streaming them (BNLJ)
  // beats per-row random index lookups, and the cost model must say so.
  // Every join still records its equi-keys for the hash path.
  for (size_t i = 1; i < plan->order.size(); ++i) {
    EXPECT_EQ(plan->order[i].join.algo, nkv::JoinAlgo::kBNLJ) << i;
    EXPECT_FALSE(plan->order[i].join.keys.empty()) << i;
    // The BNLJI candidacy was detected (pk join columns).
    EXPECT_FALSE(plan->order[i].join.outer_key_col.empty()) << i;
  }
}

// BNLJ-vs-BNLJI crossover: index lookups win once streaming the inner table
// costs more than the expected random misses (the regime the paper's Exp. 5
// exploits on-device). Built with a large inner table and a tiny outer.
TEST(JoinAlgoCrossoverTest, IndexJoinWinsForLargeInnerTables) {
  HwParams hw = HwParams::PaperDefaults();
  lsm::DBOptions db_opts;
  db_opts.memtable_bytes = 4 << 20;
  lsm::VirtualStorage storage(&hw);
  lsm::DB db(&storage, db_opts);
  rel::Catalog catalog(&db);

  rel::TableDef tiny;
  tiny.name = "tiny";
  tiny.schema = rel::Schema({IntCol("id"), IntCol("big_ref")});
  tiny.pk_col = 0;
  rel::Table* tiny_t = catalog.CreateTable(std::move(tiny));

  rel::TableDef big;
  big.name = "big";
  big.schema = rel::Schema({IntCol("id"), IntCol("grp"), CharCol("pad", 64)});
  big.pk_col = 0;
  big.indexes.push_back({"grp", 1});
  rel::Table* big_t = catalog.CreateTable(std::move(big));

  for (int i = 1; i <= 10; ++i) {
    RowBuilder rb(&tiny_t->schema());
    rb.SetInt(0, i).SetInt(1, i * 1000);
    ASSERT_TRUE(tiny_t->Insert(rb.row()).ok());
  }
  Rng rng(3);
  for (int i = 1; i <= 250000; ++i) {
    RowBuilder rb(&big_t->schema());
    rb.SetInt(0, i).SetInt(1, i % 50000).SetString(2, rng.NextString(20));
    ASSERT_TRUE(big_t->Insert(rb.row()).ok());
  }
  ASSERT_TRUE(db.FlushAll().ok());
  ASSERT_TRUE(tiny_t->AnalyzeStats().ok());
  ASSERT_TRUE(big_t->AnalyzeStats().ok());

  Query q;
  q.name = "crossover";
  q.tables.push_back({"tiny", "s", nullptr});
  q.tables.push_back({"big", "b", nullptr});
  q.joins.push_back({"s", "big_ref", "b", "grp"});
  q.select_columns = {"s.id", "b.id"};

  Planner planner(&catalog, &hw, PlannerConfig{});
  auto plan = planner.PlanQuery(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->order.size(), 2u);
  EXPECT_EQ(plan->order[0].table->name(), "tiny");  // smallest first
  EXPECT_EQ(plan->order[1].join.algo, nkv::JoinAlgo::kBNLJI)
      << "a few dozen seeks must beat streaming a ~1000-page table\n"
      << plan->Explain();
}

TEST_F(HybridTest, AllStrategiesProduceIdenticalResults) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());

  auto executor = MakeExecutor();
  std::multiset<std::string> reference;
  bool have_reference = false;
  for (const auto& choice : HybridExecutor::AllChoices(*plan)) {
    lsm::BlockCache cache(64 << 20);
    auto result = executor.Run(*plan, choice, &cache);
    ASSERT_TRUE(result.ok()) << choice.ToString() << ": "
                             << result.status().ToString();
    EXPECT_GT(result->total_ns, 0) << choice.ToString();
    if (!have_reference) {
      reference = Canon(*result);
      have_reference = true;
      EXPECT_GT(reference.size(), 0u);
    } else {
      EXPECT_EQ(Canon(*result), reference) << choice.ToString();
    }
  }
}

TEST_F(HybridTest, AggregationQueryConsistentAcrossStrategies) {
  Query q = MakeQuery();
  q.select_columns.clear();
  q.has_agg = true;
  q.group_cols = {"p.category"};
  q.aggs = {{exec::AggFn::kCount, "", "cnt"},
            {exec::AggFn::kSum, "o.quantity", "total_qty"},
            {exec::AggFn::kMin, "c.name", "min_name"}};
  // Aggregation needs these columns available upstream.
  Planner planner(&catalog_, &hw_, MakePlannerConfig());
  auto plan = planner.PlanQuery(q);
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();

  std::multiset<std::string> reference;
  bool have_reference = false;
  for (const auto& choice : HybridExecutor::AllChoices(*plan)) {
    lsm::BlockCache cache(64 << 20);
    auto result = executor.Run(*plan, choice, &cache);
    ASSERT_TRUE(result.ok()) << choice.ToString();
    if (!have_reference) {
      reference = Canon(*result);
      have_reference = true;
    } else {
      EXPECT_EQ(Canon(*result), reference) << choice.ToString();
    }
  }
}

TEST_F(HybridTest, BlkStackIsSlowerThanNative) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  lsm::BlockCache c1(64 << 20), c2(64 << 20);
  auto blk = executor.Run(*plan, {Strategy::kHostBlk, 0}, &c1);
  auto native = executor.Run(*plan, {Strategy::kHostNative, 0}, &c2);
  ASSERT_TRUE(blk.ok());
  ASSERT_TRUE(native.ok());
  EXPECT_GT(blk->total_ns, native->total_ns);
}

TEST_F(HybridTest, HybridStagesAreAccounted) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  lsm::BlockCache cache(64 << 20);
  auto result = executor.Run(*plan, {Strategy::kHybrid, 1}, &cache);
  ASSERT_TRUE(result.ok());
  const StageTimes& st = result->host_stages;
  EXPECT_GT(st.ndp_setup, 0);
  EXPECT_GT(st.initial_wait, 0);       // host waits for the first batch
  EXPECT_GT(st.result_transfer, 0);
  EXPECT_GT(st.processing, 0);
  EXPECT_GT(result->device_busy_ns, 0);
  EXPECT_GT(result->num_batches, 0);
  EXPECT_FALSE(st.ToString().empty());
  // Device Table-4 breakdown carries flash + compare work.
  EXPECT_GT(result->device_counters.Units(sim::CostKind::kFlashLoad), 0u);
}

TEST_F(HybridTest, DeviceComputeSlowerHostTransfersMore) {
  // Structural sanity of the cost asymmetry: full NDP does more device
  // compute-time per record; host-only moves more bytes over the PCIe path.
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  lsm::BlockCache c1(64 << 20), c2(64 << 20);
  auto ndp = executor.Run(*plan, {Strategy::kFullNdp, 0}, &c1);
  auto host = executor.Run(*plan, {Strategy::kHostNative, 0}, &c2);
  ASSERT_TRUE(ndp.ok());
  ASSERT_TRUE(host.ok());
  // NDP ships only the final (small) result.
  EXPECT_LT(ndp->transferred_bytes,
            host->host_counters.Units(sim::CostKind::kFlashLoad));
}

TEST_F(HybridTest, SharedSlotsBoundDeviceRunAhead) {
  // With one slot the device must stall more than with many slots.
  PlannerConfig few = MakePlannerConfig();
  few.buffers.shared_slots = 1;
  few.buffers.shared_slot_bytes = 512;
  PlannerConfig many = MakePlannerConfig();
  many.buffers.shared_slots = 64;
  many.buffers.shared_slot_bytes = 512;

  Planner planner(&catalog_, &hw_, few);
  auto plan = planner.PlanQuery(MakeQuery(0));  // unselective: many rows
  ASSERT_TRUE(plan.ok());

  HybridExecutor exec_few(&catalog_, &storage_, &hw_, few);
  HybridExecutor exec_many(&catalog_, &storage_, &hw_, many);
  lsm::BlockCache c1(64 << 20), c2(64 << 20);
  auto r_few = exec_few.Run(*plan, {Strategy::kHybrid, 1}, &c1);
  auto r_many = exec_many.Run(*plan, {Strategy::kHybrid, 1}, &c2);
  ASSERT_TRUE(r_few.ok());
  ASSERT_TRUE(r_many.ok());
  EXPECT_GE(r_few->device_stall_ns, r_many->device_stall_ns);
  EXPECT_EQ(Canon(*r_few), Canon(*r_many));
}

TEST_F(HybridTest, DeviceMemoryBudgetRejectsOversizedPipelines) {
  HwParams tiny = hw_;
  tiny.mem.device_ndp_budget_bytes = 1 << 10;  // 1 KiB: nothing fits
  Planner planner(&catalog_, &tiny, MakePlannerConfig());
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok());
  HybridExecutor executor(&catalog_, &storage_, &tiny, MakePlannerConfig());
  auto result = executor.Run(*plan, {Strategy::kFullNdp, 0}, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST_F(HybridTest, PlannerMarksFeasibleExactlyWhatTheDeviceAccepts) {
  // No device-assisted choice fits the tight budget under the index range.
  const PlannerConfig cfg = MakePlannerConfig();
  const HwParams tight = MakeTightHw();
  Planner planner(&catalog_, &tight, cfg);
  auto plan = planner.PlanQuery(MakeIndexRangeQuery());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(std::any_of(plan->order.begin(), plan->order.begin() + 2,
                          [](const PlannedTable& pt) {
                            return pt.access.use_index_scan;
                          }));

  // The plan marks an infeasible split with an infinite distance and an
  // infeasible full-NDP run with an infinite estimate. Every choice it
  // marks feasible runs; every other one is rejected by the device's
  // admission check.
  auto feasible = [&](const ExecChoice& c) {
    switch (c.strategy) {
      case Strategy::kHybrid:
        return !std::isinf(plan->split_distance.at(c.split_joins));
      case Strategy::kFullNdp:
        return !std::isinf(plan->est_ndp);
      default:
        return true;
    }
  };
  HybridExecutor executor(&catalog_, &storage_, &tight, cfg);
  int feasible_device_choices = 0;
  for (const ExecChoice& choice : HybridExecutor::AllChoices(*plan)) {
    lsm::BlockCache cache(64 << 20);
    auto result = executor.Run(*plan, choice, &cache);
    if (feasible(choice)) {
      EXPECT_TRUE(result.ok())
          << choice.ToString() << ": " << result.status().ToString();
      if (choice.strategy == Strategy::kHybrid ||
          choice.strategy == Strategy::kFullNdp) {
        ++feasible_device_choices;
      }
    } else {
      EXPECT_TRUE(result.status().IsResourceExhausted()) << choice.ToString();
    }
  }
  EXPECT_EQ(feasible_device_choices, 0);
  EXPECT_EQ(plan->max_feasible_split, 0);
  EXPECT_TRUE(feasible(plan->recommended))
      << plan->recommended.ToString();
  lsm::BlockCache cache(64 << 20);
  auto recommended = executor.Run(*plan, plan->recommended, &cache);
  ASSERT_TRUE(recommended.ok()) << plan->recommended.ToString() << ": "
                                << recommended.status().ToString();
}

TEST_F(HybridTest, PointerCacheKicksInBeyondTwoTables) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  lsm::BlockCache cache(64 << 20);
  auto full = executor.Run(*plan, {Strategy::kFullNdp, 0}, &cache);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->pointer_cache);  // 3 tables > 2 (paper Sect. 4.2)
  auto h1 = executor.Run(*plan, {Strategy::kHybrid, 1}, &cache);
  ASSERT_TRUE(h1.ok());
  EXPECT_FALSE(h1->pointer_cache);  // 2 tables on-device -> row cache
}

TEST_F(HybridTest, RecommendedChoiceIsExecutable) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  lsm::BlockCache cache(64 << 20);
  auto result = executor.Run(*plan, plan->recommended, &cache);
  ASSERT_TRUE(result.ok()) << plan->recommended.ToString();
  EXPECT_GT(result->total_ns, 0);
}

TEST_F(HybridTest, SplitDistanceSelectsFeasibleSplit) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->recommended.split_joins, 0);
  EXPECT_LE(plan->recommended.split_joins, plan->max_feasible_split);
}

TEST_F(HybridTest, ZeroSizedBuffersFailCleanlyOrMatchReference) {
  // An empty buffer holds no row. Planning with it, or running a plan made
  // with working buffers under it, must end in a non-OK Status or the
  // reference rows on every strategy, never in a silently empty result.
  const std::vector<std::pair<std::string, std::function<void(PlannerConfig*)>>>
      zeroings = {
          {"host_join_buffer_bytes",
           [](PlannerConfig* c) { c->host_join_buffer_bytes = 0; }},
          {"selection_buffer_bytes",
           [](PlannerConfig* c) { c->buffers.selection_buffer_bytes = 0; }},
          {"join_buffer_bytes",
           [](PlannerConfig* c) { c->buffers.join_buffer_bytes = 0; }},
          {"shared_slot_bytes",
           [](PlannerConfig* c) { c->buffers.shared_slot_bytes = 0; }},
          {"shared_slots", [](PlannerConfig* c) { c->buffers.shared_slots = 0; }},
      };
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  lsm::BlockCache ref_cache(64 << 20);
  auto reference =
      MakeExecutor().Run(*plan, {Strategy::kHostNative, 0}, &ref_cache);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->rows.size(), 0u);

  for (const auto& [name, zero] : zeroings) {
    SCOPED_TRACE(name + " = 0");
    PlannerConfig cfg = MakePlannerConfig();
    zero(&cfg);
    EXPECT_TRUE(Planner(&catalog_, &hw_, cfg)
                    .PlanQuery(MakeQuery())
                    .status()
                    .IsInvalidArgument());
    HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
    for (const ExecChoice& choice : HybridExecutor::AllChoices(*plan)) {
      lsm::BlockCache cache(64 << 20);
      auto result = executor.Run(*plan, choice, &cache);
      if (result.ok()) {
        EXPECT_EQ(Canon(*result), Canon(*reference)) << choice.ToString();
      }
    }
  }
}

// ----------------------- BatchSchedule accounting regressions

TEST(BatchScheduleTest, RewindReplayDoesNotDoubleChargeStages) {
  HwParams hw = HwParams::PaperDefaults();
  std::vector<ndp::DeviceBatch> batches;
  for (int j = 0; j < 3; ++j) {
    batches.push_back({/*stream=*/0, /*rows=*/10, /*bytes=*/1000,
                       /*work_ns=*/50'000.0});
  }
  BatchSchedule sched(batches, /*shared_slots=*/4, &hw, /*start_time=*/0,
                      /*eager=*/false);
  StageTimes st;
  SimNanos now = 0;
  std::vector<SimNanos> arrivals;
  for (size_t j = 0; j < batches.size(); ++j) {
    now = sched.Fetch(j, now, &st);
    arrivals.push_back(now);
  }
  const StageTimes first = st;
  EXPECT_GT(first.initial_wait, 0);
  EXPECT_GT(first.result_transfer, 0);

  // Replay from host memory (a join inner's re-open): no new wait/transfer,
  // and the host clock is untouched.
  for (size_t j = 0; j < batches.size(); ++j) {
    EXPECT_EQ(sched.Fetch(j, now, &st), now) << "batch " << j;
  }
  EXPECT_EQ(st.initial_wait, first.initial_wait);
  EXPECT_EQ(st.later_waits, first.later_waits);
  EXPECT_EQ(st.result_transfer, first.result_transfer);

  // A re-opened consumer must never observe a batch before it first arrived,
  // even if it presents a stale clock.
  for (size_t j = 0; j < batches.size(); ++j) {
    EXPECT_EQ(sched.Fetch(j, /*host_now=*/0, &st), arrivals[j])
        << "batch " << j;
  }
  EXPECT_EQ(st.initial_wait, first.initial_wait);
  EXPECT_EQ(st.later_waits, first.later_waits);
  EXPECT_EQ(st.result_transfer, first.result_transfer);
}

TEST(BatchScheduleTest, SingleSlotStallsDeviceEagerDoesNot) {
  HwParams hw = HwParams::PaperDefaults();
  std::vector<ndp::DeviceBatch> batches;
  for (int j = 0; j < 4; ++j) {
    batches.push_back({0, 10, 1000, /*work_ns=*/100'000.0});
  }
  BatchSchedule strict(batches, /*shared_slots=*/1, &hw, 0, /*eager=*/false);
  BatchSchedule eager(batches, /*shared_slots=*/1, &hw, 0, /*eager=*/true);

  // A slow host fetches each batch 1 ms apart: with one shared slot the
  // device cannot start batch j+1 until batch j left the buffer.
  StageTimes st1, st2;
  for (size_t j = 0; j < batches.size(); ++j) {
    strict.Fetch(j, (j + 1) * 1'000'000.0, &st1);
    eager.Fetch(j, (j + 1) * 1'000'000.0, &st2);
  }
  EXPECT_GT(strict.device_stall(), 0);
  EXPECT_EQ(eager.device_stall(), 0);
  EXPECT_GT(strict.device_finish(), eager.device_finish());
  // Eager (H0 leaf shipping) finishes back-to-back: start + sum(work).
  EXPECT_DOUBLE_EQ(eager.device_finish(), 400'000.0);
}

TEST(BatchScheduleTest, EmptyBatchListFinishesAtStart) {
  HwParams hw = HwParams::PaperDefaults();
  const SimNanos start = 121'000.0;
  BatchSchedule sched({}, /*shared_slots=*/4, &hw, start, /*eager=*/false);
  EXPECT_EQ(sched.num_batches(), 0u);
  EXPECT_DOUBLE_EQ(sched.device_finish(), start);
  EXPECT_EQ(sched.device_stall(), 0);
  // Out-of-range fetches are no-ops on the clock and the stages.
  StageTimes st;
  EXPECT_DOUBLE_EQ(sched.Fetch(0, 500'000.0, &st), 500'000.0);
  EXPECT_EQ(st.initial_wait, 0);
  EXPECT_EQ(st.result_transfer, 0);
}

// --------------------------------- simulated-timeline tracing

TEST_F(HybridTest, TraceStageSpansTileHybridTimeline) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  obs::TraceRecorder rec;
  lsm::BlockCache cache(64 << 20);
  auto r = executor.Run(*plan, {Strategy::kHybrid, 1}, &cache, &rec);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->trace_host_track, 0);
  ASSERT_GE(r->trace_device_track, 0);

  const StageTimes& st = r->host_stages;
  auto near = [](SimNanos got, SimNanos want) {
    EXPECT_NEAR(got, want, 1e-6 * std::max(1.0, std::abs(want)));
  };
  const SimNanos setup = rec.CategoryTotal(r->trace_host_track, "setup");
  const SimNanos wait = rec.CategoryTotal(r->trace_host_track, "wait");
  const SimNanos transfer = rec.CategoryTotal(r->trace_host_track, "transfer");
  const SimNanos processing =
      rec.CategoryTotal(r->trace_host_track, "processing");
  near(setup, st.ndp_setup);
  near(wait, st.initial_wait + st.later_waits);
  near(transfer, st.result_transfer);
  near(processing, st.processing);
  // The four Table-4 categories tile [0, total_ns] exactly.
  near(setup + wait + transfer + processing, r->total_ns);
  near(st.total(), r->total_ns);

  // Device batch-production spans cover the produced batches' work.
  const SimNanos produce =
      rec.CategoryTotal(r->trace_device_track, "produce");
  EXPECT_GT(produce, 0);
  EXPECT_LE(produce, r->device_busy_ns * (1 + 1e-9));
}

TEST_F(HybridTest, TraceHostOnlyRunIsAllProcessing) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  obs::TraceRecorder rec;
  lsm::BlockCache cache(64 << 20);
  auto r = executor.Run(*plan, {Strategy::kHostNative, 0}, &cache, &rec);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->trace_host_track, 0);
  EXPECT_EQ(r->trace_device_track, -1);
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(r->trace_host_track, "processing"),
                   r->total_ns);
  // Per-operator row gauges and host-cache tallies were exported.
  const obs::MetricsRegistry* m = rec.metrics();
  EXPECT_GT(m->CounterValue("NATIVE.op_rows.0 Project(3 cols)"), 0u);
  EXPECT_GT(m->num_counters(), 0u);
}

TEST_F(HybridTest, TracingDoesNotPerturbSimulatedMetrics) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  for (const auto& choice : HybridExecutor::AllChoices(*plan)) {
    lsm::BlockCache c1(64 << 20), c2(64 << 20);
    obs::TraceRecorder rec;
    auto plain = executor.Run(*plan, choice, &c1, /*rec=*/nullptr);
    auto traced = executor.Run(*plan, choice, &c2, &rec);
    ASSERT_TRUE(plain.ok()) << choice.ToString();
    ASSERT_TRUE(traced.ok()) << choice.ToString();
    SCOPED_TRACE(choice.ToString());
    EXPECT_EQ(plain->rows, traced->rows);
    EXPECT_EQ(plain->total_ns, traced->total_ns);  // bit-identical
    EXPECT_EQ(plain->host_counters.units, traced->host_counters.units);
    EXPECT_EQ(plain->host_counters.time_ps, traced->host_counters.time_ps);
    EXPECT_EQ(plain->device_counters.units, traced->device_counters.units);
    EXPECT_EQ(plain->device_stall_ns, traced->device_stall_ns);
    EXPECT_EQ(plain->trace_host_track, -1);
    EXPECT_GT(rec.num_spans(), 0u);
  }
}

}  // namespace
}  // namespace hybridndp::hybrid
