// Tests for the parallel run harness: the thread pool, the lock-striped
// block cache under concurrent hammering, and the core determinism
// contract — HybridExecutor::RunAll over a worker pool must produce
// bit-identical simulated results to serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "obs/trace.h"
#include "rel/table.h"
#include "sim/fault.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

using exec::CmpOp;
using exec::Expr;
using rel::CharCol;
using rel::IntCol;
using rel::RowBuilder;
using sim::HwParams;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SizeClampedToOne) {
  common::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  bool ran = false;
  pool.Submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran);
}

// ----------------------------------------------- RunAll determinism contract

/// Star-schema fixture mirroring hybrid_test.cc: orders -> customer, product.
class RunAllTest : public ::testing::Test {
 protected:
  RunAllTest()
      : hw_(MakeHw()), storage_(&hw_), db_(&storage_, MakeDbOptions()),
        catalog_(&db_) {
    rel::TableDef cust;
    cust.name = "customer";
    cust.schema = rel::Schema(
        {IntCol("id"), CharCol("name", 16), CharCol("city", 12)});
    cust.pk_col = 0;
    cust_ = catalog_.CreateTable(std::move(cust));

    rel::TableDef prod;
    prod.name = "product";
    prod.schema =
        rel::Schema({IntCol("id"), IntCol("price"), CharCol("category", 12)});
    prod.pk_col = 0;
    prod_ = catalog_.CreateTable(std::move(prod));

    rel::TableDef orders;
    orders.name = "orders";
    orders.schema = rel::Schema({IntCol("id"), IntCol("customer_id"),
                                 IntCol("product_id"), IntCol("quantity")});
    orders.pk_col = 0;
    orders.indexes.push_back({"customer_id", 1});
    orders.indexes.push_back({"product_id", 2});
    orders_ = catalog_.CreateTable(std::move(orders));

    Rng rng(7);
    for (int i = 1; i <= 200; ++i) {
      RowBuilder rb(&cust_->schema());
      rb.SetInt(0, i)
          .SetString(1, "cust" + std::to_string(i))
          .SetString(2, i % 5 == 0 ? "berlin" : "city" + std::to_string(i % 9));
      EXPECT_TRUE(cust_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= 100; ++i) {
      RowBuilder rb(&prod_->schema());
      rb.SetInt(0, i)
          .SetInt(1, 10 + (i * 13) % 500)
          .SetString(2, i % 4 == 0 ? "book" : "tool");
      EXPECT_TRUE(prod_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= 5000; ++i) {
      RowBuilder rb(&orders_->schema());
      rb.SetInt(0, i)
          .SetInt(1, static_cast<int32_t>(rng.Zipf(200, 0.5) + 1))
          .SetInt(2, static_cast<int32_t>(rng.Zipf(100, 0.5) + 1))
          .SetInt(3, static_cast<int32_t>(1 + rng.Uniform(20)));
      EXPECT_TRUE(orders_->Insert(rb.row()).ok());
    }
    EXPECT_TRUE(db_.FlushAll().ok());
    for (auto* t : catalog_.tables()) {
      EXPECT_TRUE(t->AnalyzeStats().ok());
    }
  }

  static HwParams MakeHw() {
    HwParams hw = HwParams::PaperDefaults();
    hw.mem.device_selection_bytes = 64 << 10;
    hw.mem.device_join_bytes = 32 << 10;
    hw.mem.device_ndp_budget_bytes = 4 << 20;
    return hw;
  }
  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 64 << 10;
    return o;
  }
  hybrid::PlannerConfig MakePlannerConfig() {
    hybrid::PlannerConfig cfg;
    cfg.buffers.selection_buffer_bytes = 64 << 10;
    cfg.buffers.join_buffer_bytes = 32 << 10;
    cfg.buffers.shared_slot_bytes = 4 << 10;
    cfg.buffers.shared_slots = 4;
    return cfg;
  }

  hybrid::Query MakeQuery() {
    hybrid::Query q;
    q.name = "orders_join";
    q.tables.push_back({"orders", "o", nullptr});
    q.tables.push_back(
        {"customer", "c", Expr::CmpStr("c.city", CmpOp::kEq, "berlin")});
    q.tables.push_back(
        {"product", "p", Expr::CmpInt("p.price", CmpOp::kGe, 400)});
    q.joins.push_back({"o", "customer_id", "c", "id"});
    q.joins.push_back({"o", "product_id", "p", "id"});
    q.select_columns = {"o.id", "c.name", "p.price"};
    return q;
  }

  /// Assert every simulated metric of two runs is bit-identical.
  static void ExpectIdentical(const hybrid::RunResult& a,
                              const hybrid::RunResult& b) {
    EXPECT_EQ(a.rows, b.rows);  // exact vector equality, including order
    EXPECT_EQ(a.total_ns, b.total_ns);
    EXPECT_EQ(a.host_counters.units, b.host_counters.units);
    EXPECT_EQ(a.host_counters.time_ps, b.host_counters.time_ps);
    EXPECT_EQ(a.device_counters.units, b.device_counters.units);
    EXPECT_EQ(a.device_counters.time_ps, b.device_counters.time_ps);
    EXPECT_EQ(a.host_stages.ndp_setup, b.host_stages.ndp_setup);
    EXPECT_EQ(a.host_stages.initial_wait, b.host_stages.initial_wait);
    EXPECT_EQ(a.host_stages.later_waits, b.host_stages.later_waits);
    EXPECT_EQ(a.host_stages.result_transfer, b.host_stages.result_transfer);
    EXPECT_EQ(a.host_stages.processing, b.host_stages.processing);
    EXPECT_EQ(a.device_busy_ns, b.device_busy_ns);
    EXPECT_EQ(a.device_stall_ns, b.device_stall_ns);
    EXPECT_EQ(a.device_rows, b.device_rows);
    EXPECT_EQ(a.transferred_bytes, b.transferred_bytes);
    EXPECT_EQ(a.num_batches, b.num_batches);
    EXPECT_EQ(a.fell_back, b.fell_back);
    EXPECT_EQ(a.fault_wasted_ns, b.fault_wasted_ns);
    EXPECT_EQ(a.fault_status.ToString(), b.fault_status.ToString());
  }

  /// Every choice of `plan`, then each device-assisted one again under both
  /// forced cache formats (as the Table-3 benches run them): nine
  /// device-assisted runs for the three-table query, more than the device
  /// workers of any pool below.
  static std::vector<hybrid::ExecChoice> ManyDeviceChoices(
      const hybrid::Plan& plan) {
    std::vector<hybrid::ExecChoice> choices =
        hybrid::HybridExecutor::AllChoices(plan);
    const size_t n = choices.size();
    for (int format : {1, 2}) {
      for (size_t i = 0; i < n; ++i) {
        if (choices[i].strategy == hybrid::Strategy::kHostBlk ||
            choices[i].strategy == hybrid::Strategy::kHostNative) {
          continue;
        }
        hybrid::ExecChoice c = choices[i];
        c.cache_format = format;
        choices.push_back(c);
      }
    }
    return choices;
  }

  /// Pooled RunAll over `choices` against one-by-one Run calls with fresh
  /// caches, for pools of 2 and 3 threads, traced and untraced.
  void ExpectPooledMatchesSerial(const hybrid::HybridExecutor& executor,
                                 const hybrid::Plan& plan,
                                 const std::vector<hybrid::ExecChoice>& choices) {
    auto factory = [] { return std::make_unique<lsm::BlockCache>(1 << 20); };
    std::vector<hybrid::RunResult> serial;
    for (const auto& choice : choices) {
      auto cache = factory();
      auto r = executor.Run(plan, choice, cache.get());
      ASSERT_TRUE(r.ok()) << choice.ToString() << ": "
                          << r.status().ToString();
      serial.push_back(std::move(*r));
    }
    for (int threads : {2, 3}) {
      common::ThreadPool pool(threads);
      for (bool traced : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " traced=" + std::to_string(traced));
        obs::TraceRecorder rec;
        auto pooled = executor.RunAll(plan, choices, &pool, factory,
                                      traced ? &rec : nullptr);
        ASSERT_EQ(pooled.size(), choices.size());
        for (size_t i = 0; i < choices.size(); ++i) {
          ASSERT_TRUE(pooled[i].ok()) << choices[i].ToString() << ": "
                                      << pooled[i].status().ToString();
          SCOPED_TRACE(choices[i].ToString() + "/cf" +
                       std::to_string(choices[i].cache_format));
          ExpectIdentical(serial[i], *pooled[i]);
          EXPECT_EQ(pooled[i]->trace_host_track >= 0, traced);
        }
      }
    }
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
  rel::Table* cust_ = nullptr;
  rel::Table* prod_ = nullptr;
  rel::Table* orders_ = nullptr;
};

TEST_F(RunAllTest, ParallelMatchesSerialBitForBit) {
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = hybrid::HybridExecutor::AllChoices(*plan);
  ASSERT_GE(choices.size(), 4u);  // BLK, NATIVE, H0, H1, NDP for 3 tables

  const uint64_t cache_bytes = 1 << 20;
  auto factory = [cache_bytes] {
    return std::make_unique<lsm::BlockCache>(cache_bytes);
  };

  // Serial baseline: one-by-one Run() calls with fresh caches.
  std::vector<hybrid::RunResult> serial;
  for (const auto& choice : choices) {
    auto cache = factory();
    auto r = executor.Run(*plan, choice, cache.get());
    ASSERT_TRUE(r.ok()) << choice.ToString() << ": "
                        << r.status().ToString();
    serial.push_back(std::move(*r));
  }

  // Parallel fan-out over 4 workers must reproduce every simulated metric.
  common::ThreadPool pool(4);
  auto parallel = executor.RunAll(*plan, choices, &pool, factory);
  ASSERT_EQ(parallel.size(), choices.size());
  for (size_t i = 0; i < choices.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok()) << choices[i].ToString() << ": "
                                  << parallel[i].status().ToString();
    SCOPED_TRACE(choices[i].ToString());
    ExpectIdentical(serial[i], *parallel[i]);
  }

  // Repeat the parallel fan-out: results are stable across schedules.
  auto again = executor.RunAll(*plan, choices, &pool, factory);
  for (size_t i = 0; i < choices.size(); ++i) {
    ASSERT_TRUE(again[i].ok());
    SCOPED_TRACE(choices[i].ToString());
    ExpectIdentical(serial[i], *again[i]);
  }
}

// The batch-vectorized pipeline must be simulated-metric bit-identical to
// row-at-a-time execution (one row per pull) for every strategy, across
// batch sizes that exercise a ragged tail (7), the default and a seeded
// random size.
TEST_F(RunAllTest, BatchedExecutionMatchesRowExecutionBitForBit) {
  auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const uint64_t cache_bytes = 1 << 20;
  auto run_with_batch = [&](size_t batch_rows) {
    auto run_cfg = cfg;
    run_cfg.exec_batch_rows = batch_rows;
    hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, run_cfg);
    std::vector<hybrid::RunResult> results;
    for (const auto& choice : hybrid::HybridExecutor::AllChoices(*plan)) {
      lsm::BlockCache cache(cache_bytes);
      auto r = executor.Run(*plan, choice, &cache);
      EXPECT_TRUE(r.ok()) << choice.ToString() << ": "
                          << r.status().ToString();
      results.push_back(std::move(*r));
    }
    return results;
  };

  const auto row_mode = run_with_batch(1);
  ASSERT_GE(row_mode.size(), 4u);
  Rng rng(389);
  const size_t random_rows = 2 + rng.Uniform(200);
  for (size_t batch_rows : {size_t{7}, size_t{1024}, random_rows}) {
    const auto batched = run_with_batch(batch_rows);
    ASSERT_EQ(batched.size(), row_mode.size());
    for (size_t i = 0; i < row_mode.size(); ++i) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows) + " choice#" +
                   std::to_string(i));
      ExpectIdentical(row_mode[i], batched[i]);
    }
  }
}

TEST_F(RunAllTest, TracedRunAllMatchesUntracedSerialBitForBit) {
  // The null-recorder fast path and the attached-recorder path must be the
  // same simulation: a serial sweep with tracing off is bit-identical to a
  // parallel RunAll recording into a shared TraceRecorder.
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok());

  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = hybrid::HybridExecutor::AllChoices(*plan);
  auto factory = [] { return std::make_unique<lsm::BlockCache>(1 << 20); };

  std::vector<hybrid::RunResult> serial;
  for (const auto& choice : choices) {
    auto cache = factory();
    auto r = executor.Run(*plan, choice, cache.get(), /*rec=*/nullptr);
    ASSERT_TRUE(r.ok()) << choice.ToString();
    EXPECT_EQ(r->trace_host_track, -1);  // tracing off: no tracks assigned
    serial.push_back(std::move(*r));
  }

  obs::TraceRecorder rec;
  common::ThreadPool pool(4);
  auto traced = executor.RunAll(*plan, choices, &pool, factory, &rec);
  ASSERT_EQ(traced.size(), choices.size());
  for (size_t i = 0; i < choices.size(); ++i) {
    ASSERT_TRUE(traced[i].ok()) << choices[i].ToString();
    SCOPED_TRACE(choices[i].ToString());
    ExpectIdentical(serial[i], *traced[i]);
    // Every traced run got its own host track (ids depend on scheduling
    // order, so only their validity is asserted).
    EXPECT_GE(traced[i]->trace_host_track, 0);
  }
  EXPECT_GE(rec.num_tracks(), choices.size());
  EXPECT_GT(rec.num_spans(), 0u);
}

TEST_F(RunAllTest, MoreCommandsThanDeviceWorkersMatchSerial) {
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = ManyDeviceChoices(*plan);
  ASSERT_EQ(choices.size(), 11u);
  ExpectPooledMatchesSerial(executor, *plan, choices);
}

// Under an order-independent fault spec every run makes the same fault
// decisions whichever thread runs its device or host phase.
TEST_F(RunAllTest, EveryRunFallsBackAlikeWhenPooled) {
  sim::ScopedFaultInjection arm("device.exec:always;retry:budget=0");
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = ManyDeviceChoices(*plan);
  {
    auto r = executor.Run(*plan, choices.back(), nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->fell_back);
  }
  ExpectPooledMatchesSerial(executor, *plan, choices);
}

TEST_F(RunAllTest, SlotStallsAreAlikeWhenPooled) {
  sim::ScopedFaultInjection arm("coop.slot:always,stall=250us");
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  ExpectPooledMatchesSerial(executor, *plan, ManyDeviceChoices(*plan));
}

TEST_F(RunAllTest, NullPoolRunsSerially) {
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok());

  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = hybrid::HybridExecutor::AllChoices(*plan);
  auto results = executor.RunAll(*plan, choices, /*pool=*/nullptr,
                                 [] { return std::make_unique<lsm::BlockCache>(
                                          1 << 20); });
  ASSERT_EQ(results.size(), choices.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << choices[i].ToString();
    EXPECT_EQ(results[i]->choice.strategy, choices[i].strategy);
    EXPECT_EQ(results[i]->choice.split_joins, choices[i].split_joins);
  }
  // All strategies agree on the result multiset (existing cross-strategy
  // guarantee, now exercised through RunAll).
  std::multiset<std::string> expected(results[0]->rows.begin(),
                                      results[0]->rows.end());
  for (const auto& r : results) {
    EXPECT_EQ(std::multiset<std::string>(r->rows.begin(), r->rows.end()),
              expected);
  }
}

}  // namespace
}  // namespace hybridndp
