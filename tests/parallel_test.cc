// Tests for the parallel run harness: the thread budget and the core
// determinism contract — HybridExecutor::RunAll over claimer threads must
// produce bit-identical simulated results to serial execution.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "obs/trace.h"
#include "orders_world.h"
#include "rel/table.h"
#include "sim/fault.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SizeClampedToOne) {
  EXPECT_EQ(common::ThreadPool(4).size(), 4);
  EXPECT_EQ(common::ThreadPool(0).size(), 1);
  EXPECT_EQ(common::ThreadPool(-3).size(), 1);
}

// ----------------------------------------------- RunAll determinism contract

/// The orders world at full size, as in hybrid_test.cc.
class RunAllTest : public OrdersWorld {
 protected:
  /// Every choice of `plan`, then each device-assisted one again under both
  /// forced cache formats (as the Table-3 benches run them): eleven runs
  /// for the three-table query, more than the 8 claimers of a pool of 4.
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
  /// caches, for pools of 2, 3 and 4 threads, traced and untraced. Exactly
  /// `serial_failures` serial runs fail, and each pooled run returns the
  /// status of its serial run.
  void ExpectPooledMatchesSerial(const hybrid::HybridExecutor& executor,
                                 const hybrid::Plan& plan,
                                 const std::vector<hybrid::ExecChoice>& choices,
                                 size_t serial_failures = 0) {
    auto factory = [] { return std::make_unique<lsm::BlockCache>(1 << 20); };
    std::vector<Result<hybrid::RunResult>> serial;
    size_t failures = 0;
    for (const auto& choice : choices) {
      auto cache = factory();
      serial.push_back(executor.Run(plan, choice, cache.get()));
      if (!serial.back().ok()) ++failures;
    }
    ASSERT_EQ(failures, serial_failures);
    for (int threads : {2, 3, 4}) {
      common::ThreadPool pool(threads);
      for (bool traced : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " traced=" + std::to_string(traced));
        obs::TraceRecorder rec;
        auto pooled = executor.RunAll(plan, choices, &pool, factory,
                                      traced ? &rec : nullptr);
        ASSERT_EQ(pooled.size(), choices.size());
        for (size_t i = 0; i < choices.size(); ++i) {
          SCOPED_TRACE(choices[i].ToString() + "/cf" +
                       std::to_string(choices[i].cache_format));
          ASSERT_EQ(pooled[i].status().ToString(),
                    serial[i].status().ToString());
          if (!serial[i].ok()) continue;
          ExpectIdentical(*serial[i], *pooled[i]);
          EXPECT_EQ(pooled[i]->trace_host_track >= 0, traced);
        }
      }
    }
  }
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

TEST_F(RunAllTest, MoreRunsThanClaimersMatchSerial) {
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = ManyDeviceChoices(*plan);
  ASSERT_EQ(choices.size(), 11u);
  ExpectPooledMatchesSerial(executor, *plan, choices);
}

// Pools of 3 and 4 allow 6 and 8 claimers, but only the 5 runs' worth
// start; a pool of 2 has 4 claimers for them, and an empty choice list
// returns at once.
TEST_F(RunAllTest, MoreClaimersThanRunsMatchSerial) {
  const auto cfg = MakePlannerConfig();
  hybrid::Planner planner(&catalog_, &hw_, cfg);
  auto plan = planner.PlanQuery(MakeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  hybrid::HybridExecutor executor(&catalog_, &storage_, &hw_, cfg);
  const auto choices = hybrid::HybridExecutor::AllChoices(*plan);
  ASSERT_EQ(choices.size(), 5u);
  ExpectPooledMatchesSerial(executor, *plan, choices);
  common::ThreadPool pool(4);
  EXPECT_TRUE(executor.RunAll(*plan, {}, &pool).empty());
}

// A pooled run that fails returns the status of its serial run. No
// device-assisted choice fits the tight device, so each one returns
// ResourceExhausted and only BLK and NATIVE run.
TEST_F(RunAllTest, PooledFailuresMatchSerial) {
  const auto cfg = MakePlannerConfig();
  const sim::HwParams tight = MakeTightHw();
  hybrid::Planner planner(&catalog_, &tight, cfg);
  auto plan = planner.PlanQuery(MakeIndexRangeQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  hybrid::HybridExecutor executor(&catalog_, &storage_, &tight, cfg);
  const auto choices = ManyDeviceChoices(*plan);
  ASSERT_TRUE(executor.Run(*plan, choices.back(), nullptr)
                  .status()
                  .IsResourceExhausted());
  ExpectPooledMatchesSerial(executor, *plan, choices,
                            /*serial_failures=*/choices.size() - 2);
}

// Under an order-independent fault spec every run makes the same fault
// decisions whichever thread runs it.
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
  const auto expected = Canon(*results[0]);
  for (const auto& r : results) EXPECT_EQ(Canon(*r), expected);
}

}  // namespace
}  // namespace hybridndp
