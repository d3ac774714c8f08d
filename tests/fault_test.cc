// Tests for the fault-injection layer (sim/fault) and the robustness
// plumbing built on it: poisoned shared-buffer schedules wake blocked
// consumers instead of deadlocking, Status propagates through the batch
// pipeline to the drain, and the hybrid executor degrades to a correct
// host-only run when a device-assisted attempt dies.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <map>

#include "exec/operator.h"
#include "hybrid/coop.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "job/generator.h"
#include "lsm/db.h"
#include "obs/trace.h"
#include "orders_world.h"
#include "rel/table.h"
#include "sim/fault.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

using exec::CmpOp;
using exec::Expr;
using hybrid::ExecChoice;
using hybrid::RunResult;
using hybrid::StageTimes;
using hybrid::Strategy;
using rel::IntCol;
using rel::RowBuilder;
using sim::FaultConfig;
using sim::FaultInjector;
using sim::FaultPolicy;
using sim::FaultSite;
using sim::ScopedFaultInjection;

FaultPolicy& SitePolicy(FaultConfig* cfg, FaultSite site) {
  return cfg->sites[static_cast<size_t>(site)];
}

// ---------------------------------------------------------------------------
// Spec parser

TEST(FaultSpecTest, SiteNamesRoundTrip) {
  for (int i = 0; i < sim::kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    FaultSite parsed;
    ASSERT_TRUE(sim::ParseFaultSite(sim::FaultSiteName(site), &parsed))
        << sim::FaultSiteName(site);
    EXPECT_EQ(parsed, site);
  }
  FaultSite ignored;
  EXPECT_FALSE(sim::ParseFaultSite("bogus.site", &ignored));
  EXPECT_FALSE(sim::ParseFaultSite("", &ignored));
}

TEST(FaultSpecTest, ParsesFullGrammar) {
  auto cfg = FaultConfig::Parse(
      "device.exec:nth=2;"
      "sst.read:prob=0.25,seed=7,stall=5us;"
      "coop.slot:always;"
      "retry:budget=5,backoff=10us");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();

  const FaultPolicy& dev = SitePolicy(&*cfg, FaultSite::kDeviceExec);
  EXPECT_EQ(dev.trigger, FaultPolicy::Trigger::kNth);
  EXPECT_EQ(dev.nth, 2u);
  EXPECT_EQ(dev.stall_ns, 0);

  const FaultPolicy& sst = SitePolicy(&*cfg, FaultSite::kSstRead);
  EXPECT_EQ(sst.trigger, FaultPolicy::Trigger::kProb);
  EXPECT_DOUBLE_EQ(sst.prob, 0.25);
  EXPECT_EQ(sst.seed, 7u);
  EXPECT_DOUBLE_EQ(sst.stall_ns, 5000.0);

  const FaultPolicy& slot = SitePolicy(&*cfg, FaultSite::kCoopSlot);
  EXPECT_EQ(slot.trigger, FaultPolicy::Trigger::kAlways);

  EXPECT_FALSE(SitePolicy(&*cfg, FaultSite::kStorageRead).armed());
  EXPECT_FALSE(SitePolicy(&*cfg, FaultSite::kStorageWrite).armed());
  EXPECT_EQ(cfg->retry_budget, 5);
  EXPECT_DOUBLE_EQ(cfg->backoff_ns, 10000.0);
  EXPECT_TRUE(cfg->any_armed());
}

TEST(FaultSpecTest, DurationSuffixes) {
  auto cfg = FaultConfig::Parse("coop.slot:always,stall=3ms;retry:backoff=40");
  ASSERT_TRUE(cfg.ok());
  EXPECT_DOUBLE_EQ(SitePolicy(&*cfg, FaultSite::kCoopSlot).stall_ns,
                   3'000'000.0);
  EXPECT_DOUBLE_EQ(cfg->backoff_ns, 40.0);  // bare number = ns
}

TEST(FaultSpecTest, AcceptsDelaysUpToOneSimulatedHour) {
  for (const char* spec : {"retry:budget=20", "retry:budget=27",
                           "coop.slot:always,stall=3600000ms",
                           "retry:backoff=0,budget=1000"}) {
    EXPECT_TRUE(FaultConfig::Parse(spec).ok()) << "rejected: " << spec;
  }
}

TEST(FaultSpecTest, EmptySpecDisarmsEverything) {
  auto cfg = FaultConfig::Parse("");
  ASSERT_TRUE(cfg.ok());
  EXPECT_FALSE(cfg->any_armed());
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus.site:always",        // unknown site
      "device.exec",              // missing items
      "device.exec:",             // empty item list
      "device.exec:nth=",         // missing value
      "device.exec:nth=abc",      // non-numeric
      "device.exec:nth=0",        // nth is 1-based
      "sst.read:prob=1.5",        // out of range
      "sst.read:prob=-0.1",       // out of range
      "coop.slot:stall=3kg",      // bad duration suffix
      "coop.slot:frobnicate",     // unknown item
      "retry:budget=-1",          // negative budget
      "device.exec:nth=1,prob=0.5",  // two triggers on one site
      "device.exec:nth=-1",          // negative count
      "device.exec:always,seed=-3",  // negative seed
      "coop.slot:always,stall=inf",  // durations must be finite
      "coop.slot:always,stall=nan",
      "retry:backoff=inf",
      "retry:backoff=nan",
      // One check may delay the clock by at most one simulated hour.
      "coop.slot:always,stall=1e300",
      "coop.slot:always;retry:budget=1000",
      "retry:budget=40",
      "retry:budget=28",  // 20us x (2^28 - 1) is about 5369 s
      "coop.slot:always,stall=3600001ms",
      "retry:budget=20,backoff=4ms",  // 4ms x (2^20 - 1) is about 4194 s
      "retry:budget=20;retry:backoff=4ms",  // checked after every clause
      "retry:backoff=4ms;retry:budget=20",
  };
  for (const char* spec : bad) {
    auto cfg = FaultConfig::Parse(spec);
    EXPECT_FALSE(cfg.ok()) << "accepted: " << spec;
  }
}

// ---------------------------------------------------------------------------
// Injector semantics

TEST(FaultInjectorTest, DisarmedFastPathIsFree) {
  ASSERT_FALSE(FaultInjector::Enabled());
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  sim::AccessContext ctx(&hw, sim::Actor::kDevice, sim::IoPath::kInternal);
  EXPECT_TRUE(sim::FaultCheck(FaultSite::kSstRead, &ctx).ok());
  EXPECT_EQ(ctx.now(), 0);
}

TEST(FaultInjectorTest, NthFaultRecoversOnFirstRetry) {
  FaultConfig cfg;
  SitePolicy(&cfg, FaultSite::kDeviceExec) = {FaultPolicy::Trigger::kNth,
                                              /*nth=*/1, 0.0, 0, 0};
  ScopedFaultInjection arm(cfg);

  sim::HwParams hw = sim::HwParams::PaperDefaults();
  sim::AccessContext ctx(&hw, sim::Actor::kDevice, sim::IoPath::kInternal);
  // Op 1 fires; the retry re-draws op 2, which does not, so the transient
  // fault heals after one backoff.
  EXPECT_TRUE(sim::FaultCheck(FaultSite::kDeviceExec, &ctx).ok());
  EXPECT_DOUBLE_EQ(ctx.now(), cfg.backoff_ns);

  const auto stats = FaultInjector::Global().Stats(FaultSite::kDeviceExec);
  EXPECT_EQ(stats.injected, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(FaultInjectorTest, AlwaysFaultExhaustsRetryBudget) {
  FaultConfig cfg;
  cfg.retry_budget = 3;
  cfg.backoff_ns = 1000;
  SitePolicy(&cfg, FaultSite::kStorageRead).trigger =
      FaultPolicy::Trigger::kAlways;
  ScopedFaultInjection arm(cfg);

  sim::HwParams hw = sim::HwParams::PaperDefaults();
  sim::AccessContext ctx(&hw, sim::Actor::kDevice, sim::IoPath::kInternal);
  Status st = sim::FaultCheck(FaultSite::kStorageRead, &ctx);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("storage.read"), std::string::npos)
      << st.ToString();
  // Backoff doubles per attempt: 1000 + 2000 + 4000.
  EXPECT_DOUBLE_EQ(ctx.now(), 7000.0);

  const auto stats = FaultInjector::Global().Stats(FaultSite::kStorageRead);
  EXPECT_EQ(stats.injected, 4u);  // initial fire + 3 failed retries
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.exhausted, 1u);
}

TEST(FaultInjectorTest, StallFaultDelaysWithoutError) {
  FaultConfig cfg;
  auto& p = SitePolicy(&cfg, FaultSite::kCoopSlot);
  p.trigger = FaultPolicy::Trigger::kAlways;
  p.stall_ns = 2500;
  ScopedFaultInjection arm(cfg);

  sim::HwParams hw = sim::HwParams::PaperDefaults();
  sim::AccessContext ctx(&hw, sim::Actor::kHost, sim::IoPath::kInternal);
  EXPECT_TRUE(sim::FaultCheck(FaultSite::kCoopSlot, &ctx).ok());
  EXPECT_DOUBLE_EQ(ctx.now(), 2500.0);
  EXPECT_EQ(FaultInjector::Global().Stats(FaultSite::kCoopSlot).stalls, 1u);
  EXPECT_EQ(FaultInjector::Global().Stats(FaultSite::kCoopSlot).exhausted, 0u);
}

TEST(FaultInjectorTest, ProbTriggerIsDeterministicallySeeded) {
  FaultConfig cfg;
  auto& p = SitePolicy(&cfg, FaultSite::kSstRead);
  p.trigger = FaultPolicy::Trigger::kProb;
  p.prob = 0.5;
  p.seed = 123;
  p.stall_ns = 1;  // stall faults don't retry: one decision per check
  ScopedFaultInjection arm(cfg);

  auto run = [] {
    FaultInjector::Global().ResetCounters();
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(sim::FaultCheck(FaultSite::kSstRead, nullptr).ok());
    }
    return FaultInjector::Global().Stats(FaultSite::kSstRead).stalls;
  };
  const uint64_t first = run();
  const uint64_t second = run();
  EXPECT_EQ(first, second);
  // A fair-ish coin over 200 draws: sanity bounds, not distribution tests.
  EXPECT_GT(first, 50u);
  EXPECT_LT(first, 150u);
}

TEST(FaultInjectorTest, ScopedInjectionRestoresPreviousState) {
  ASSERT_FALSE(FaultInjector::Enabled());
  {
    ScopedFaultInjection arm("device.exec:always");
    EXPECT_TRUE(FaultInjector::Enabled());
    {
      ScopedFaultInjection inner("coop.slot:nth=3");
      EXPECT_TRUE(FaultInjector::Enabled());
      EXPECT_FALSE(
          FaultInjector::Global().config().sites[0].armed());  // storage.read
    }
    EXPECT_TRUE(FaultInjector::Global()
                    .config()
                    .sites[static_cast<size_t>(FaultSite::kDeviceExec)]
                    .armed());
  }
  EXPECT_FALSE(FaultInjector::Enabled());
}

// ---------------------------------------------------------------------------
// Poisoned BatchSchedule: wake semantics

std::vector<ndp::DeviceBatch> ThreeBatches() {
  return {{0, 2, 8, 1000}, {0, 2, 8, 1000}, {0, 2, 8, 1000}};
}

TEST(BatchScheduleDeathTest, ZeroSharedSlotsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  EXPECT_DEATH(hybrid::BatchSchedule(ThreeBatches(), /*shared_slots=*/0, &hw,
                                     /*start_time=*/0, /*eager=*/false),
               "0 shared slots, at least one needed");
}

TEST(PoisonedScheduleTest, FetchOfDeadBatchWakesAtDeathTime) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  hybrid::BatchSchedule sched(ThreeBatches(), /*shared_slots=*/4, &hw,
                              /*start_time=*/0, /*eager=*/false);
  sched.Poison(5000, Status::IOError("producer died"), /*after=*/0);

  StageTimes stages;
  Status err;
  const SimNanos wake = sched.Fetch(0, /*host_now=*/100, &stages, &err);
  EXPECT_DOUBLE_EQ(wake, 5000.0);  // woken at the death notification
  EXPECT_TRUE(err.IsIOError());
  EXPECT_DOUBLE_EQ(stages.initial_wait, 4900.0);
  EXPECT_DOUBLE_EQ(stages.result_transfer, 0.0);

  // A consumer already past the death time is woken immediately.
  err = Status::OK();
  const SimNanos wake2 = sched.Fetch(1, /*host_now=*/9000, &stages, &err);
  EXPECT_DOUBLE_EQ(wake2, 9000.0);
  EXPECT_TRUE(err.IsIOError());
}

TEST(PoisonedScheduleTest, BatchesBeforeThePoisonIndexStillArrive) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  hybrid::BatchSchedule sched(ThreeBatches(), 4, &hw, 0, /*eager=*/false);
  sched.Poison(10'000, Status::Aborted("device fault"), /*after=*/2);

  StageTimes stages;
  Status err;
  SimNanos now = sched.Fetch(0, 0, &stages, &err);
  EXPECT_TRUE(err.ok());
  now = sched.Fetch(1, now, &stages, &err);
  EXPECT_TRUE(err.ok());
  sched.Fetch(2, now, &stages, &err);
  EXPECT_TRUE(err.IsAborted());
}

TEST(PoisonedScheduleTest, ErrorOutParamIsOptional) {
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  hybrid::BatchSchedule sched(ThreeBatches(), 4, &hw, 0, /*eager=*/false);
  sched.Poison(0, Status::IOError("x"), 0);
  StageTimes stages;
  // Legacy 3-arg callers (timing-only tests) must not crash on poison.
  EXPECT_DOUBLE_EQ(sched.Fetch(0, 50, &stages), 50.0);
}

TEST(PoisonedScheduleTest, PoisonAfterDeliveryFailsOnlyTheTail) {
  // The device-death shape: the consumer has drained a prefix under slot
  // back-pressure when the producer dies; the tail wakes at the death time.
  sim::HwParams hw = sim::HwParams::PaperDefaults();
  std::vector<ndp::DeviceBatch> batches(8, {0, 10, 1000, 50'000.0});
  hybrid::BatchSchedule sched(batches, /*shared_slots=*/2, &hw,
                              /*start_time=*/0, /*eager=*/false);
  StageTimes stages;
  Status err;
  SimNanos now = 0;
  for (size_t j = 0; j < 4; ++j) {
    now = sched.Fetch(j, now, &stages, &err);
    EXPECT_TRUE(err.ok()) << err.ToString();
  }
  EXPECT_GT(now, 0.0);
  EXPECT_FALSE(sched.poisoned());

  sched.Poison(1'000'000'000.0, Status::IOError("device died"), /*after=*/4);
  for (size_t j = 4; j < batches.size(); ++j) {
    now = sched.Fetch(j, now, &stages, &err);
    EXPECT_TRUE(err.IsIOError()) << "batch " << j;
  }
  EXPECT_TRUE(sched.poisoned());
  EXPECT_TRUE(sched.poison_status().IsIOError());
  EXPECT_GE(now, 1'000'000'000.0);  // woken at the death, never earlier
}

// ---------------------------------------------------------------------------
// Status propagation through the host pipeline

class PoisonedSourceTest : public ::testing::Test {
 protected:
  PoisonedSourceTest()
      : hw_(sim::HwParams::PaperDefaults()),
        schema_({IntCol("v")}),
        ctx_(&hw_, sim::Actor::kHost, sim::IoPath::kNative) {
    rows_.Reset(schema_.row_size());
    for (int i = 0; i < 6; ++i) {
      RowBuilder rb(&schema_);
      rb.SetInt(0, i);
      rows_.Append(rb.row().data());
    }
  }

  /// Schedule of 3 x 2-row batches, poisoned after the first two batches:
  /// 4 rows arrive, then the producer dies.
  std::unique_ptr<hybrid::BatchSchedule> MakePoisonedSchedule() {
    auto sched = std::make_unique<hybrid::BatchSchedule>(
        ThreeBatches(), 4, &hw_, 0, /*eager=*/false);
    sched->Poison(10'000, Status::IOError("injected fault at sst.read"),
                  /*after=*/2);
    return sched;
  }

  sim::HwParams hw_;
  rel::Schema schema_;
  exec::RowStore rows_;
  sim::AccessContext ctx_;
  StageTimes stages_;
};

TEST_F(PoisonedSourceTest, BatchPullDeliversPrefixThenParksStatus) {
  auto sched = MakePoisonedSchedule();
  hybrid::StallingSourceOp src(schema_, &rows_, sched.get(), &ctx_, &stages_);
  ASSERT_TRUE(src.Open().ok());
  size_t delivered = 0;
  while (exec::RowBatch* b = src.NextBatch(64)) delivered += b->num_active();
  EXPECT_EQ(delivered, 4u);
  EXPECT_TRUE(src.status().IsIOError());
}

TEST_F(PoisonedSourceTest, CollectAllSurfacesChildStatusThroughParents) {
  // The error is parked two levels down (source under a projection); the
  // drain must surface it instead of returning a silently truncated result
  // set, one row per pull or several.
  for (const size_t batch_rows : {1u, 3u}) {
    auto sched = MakePoisonedSchedule();
    exec::OperatorPtr src = std::make_unique<hybrid::StallingSourceOp>(
        schema_, &rows_, sched.get(), &ctx_, &stages_);
    auto root = std::make_unique<exec::ProjectOp>(
        std::move(src), std::vector<std::string>{"v"}, &ctx_);
    auto rows = exec::CollectAll(root.get(), batch_rows);
    EXPECT_FALSE(rows.ok()) << "batch_rows=" << batch_rows;
    EXPECT_TRUE(rows.status().IsIOError());
  }
}

TEST_F(PoisonedSourceTest, ShortStreamParksStatusInsteadOfTruncating) {
  // The schedule promises 8 rows (2 + 2 + 4), the stream holds 6: the rows
  // of the first two batches arrive, then the third batch's claim of rows
  // that are not there fails the stream, in any pull size.
  for (const size_t pull : {1u, 3u, 64u}) {
    SCOPED_TRACE("pull=" + std::to_string(pull));
    std::vector<ndp::DeviceBatch> batches = ThreeBatches();
    batches[2].rows = 4;
    hybrid::BatchSchedule sched(batches, 4, &hw_, 0, /*eager=*/false);
    hybrid::StallingSourceOp src(schema_, &rows_, &sched, &ctx_, &stages_);
    ASSERT_TRUE(src.Open().ok());
    size_t delivered = 0;
    while (exec::RowBatch* b = src.NextBatch(pull)) {
      delivered += b->num_active();
    }
    EXPECT_EQ(delivered, 4u);
    EXPECT_TRUE(src.status().IsCorruption()) << src.status().ToString();
  }
}

TEST_F(PoisonedSourceTest, CleanScheduleStillDrainsEverything) {
  hybrid::BatchSchedule sched(ThreeBatches(), 4, &hw_, 0, /*eager=*/false);
  hybrid::StallingSourceOp src(schema_, &rows_, &sched, &ctx_, &stages_);
  ASSERT_TRUE(src.Open().ok());
  size_t delivered = 0;
  while (exec::RowBatch* b = src.NextBatch(64)) delivered += b->num_active();
  EXPECT_EQ(delivered, 6u);
  EXPECT_TRUE(src.status().ok());
}

// ---------------------------------------------------------------------------
// End-to-end: hybrid executor under injected faults

/// The orders world sized for many repeated runs (80 customers, 50
/// products, 1500 orders).
class FaultE2ETest : public OrdersWorld {
 protected:
  FaultE2ETest() : OrdersWorld({80, 50, 1500}) {}

  /// Berlin customers ⋈ orders, with orders joined as a BNLJI through the
  /// secondary index on orders.customer_id. The planner prefers a BNLJ at
  /// this size, so the plan is switched to the index join.
  Result<hybrid::Plan> MakeIndexJoinPlan() {
    hybrid::Query q;
    q.name = "berlin_orders";
    q.tables.push_back(
        {"customer", "c", Expr::CmpStr("c.city", CmpOp::kEq, "berlin")});
    q.tables.push_back({"orders", "o", nullptr});
    q.joins.push_back({"o", "customer_id", "c", "id"});
    q.select_columns = {"o.id", "c.name", "o.quantity"};
    hybrid::Planner planner(&catalog_, &hw_, MakePlannerConfig());
    auto plan = planner.PlanQuery(q);
    if (plan.ok() && plan->order.size() == 2) {
      plan->order[1].join.algo = nkv::JoinAlgo::kBNLJI;
    }
    return plan;
  }
};

TEST_F(FaultE2ETest, ZeroFaultModeIsBitIdenticalWhileArmed) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();

  auto clean = executor.Run(*plan, {Strategy::kHybrid, 1});
  ASSERT_TRUE(clean.ok());

  // Armed injector whose policy never fires: the simulation must be
  // bit-identical — site checks draw op numbers but charge nothing.
  ScopedFaultInjection arm("device.exec:nth=1000000");
  auto armed = executor.Run(*plan, {Strategy::kHybrid, 1});
  ASSERT_TRUE(armed.ok());
  EXPECT_FALSE(armed->fell_back);
  EXPECT_EQ(armed->total_ns, clean->total_ns);
  EXPECT_EQ(armed->rows, clean->rows);
  EXPECT_EQ(armed->host_stages.total(), clean->host_stages.total());
  EXPECT_EQ(armed->device_busy_ns, clean->device_busy_ns);
}

TEST_F(FaultE2ETest, TransientDeviceFaultRetriesAndSucceeds) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  auto clean = executor.Run(*plan, {Strategy::kHybrid, 1});
  ASSERT_TRUE(clean.ok());

  // nth=1 fires on the first NDP invocation; the retry re-draws op 2 and
  // recovers — no fallback, identical results, one retry on the books.
  ScopedFaultInjection arm("device.exec:nth=1");
  auto r = executor.Run(*plan, {Strategy::kHybrid, 1});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->fell_back);
  EXPECT_EQ(Canon(*r), Canon(*clean));
  const auto stats = FaultInjector::Global().Stats(FaultSite::kDeviceExec);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST_F(FaultE2ETest, SlotStallDelaysButSucceeds) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  auto clean = executor.Run(*plan, {Strategy::kHybrid, 1});
  ASSERT_TRUE(clean.ok());

  ScopedFaultInjection arm("coop.slot:always,stall=100us");
  auto r = executor.Run(*plan, {Strategy::kHybrid, 1});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->fell_back);
  EXPECT_EQ(Canon(*r), Canon(*clean));
  EXPECT_GT(r->total_ns, clean->total_ns);  // spikes became wait time
  EXPECT_GT(FaultInjector::Global().Stats(FaultSite::kCoopSlot).stalls, 0u);
}

TEST_F(FaultE2ETest, PermanentFaultAtEverySiteDegradesToCorrectResults) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();

  auto host_ref = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(host_ref.ok());
  const auto want = Canon(*host_ref);

  const FaultSite sites[] = {FaultSite::kStorageRead, FaultSite::kSstRead,
                             FaultSite::kDeviceExec, FaultSite::kCoopSlot};
  const ExecChoice choices[] = {{Strategy::kHybrid, 0},
                                {Strategy::kHybrid, 1},
                                {Strategy::kFullNdp, 0}};
  for (const FaultSite site : sites) {
    for (const ExecChoice& choice : choices) {
      ScopedFaultInjection arm(std::string(sim::FaultSiteName(site)) +
                               ":always");
      obs::TraceRecorder rec;
      auto r = executor.Run(*plan, choice, nullptr, &rec);
      ASSERT_TRUE(r.ok())
          << sim::FaultSiteName(site) << "/" << choice.ToString() << ": "
          << r.status().ToString();
      EXPECT_TRUE(r->fell_back)
          << sim::FaultSiteName(site) << "/" << choice.ToString();
      EXPECT_TRUE(r->fault_status.IsIOError());
      EXPECT_GT(r->fault_wasted_ns, 0);
      EXPECT_EQ(Canon(*r), want)
          << sim::FaultSiteName(site) << "/" << choice.ToString();
      // Degradation is observable: counted, and the wasted attempt is a
      // setup-category span so the stage spans still tile [0, total].
      EXPECT_EQ(rec.metrics()->counter("hndp.fallback")->value(), 1u);
      ASSERT_GE(r->trace_host_track, 0);
      EXPECT_DOUBLE_EQ(rec.CategoryTotal(r->trace_host_track, "setup"),
                       r->fault_wasted_ns);
      EXPECT_DOUBLE_EQ(r->host_stages.ndp_setup, r->fault_wasted_ns);
      EXPECT_DOUBLE_EQ(r->host_stages.total(), r->total_ns);
    }
  }
}

TEST_F(FaultE2ETest, HostOnlyRunsAreImmuneToDeviceSideFaults) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  auto clean = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(clean.ok());

  // storage.read / sst.read faults are device-gated, so the host path never
  // trips them — the precondition for fallback always succeeding.
  ScopedFaultInjection arm("storage.read:always;sst.read:always");
  auto r = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->fell_back);
  EXPECT_EQ(Canon(*r), Canon(*clean));
}

TEST_F(FaultE2ETest, LevelScanLatchesSstReadErrorInsteadOfTruncating) {
  // Push the orders table into C2+: those files sit behind the concatenating
  // level iterator, which used to treat an errored file iterator as merely
  // exhausted — skipping past it and reporting a clean, truncated scan.
  ASSERT_TRUE(db_.CompactAll(orders_->primary_cf()).ok());
  const lsm::Version& v = db_.GetVersion(orders_->primary_cf());
  size_t deep_files = 0;
  for (size_t level = 1; level < v.levels.size(); ++level) {
    deep_files += v.levels[level].size();
  }
  ASSERT_GT(deep_files, 0u) << "compaction left no files below C1";

  sim::AccessContext host_ctx(&hw_, sim::Actor::kHost, sim::IoPath::kNative);
  lsm::ReadOptions host_opts;
  host_opts.ctx = &host_ctx;
  size_t total_rows = 0;
  auto host_it = db_.NewIterator(host_opts, orders_->primary_cf());
  for (host_it->SeekToFirst(); host_it->Valid(); host_it->Next()) {
    ++total_rows;
  }
  ASSERT_TRUE(host_it->status().ok()) << host_it->status().ToString();
  ASSERT_EQ(total_rows, 1500u);

  ScopedFaultInjection arm("sst.read:always");
  sim::AccessContext dev_ctx(&hw_, sim::Actor::kDevice,
                             sim::IoPath::kInternal);
  lsm::ReadOptions dev_opts;
  dev_opts.ctx = &dev_ctx;
  auto it = db_.NewIterator(dev_opts, orders_->primary_cf());
  size_t rows = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++rows;
  // The drain may stop early, but it must NOT look like a clean exhaustion:
  // either every row arrived or the error is parked on the iterator.
  EXPECT_TRUE(it->status().IsIOError()) << it->status().ToString();
  EXPECT_LT(rows, total_rows);
}

TEST_F(FaultE2ETest, SstReadSweepNeverTruncatesSecondaryIndexJoin) {
  auto plan = MakeIndexJoinPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->order.size(), 2u);
  ASSERT_EQ(plan->order[1].join.outer_key_col, "c.id");
  ASSERT_EQ(plan->order[1].join.inner_join_col, "customer_id");
  auto executor = MakeExecutor();
  auto host_ref = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(host_ref.ok());
  const auto want = Canon(*host_ref);
  ASSERT_FALSE(want.empty());

  // Count the device's SST block reads in one clean run on the device.
  const ExecChoice ndp{Strategy::kFullNdp, 0};
  uint64_t reads = 0;
  {
    ScopedFaultInjection arm("sst.read:nth=1000000000");
    auto clean = executor.Run(*plan, ndp);
    ASSERT_TRUE(clean.ok());
    ASSERT_FALSE(clean->fell_back);
    EXPECT_EQ(Canon(*clean), want);
    reads = FaultInjector::Global().Stats(FaultSite::kSstRead).ops;
  }
  ASSERT_GT(reads, 0u);

  // Fail each read in turn, with no retry: most land inside the index
  // walks and the primary-key lookups of the join. Every run must end with
  // the host-only rows (after falling back) or a clean error.
  uint64_t fell_back = 0;
  for (uint64_t k = 1; k <= reads; ++k) {
    ScopedFaultInjection arm("sst.read:nth=" + std::to_string(k) +
                             ";retry:budget=0");
    auto r = executor.Run(*plan, ndp);
    if (!r.ok()) continue;
    EXPECT_TRUE(Canon(*r) == want) << "sst.read:nth=" << k << ": "
                                   << r->rows.size() << " rows, want "
                                   << host_ref->rows.size();
    fell_back += r->fell_back ? 1 : 0;
  }
  // No injected error was swallowed: each one failed the device attempt.
  EXPECT_EQ(fell_back, reads);
}

TEST_F(FaultE2ETest, FailedDeviceScanPaysItsChargesBeforeFallingBack) {
  // H0 offloads every leaf scan. Failing the k-th device block read, with
  // no retry, ends a device scan in the middle of a pull; the fallback run
  // carries the device time spent up to the failure as its setup stage. A
  // scan that returned the error without paying the step charges it had
  // gathered would end earlier and shrink that stage.
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto executor = MakeExecutor();
  auto host_ref = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(host_ref.ok());
  const auto want = Canon(*host_ref);

  struct Pinned {
    uint64_t k;
    SimNanos total_ns;
    SimNanos ndp_setup;
  };
  // The device run reads 14 blocks; the host-only processing after the
  // fallback is the same 207336.049 ns every time.
  const Pinned pinned[] = {{1, 355336.049, 148000},
                           {2, 479857.26300000004, 272521.21399999998},
                           {3, 662264.16899999999, 454928.12},
                           {5, 543601.98900000006, 336265.94},
                           {8, 635425.81900000002, 428089.77000000002},
                           {11, 735015.78200000001, 527679.73300000001},
                           {14, 783430.52800000005, 576094.47900000005}};
  for (const Pinned& p : pinned) {
    ScopedFaultInjection arm("sst.read:nth=" + std::to_string(p.k) +
                             ";retry:budget=0");
    auto r = executor.Run(*plan, {Strategy::kHybrid, 0});
    ASSERT_TRUE(r.ok()) << "k=" << p.k << ": " << r.status().ToString();
    EXPECT_TRUE(r->fell_back) << "k=" << p.k;
    EXPECT_EQ(Canon(*r), want) << "k=" << p.k;
    EXPECT_EQ(r->total_ns, p.total_ns) << "k=" << p.k;
    EXPECT_EQ(r->host_stages.ndp_setup, p.ndp_setup) << "k=" << p.k;
    EXPECT_EQ(r->host_stages.initial_wait, 0) << "k=" << p.k;
    EXPECT_EQ(r->host_stages.later_waits, 0) << "k=" << p.k;
    EXPECT_EQ(r->host_stages.result_transfer, 0) << "k=" << p.k;
    EXPECT_EQ(r->host_stages.processing, 207336.049) << "k=" << p.k;
  }
}

TEST_F(FaultE2ETest, StorageWriteFaultFailsSstBuild) {
  ScopedFaultInjection arm("storage.write:always");
  auto file = storage_.AddFile("payload");
  EXPECT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsIOError());
}

TEST_F(FaultE2ETest, FailedFlushKeepsEveryRowReadable) {
  const lsm::ColumnFamilyId cf = db_.CreateColumnFamily("flush_probe");
  const auto row_key = [](int i) { return "row" + std::to_string(i); };
  const uint64_t flushes_before = db_.stats().flushes;
  int written = 0;
  {
    // Every flush fails: the write that fills C0 reports the error, and the
    // rows stay in the MemTable.
    ScopedFaultInjection arm("storage.write:always");
    ASSERT_TRUE(db_.Put(cf, "K", "v1").ok());
    Status s;
    while (s.ok()) {
      ASSERT_LT(written, 100000) << "no write reported the failed flush";
      s = db_.Put(cf, row_key(written++), std::string(100, 'x'));
    }
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
  }
  EXPECT_EQ(db_.stats().flushes, flushes_before);

  ASSERT_TRUE(db_.Put(cf, "K", "v2").ok());
  for (int i = 0; db_.stats().flushes == flushes_before; ++i) {
    ASSERT_LT(i, 100000) << "no flush after the fault was disarmed";
    ASSERT_TRUE(db_.Put(cf, "after" + std::to_string(i), "y").ok());
  }

  Slice value;
  ASSERT_TRUE(db_.Get(lsm::ReadOptions{}, cf, "K", &value).ok());
  EXPECT_EQ(value, "v2");
  for (int i = 0; i < written; ++i) {
    ASSERT_TRUE(db_.Get(lsm::ReadOptions{}, cf, row_key(i), &value).ok())
        << row_key(i);
    EXPECT_EQ(value, std::string(100, 'x'));
  }
}

TEST_F(FaultE2ETest, BlockedConsumerIsWokenNotDeadlocked) {
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  auto host_ref = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(host_ref.ok());

  // Watchdog: the consumer blocks on device batches whose producer dies
  // mid-production. Poison-the-buffer must complete the run (via fallback)
  // instead of deadlocking in StallingSourceOp::Fetch; the future would
  // never become ready if the consumer hung.
  ScopedFaultInjection arm("coop.slot:nth=2");  // die on the 2nd slot handoff
  auto fut = std::async(std::launch::async, [&] {
    return executor.Run(*plan, {Strategy::kHybrid, 1});
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "consumer deadlocked on a dead producer";
  auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // nth=2 with retries drawing ops 3..5: coop.slot:always-style recovery
  // does not apply — the retry draws don't fire, so the fault is transient
  // and the run either recovers or falls back; both must yield correct rows.
  EXPECT_EQ(Canon(*r), Canon(*host_ref));
}

TEST_F(FaultE2ETest, EnvSpecSmoke) {
  // CI's fault-smoke matrix runs this binary with HNDP_FAULTS armed; this
  // test proves the armed spec parses and a real query survives it (clean
  // or degraded). Without the variable it just checks the disarmed default.
  const char* spec = std::getenv("HNDP_FAULTS");
  auto plan = MakePlan();
  ASSERT_TRUE(plan.ok());
  auto executor = MakeExecutor();
  auto clean = executor.Run(*plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(clean.ok());

  if (spec == nullptr || *spec == '\0') {
    EXPECT_FALSE(FaultInjector::Enabled());
    return;
  }
  auto cfg = FaultConfig::Parse(spec);
  ASSERT_TRUE(cfg.ok()) << "HNDP_FAULTS=" << spec << ": "
                        << cfg.status().ToString();
  {
    ScopedFaultInjection arm(*cfg);
    auto r = executor.Run(*plan, {Strategy::kHybrid, 1});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Canon(*r), Canon(*clean));
  }

  // The same spec, armed afresh, over a device join through a secondary
  // index (the fault-smoke matrix has an entry that lands in its lookups).
  auto index_plan = MakeIndexJoinPlan();
  ASSERT_TRUE(index_plan.ok());
  auto index_clean = executor.Run(*index_plan, {Strategy::kHostNative, 0});
  ASSERT_TRUE(index_clean.ok());
  ScopedFaultInjection arm(*cfg);
  auto r = executor.Run(*index_plan, {Strategy::kFullNdp, 0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Canon(*r), Canon(*index_clean));
}

}  // namespace
}  // namespace hybridndp
