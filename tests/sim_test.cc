// Tests for the hardware model, cost accounting, and the profiler.

#include <gtest/gtest.h>

#include <vector>

#include "sim/cost.h"
#include "sim/hw_model.h"
#include "sim/profiler.h"

namespace hybridndp::sim {
namespace {

TEST(PcieModelTest, BandwidthScalesWithGenerationAndLanes) {
  PcieModel gen2x8{2, 8};
  PcieModel gen3x8{3, 8};
  PcieModel gen2x4{2, 4};
  EXPECT_GT(gen3x8.BytesPerSec(), gen2x8.BytesPerSec() * 1.5);
  EXPECT_NEAR(gen2x8.BytesPerSec() / gen2x4.BytesPerSec(), 2.0, 0.01);
  // PCIe 2.0 x8: 4 GB/s raw, ~3.4 GB/s effective after encoding + protocol.
  EXPECT_NEAR(gen2x8.BytesPerSec() / 1e9, 3.4, 0.2);
}

TEST(PcieModelTest, TransferTimeHasLatencyFloor) {
  PcieModel pcie{2, 8};
  EXPECT_GE(pcie.TransferTime(1), pcie.command_latency_ns);
  EXPECT_GT(pcie.TransferTime(1 << 20), pcie.TransferTime(1 << 10));
}

TEST(FlashModelTest, SequentialBeatsRandomPerByte) {
  FlashModel flash;
  // Reading 1 MiB sequentially (channel-parallel) must be much cheaper than
  // 64 random page reads of the same volume.
  const SimNanos seq = flash.InternalReadTime(1 << 20);
  const SimNanos rand = 64 * flash.RandomPageReadTime();
  EXPECT_LT(seq, rand / 4);
}

TEST(FlashModelTest, FractionalPagesNotOverCharged) {
  FlashModel flash;
  // Four quarter-page reads must cost the same as one full page.
  const SimNanos quarter = flash.InternalReadTime(flash.page_bytes / 4);
  const SimNanos full = flash.InternalReadTime(flash.page_bytes);
  EXPECT_NEAR(4 * quarter, full, full * 0.01);
}

TEST(HwParamsTest, PaperDefaultsMatchCoreMarkRatio) {
  HwParams hw = HwParams::PaperDefaults();
  EXPECT_NEAR(hw.ComputeRatio(), 92343.0 / 2964.0, 0.5);
  EXPECT_EQ(hw.pcie.version, 2);
  EXPECT_EQ(hw.pcie.lanes, 8);
  EXPECT_EQ(hw.device_cpu.cores, 1);
  EXPECT_FALSE(hw.ToString().empty());
}

TEST(AccessContextTest, DeviceCpuWorkIsSlowerByComputeRatio) {
  HwParams hw = HwParams::PaperDefaults();
  AccessContext host(&hw, Actor::kHost, IoPath::kNative);
  AccessContext dev(&hw, Actor::kDevice, IoPath::kInternal);
  host.Charge(CostKind::kRecordEval, 1000);
  dev.Charge(CostKind::kRecordEval, 1000);
  // Raw compute differs by the CoreMark ratio; the host additionally pays
  // its interpreted-engine cycle factor on query work.
  EXPECT_NEAR(dev.now() / host.now(),
              hw.ComputeRatio() / hw.host_cpu.engine_cycle_factor, 0.01);
  EXPECT_GT(hw.host_cpu.engine_cycle_factor, 1.0);
}

TEST(AccessContextTest, IoPathsOrderedByOverhead) {
  HwParams hw = HwParams::PaperDefaults();
  AccessContext internal(&hw, Actor::kDevice, IoPath::kInternal);
  AccessContext native(&hw, Actor::kHost, IoPath::kNative);
  AccessContext blk(&hw, Actor::kHost, IoPath::kBlk);
  const uint64_t bytes = 4 << 20;
  internal.ChargeFlashRead(bytes);
  native.ChargeFlashRead(bytes);
  blk.ChargeFlashRead(bytes);
  EXPECT_LT(internal.now(), native.now());
  EXPECT_LT(native.now(), blk.now());
}

TEST(AccessContextTest, CountersTrackUnitsAndTime) {
  HwParams hw = HwParams::PaperDefaults();
  AccessContext ctx(&hw, Actor::kHost, IoPath::kNative);
  ctx.Charge(CostKind::kMemcmp, 100);
  ctx.Charge(CostKind::kMemcmp, 50);
  ctx.ChargeTransfer(1 << 20);
  EXPECT_EQ(ctx.counters().Units(CostKind::kMemcmp), 150u);
  EXPECT_EQ(ctx.counters().Units(CostKind::kTransfer), 1u << 20);
  EXPECT_NEAR(ctx.counters().TotalTime(), ctx.now(), 1e-6);
  ctx.ResetCosts();
  EXPECT_EQ(ctx.now(), 0.0);
  EXPECT_EQ(ctx.counters().Units(CostKind::kMemcmp), 0u);
}

TEST(AccessContextTest, CopyFactorDiscountsPointerCache) {
  HwParams hw = HwParams::PaperDefaults();
  AccessContext row(&hw, Actor::kDevice, IoPath::kInternal);
  AccessContext ptr(&hw, Actor::kDevice, IoPath::kInternal);
  ptr.SetCopyFactor(0.15);
  row.ChargeCopy(1 << 20);
  ptr.ChargeCopy(1 << 20);
  EXPECT_NEAR(ptr.now() / row.now(), 0.15, 0.01);
}

/// The quantized price of one charge, computed from the models directly.
SimPicos DirectPicos(const HwParams& hw, Actor actor, CostKind kind,
                     uint64_t units, double copy_factor) {
  const CpuModel& cpu = actor == Actor::kHost ? hw.host_cpu : hw.device_cpu;
  const CostCycleTable cycles;
  double per_unit = 0;
  switch (kind) {
    case CostKind::kCopy:
      return NanosToPicos(cpu.TimeForCopy(units) * copy_factor);
    case CostKind::kMemcmp:
      per_unit = cycles.memcmp_per_byte;
      break;
    case CostKind::kCompareInternalKeys:
      per_unit = cycles.compare_internal_key;
      break;
    case CostKind::kSeekIndexBlock:
      per_unit = cycles.seek_index_block;
      break;
    case CostKind::kSelectionProcessing:
      per_unit = cycles.selection_per_record;
      break;
    case CostKind::kSeekDataBlock:
      per_unit = cycles.seek_data_block;
      break;
    case CostKind::kOther:
      per_unit = 1.0;
      break;
    case CostKind::kHashBuild:
      per_unit = cycles.hash_build;
      break;
    case CostKind::kHashProbe:
      per_unit = cycles.hash_probe;
      break;
    case CostKind::kRecordEval:
      per_unit = cycles.record_eval;
      break;
    case CostKind::kAggUpdate:
      per_unit = cycles.agg_update;
      break;
    default:
      ADD_FAILURE() << "not a CPU kind";
  }
  return NanosToPicos(cpu.TimeForCycles(per_unit * units));
}

TEST(AccessContextTest, ChargesEqualTheDirectlyComputedPrice) {
  const HwParams hw = HwParams::PaperDefaults();
  // Unit counts below, at and above the size of the context's price table.
  constexpr uint64_t kTable = AccessContext::kPricedUnits;
  std::vector<uint64_t> units;
  for (uint64_t u = 0; u <= 2 * kTable + 1; ++u) units.push_back(u);
  for (uint64_t u : {2047ull, 4096ull, 65537ull, 1ull << 30}) {
    units.push_back(u);
  }
  for (Actor actor : {Actor::kHost, Actor::kDevice}) {
    AccessContext ctx(&hw, actor, IoPath::kInternal);
    for (double copy_factor : {1.0, 0.15}) {
      ctx.SetCopyFactor(copy_factor);
      for (int k = 0; k < kNumCostKinds; ++k) {
        const auto kind = static_cast<CostKind>(k);
        if (kind == CostKind::kFlashLoad || kind == CostKind::kTransfer) {
          continue;
        }
        for (uint64_t u : units) {
          const SimPicos want = DirectPicos(hw, actor, kind, u, copy_factor);
          ctx.ResetCosts();
          ctx.Charge(kind, u);
          ASSERT_EQ(ctx.counters().time_ps[k], want)
              << CostKindName(kind) << " x" << u << " factor " << copy_factor;
          ASSERT_EQ(ctx.counters().units[k], u);
          ASSERT_EQ(ctx.clock().now_ps(), want);
          // n repetitions in one step are n single charges, exactly.
          for (uint64_t n : {0ull, 1ull, 3ull, 1000ull}) {
            ctx.ResetCosts();
            ctx.ChargeRepeated(kind, u, n);
            ASSERT_EQ(ctx.counters().time_ps[k],
                      static_cast<SimPicos>(n) * want);
            ASSERT_EQ(ctx.counters().units[k], u * n);
            ASSERT_EQ(ctx.clock().now_ps(), static_cast<SimPicos>(n) * want);
          }
        }
      }
    }
  }
}

TEST(CostCountersTest, MergeAndBreakdown) {
  CostCounters a, b;
  a.Add(CostKind::kMemcmp, 10, 100.0);
  b.Add(CostKind::kMemcmp, 5, 50.0);
  b.Add(CostKind::kFlashLoad, 4096, 2000.0);
  a.Merge(b);
  EXPECT_EQ(a.Units(CostKind::kMemcmp), 15u);
  EXPECT_NEAR(a.Time(CostKind::kFlashLoad), 2000.0, 1e-9);
  const std::string s = a.BreakdownString();
  EXPECT_NE(s.find("memcmp"), std::string::npos);
  EXPECT_NE(s.find("flash load"), std::string::npos);
}

TEST(SimClockTest, AdvanceToNeverGoesBackward) {
  SimClock clock;
  clock.Advance(100);
  clock.AdvanceTo(50);  // in the past: no-op
  EXPECT_EQ(clock.now(), 100.0);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.now(), 200.0);
}

TEST(ProfilerTest, ReproducesPaperRatios) {
  HwParams platform = HwParams::PaperDefaults();
  HardwareProfiler profiler(platform);
  ProfileReport report = profiler.Run();
  // The compute-kernel ratio must match CoreMark (paper: ~31x).
  EXPECT_NEAR(report.host_coremark / report.device_coremark, 31.2, 1.0);
  // Internal flash path beats the host paths.
  EXPECT_GT(report.internal_seq_read_gbps, report.host_native_seq_read_gbps);
  EXPECT_GT(report.host_native_seq_read_gbps, report.host_blk_seq_read_gbps);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(ProfilerTest, DerivedParamsFeedTheModel) {
  HwParams platform = HwParams::PaperDefaults();
  HardwareProfiler profiler(platform);
  ProfileReport report = profiler.Run();
  HwParams derived = profiler.DeriveParams(report);
  EXPECT_NEAR(derived.ndp_flash_clock, 1.0, 1e-9);
  EXPECT_GT(derived.host_flash_clock, 0.0);
  EXPECT_LT(derived.host_flash_clock, 1.0);
  EXPECT_NEAR(derived.ComputeRatio(), platform.ComputeRatio(),
              platform.ComputeRatio() * 0.05);
}

}  // namespace
}  // namespace hybridndp::sim
