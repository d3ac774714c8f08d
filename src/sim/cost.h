// Cost accounting: every physical action in the engine (flash page loads,
// key comparisons, memcmp bytes, index seeks, PCIe transfers, ...) is charged
// to an AccessContext, which advances the owning actor's simulated clock and
// tallies per-category counters. The categories follow the device-side
// breakdown the paper reports in Table 4.

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/sim_clock.h"
#include "sim/hw_model.h"

namespace hybridndp::sim {

/// Who executes the work.
enum class Actor : uint8_t { kHost = 0, kDevice = 1 };

/// Which I/O stack the actor uses to reach flash (paper Fig. 10).
enum class IoPath : uint8_t {
  kBlk = 0,       ///< host via ext4 + block layer (baseline BLK)
  kNative = 1,    ///< host via native NVMe, no FS abstractions (NATIVE)
  kInternal = 2,  ///< device-internal access (NDP engine)
};

/// Cost categories. The first seven mirror the paper's Table 4 device
/// breakdown; the remainder cover host-side and cross-cutting work.
enum class CostKind : uint8_t {
  kMemcmp = 0,              ///< predicate/value byte comparisons (unit: bytes)
  kCompareInternalKeys,     ///< LSM internal-key comparisons (unit: count)
  kSeekIndexBlock,          ///< sparse-index binary-search seeks (unit: count)
  kSelectionProcessing,     ///< per-record selection framework (unit: records)
  kSeekDataBlock,           ///< data-block restart-point seeks (unit: count)
  kFlashLoad,               ///< flash page loads (unit: bytes)
  kOther,                   ///< misc bookkeeping (unit: cycles)
  kHashBuild,               ///< hash-table inserts (unit: count)
  kHashProbe,               ///< hash-table probes (unit: count)
  kCopy,                    ///< memcpy/materialization (unit: bytes)
  kRecordEval,              ///< generic row evaluation (unit: records)
  kAggUpdate,               ///< aggregate updates (unit: count)
  kTransfer,                ///< interconnect transfers (unit: bytes)
  kNumKinds,
};

constexpr int kNumCostKinds = static_cast<int>(CostKind::kNumKinds);

/// Display name for a cost kind (matches Table 4 vocabulary).
const char* CostKindName(CostKind kind);

/// Per-category tallies: units and simulated time. Time is stored as
/// integer picoseconds (quantized per charge, see SimPicos) so that sums are
/// exact and independent of charge order; nanoseconds at the API boundary.
struct CostCounters {
  std::array<uint64_t, kNumCostKinds> units{};
  std::array<SimPicos, kNumCostKinds> time_ps{};

  void Add(CostKind kind, uint64_t u, SimNanos t) {
    units[static_cast<int>(kind)] += u;
    time_ps[static_cast<int>(kind)] += NanosToPicos(t);
  }
  /// Add an already-quantized total (see AccessContext::ChargeRepeated).
  void AddQuantized(CostKind kind, uint64_t u, SimPicos ps) {
    units[static_cast<int>(kind)] += u;
    time_ps[static_cast<int>(kind)] += ps;
  }
  uint64_t Units(CostKind kind) const {
    return units[static_cast<int>(kind)];
  }
  SimNanos Time(CostKind kind) const {
    return PicosToNanos(time_ps[static_cast<int>(kind)]);
  }
  SimNanos TotalTime() const {
    SimPicos t = 0;
    for (auto v : time_ps) t += v;
    return PicosToNanos(t);
  }
  void Merge(const CostCounters& other) {
    for (int i = 0; i < kNumCostKinds; ++i) {
      units[i] += other.units[i];
      time_ps[i] += other.time_ps[i];
    }
  }
  void Reset() {
    units.fill(0);
    time_ps.fill(0);
  }
  /// Percent-of-total rendering in the style of paper Table 4 (right).
  std::string BreakdownString() const;
};

/// Abstract work cycles per unit of each cost kind. Cycle constants are
/// platform-independent; actors differ via CpuModel::effective_hz, which is
/// CoreMark-calibrated (in-order ARM A9 vs out-of-order i5).
struct CostCycleTable {
  double memcmp_per_byte = 1.2;
  double compare_internal_key = 16;
  double seek_index_block = 600;
  double selection_per_record = 60;
  double seek_data_block = 400;
  double hash_build = 60;
  double hash_probe = 40;
  double record_eval = 80;
  double agg_update = 30;
};

/// Charges costs against one actor's simulated clock.
class AccessContext {
 public:
  AccessContext(const HwParams* hw, Actor actor, IoPath path)
      : hw_(hw), actor_(actor), path_(path) {}

  Actor actor() const { return actor_; }
  IoPath path() const { return path_; }
  const HwParams& hw() const { return *hw_; }
  SimClock& clock() { return clock_; }
  SimNanos now() const { return clock_.now(); }
  const CostCounters& counters() const { return counters_; }

  /// Charge `units_count` units of CPU-type work of the given kind: one
  /// repetition of ChargeRepeated. Inline: this is the hottest function in
  /// the engine (one call per row per operator, tens of millions per bench
  /// run).
  void Charge(CostKind kind, uint64_t units_count) {
    ChargeRepeated(kind, units_count, 1);
  }

  /// Charge `n` repetitions of an identical charge (`units_each` units of
  /// `kind`) in one step. Bit-identical to calling Charge(kind, units_each)
  /// n times: every repetition quantizes to the same integer-picosecond
  /// value, so their sum is exactly n times that quantum. This is how the
  /// batch path amortizes per-row accounting (DESIGN.md §10): a batch of
  /// uniform rows pays one multiply instead of n float-to-pico conversions.
  void ChargeRepeated(CostKind kind, uint64_t units_each, uint64_t n) {
    // kFlashLoad and kTransfer are charged via the dedicated
    // Charge{FlashRead,Transfer} entry points.
    if (n == 0 || kind == CostKind::kFlashLoad ||
        kind == CostKind::kTransfer || kind == CostKind::kNumKinds) {
      return;
    }
    PayQuantized(kind, units_each * n,
                 static_cast<SimPicos>(n) * Price(kind, units_each));
  }

  /// Unit counts below this are priced once per context and then looked up
  /// (see Price).
  static constexpr uint64_t kPricedUnits = 256;

  /// The quantized picoseconds of one charge of `units` units of CPU kind
  /// `kind`: exactly what Charge(kind, units) adds. A small count is priced
  /// on first use and kept in this context's table, so the float math and
  /// the rounding run once per (kind, units) instead of once per charge.
  /// Zero marks an unpriced slot; a count whose price is zero is simply
  /// priced again.
  SimPicos Price(CostKind kind, uint64_t units) {
    if (units >= kPricedUnits) return ComputePrice(kind, units);
    SimPicos& price = prices_[static_cast<int>(kind)][units];
    if (price == 0) price = ComputePrice(kind, units);
    return price;
  }

  /// Pay `units` units of `kind` whose one-charge prices (Price values)
  /// sum to `ps`: bit-identical to charging them one by one. Tallies that
  /// collect charges over many rows pay through here.
  void PayQuantized(CostKind kind, uint64_t units, SimPicos ps) {
    counters_.AddQuantized(kind, units, ps);
    clock_.AdvancePicos(ps);
  }

  /// Charge `n` identical bulk copies of `bytes_each` (see ChargeRepeated).
  void ChargeCopyRepeated(uint64_t bytes_each, uint64_t n) {
    ChargeRepeated(CostKind::kCopy, bytes_each, n);
  }

  /// Charge a sequential flash read of `bytes`, routed through this
  /// context's I/O path (internal only / +PCIe / +PCIe +FS overhead).
  void ChargeFlashRead(uint64_t bytes);

  /// Charge a random single-page flash access (index/data block point read).
  void ChargeFlashRandomRead(uint64_t bytes);

  /// Charge a device->host transfer of `bytes` over the interconnect (used
  /// for NDP result shipping; host-side stacks already pay PCIe on reads).
  void ChargeTransfer(uint64_t bytes);

  /// Charge an explicit bulk copy.
  void ChargeCopy(uint64_t bytes) { Charge(CostKind::kCopy, bytes); }

  /// Charge a fixed latency (e.g. NDP command setup).
  void ChargeLatency(SimNanos ns) { clock_.Advance(ns); }

  /// Scale factor applied to kCopy charges. The on-device pointer-cache
  /// format (paper Sect. 4.2) stores addresses instead of full records in
  /// intermediate caches; the device executor models it by discounting
  /// intermediate copies.
  void SetCopyFactor(double f) {
    copy_factor_ = f;
    prices_[static_cast<int>(CostKind::kCopy)].fill(0);
  }

  void ResetCosts() {
    counters_.Reset();
    clock_.Reset();
  }

 private:
  /// Per-kind cycle factors of CostCycleTable{}, indexed by CostKind for
  /// the inline Charge. kFlashLoad/kCopy/kTransfer never read their slot
  /// (special-cased).
  static constexpr std::array<double, kNumCostKinds> kCyclesPerUnit = [] {
    constexpr CostCycleTable c{};
    return std::array<double, kNumCostKinds>{c.memcmp_per_byte,
                                             c.compare_internal_key,
                                             c.seek_index_block,
                                             c.selection_per_record,
                                             c.seek_data_block,
                                             0.0,  // kFlashLoad
                                             1.0,  // kOther: raw cycles
                                             c.hash_build,
                                             c.hash_probe,
                                             0.0,  // kCopy
                                             c.record_eval,
                                             c.agg_update,
                                             0.0};  // kTransfer
  }();

  const CpuModel& cpu() const {
    return actor_ == Actor::kHost ? hw_->host_cpu : hw_->device_cpu;
  }
  /// The price of one charge, computed from the models: the cycles of
  /// `units` units on this actor's CPU, or a copy of `units` bytes scaled
  /// by the copy factor, quantized to picoseconds.
  SimPicos ComputePrice(CostKind kind, uint64_t units) const {
    if (kind == CostKind::kCopy) {
      return NanosToPicos(cpu().TimeForCopy(units) * copy_factor_);
    }
    return NanosToPicos(cpu().TimeForCycles(
        kCyclesPerUnit[static_cast<int>(kind)] * units));
  }
  /// Interconnect + stack overhead for moving flash data to this actor.
  SimNanos PathOverhead(uint64_t bytes, bool random) const;

  const HwParams* hw_;
  Actor actor_;
  IoPath path_;
  double copy_factor_ = 1.0;
  SimClock clock_;
  CostCounters counters_;
  /// Price(kind, units) for units < kPricedUnits; 0 = not yet priced. Per
  /// context, so no thread shares it.
  std::array<std::array<SimPicos, kPricedUnits>, kNumCostKinds> prices_{};
};

/// Charges of one CPU kind collected over many rows and paid at once: Add
/// prices each charge exactly as Charge would, Pay settles their sum on the
/// context, bit-identical to charging them one by one. Collects nothing
/// without a context. A charge moves the clock only when paid, so the
/// collector pays before anything can read the clock: before it returns or
/// pulls a child (DESIGN.md §10).
class ChargeTally {
 public:
  ChargeTally(AccessContext* ctx, CostKind kind) : ctx_(ctx), kind_(kind) {}
  ChargeTally(const ChargeTally&) = delete;
  ChargeTally& operator=(const ChargeTally&) = delete;

  void Add(uint64_t units) {
    if (ctx_ == nullptr) return;
    units_ += units;
    ps_ += ctx_->Price(kind_, units);
  }
  void Pay() {
    if (ctx_ == nullptr) return;
    ctx_->PayQuantized(kind_, units_, ps_);
    units_ = 0;
    ps_ = 0;
  }

 private:
  AccessContext* ctx_;
  CostKind kind_;
  uint64_t units_ = 0;
  SimPicos ps_ = 0;
};

}  // namespace hybridndp::sim
