// Deterministic fault injection for the simulated storage stack.
//
// Production NDP deployments must survive device-side failures (Taurus
// degrades to plain storage reads when pushdown fails; Conduit tolerates
// per-resource compute faults — see PAPERS.md). This module provides the
// error model: named injection sites in the storage/device/coop layers,
// armed via the HNDP_FAULTS environment variable with seeded, deterministic
// policies. When no faults are armed the fast path is a single relaxed
// atomic load and the simulation is bit-identical to a build without the
// layer.
//
// Spec grammar (semicolon-separated clauses):
//
//   HNDP_FAULTS = clause (';' clause)*
//   clause      = site ':' item (',' item)*
//   site        = storage.read | storage.write | sst.read
//               | device.exec | coop.slot | retry
//   item        = 'nth=' N        -- fire on the N-th operation (1-based)
//               | 'prob=' P       -- fire each op with probability P (seeded)
//               | 'always'        -- fire on every operation
//               | 'stall=' DUR    -- latency spike instead of an error
//               | 'seed=' S       -- per-site PRNG seed (prob trigger)
//   retry items = 'budget=' K     -- max retry attempts per error (default 3)
//               | 'backoff=' DUR  -- first retry backoff, doubles (def 20us)
//   N, S, K     = digits only;  P = finite number in [0, 1]
//   DUR         = finite number >= 0, optional ns|us|ms suffix (default ns)
//
// One check may delay the simulated clock by at most one simulated hour
// (FaultConfig::kMaxCheckDelayNs): a spec whose stall, or whose worst-case
// retry wait backoff x (2^budget - 1), exceeds it is rejected, so no spec
// can overflow the picosecond clock.
//
// Example: HNDP_FAULTS='device.exec:nth=2;sst.read:prob=0.3,seed=7'
//
// Semantics of one FaultCheck(site, ctx):
//  * policy does not fire        -> OK, no simulated-time effect
//  * stall policy fires          -> charge stall_ns latency to ctx, OK
//  * error policy fires          -> bounded retry loop: each attempt charges
//    an exponentially growing backoff to ctx and re-evaluates the policy;
//    recovery returns OK (transient fault), budget exhaustion returns
//    Status::IOError (permanent fault, surfaced to the caller).
//
// All decisions derive from per-site operation counters and fixed seeds, so
// a given HNDP_FAULTS spec replays identically run over run.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/status.h"
#include "sim/cost.h"

namespace hybridndp::obs {
class MetricsRegistry;
}  // namespace hybridndp::obs

namespace hybridndp::sim {

/// Named injection sites, one per fallible layer of the storage stack.
enum class FaultSite : uint8_t {
  kStorageRead = 0,  ///< lsm::VirtualStorage::Read, device-side accesses only
  kStorageWrite,     ///< lsm::VirtualStorage::AddFile (SST flush)
  kSstRead,          ///< SstReader block read, device-side accesses only
  kDeviceExec,       ///< ndp::DeviceExecutor command execution
  kCoopSlot,         ///< shared result-buffer slot handoff (hybrid/coop)
  kNumSites,
};

constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

/// Spec name of a site ("storage.read", ...).
const char* FaultSiteName(FaultSite site);

/// Inverse of FaultSiteName. Returns false for unknown names.
bool ParseFaultSite(std::string_view name, FaultSite* out);

/// When and how one site misbehaves.
struct FaultPolicy {
  enum class Trigger : uint8_t {
    kNever = 0,  ///< site disarmed
    kNth,        ///< fire exactly on operation number `nth` (1-based)
    kProb,       ///< fire each operation with probability `prob`
    kAlways,     ///< fire on every operation
  };

  Trigger trigger = Trigger::kNever;
  uint64_t nth = 0;
  double prob = 0.0;
  uint64_t seed = 0;
  /// > 0: the fault is a latency spike of this many simulated nanoseconds
  /// instead of an error (the operation still succeeds).
  SimNanos stall_ns = 0;

  bool armed() const { return trigger != Trigger::kNever; }
};

/// Full injector configuration: one policy per site plus the retry knobs.
struct FaultConfig {
  std::array<FaultPolicy, kNumFaultSites> sites{};
  /// Max retry attempts after an injected error before giving up.
  int retry_budget = 3;
  /// Simulated backoff charged before the first retry; doubles per attempt.
  SimNanos backoff_ns = 20'000;

  /// Bound on the simulated delay of one check: a stall, or the whole retry
  /// loop's backoff_ns x (2^retry_budget - 1). Parse rejects specs above it.
  static constexpr SimNanos kMaxCheckDelayNs = 3600e9;  // one hour

  bool any_armed() const {
    for (const auto& p : sites) {
      if (p.armed()) return true;
    }
    return false;
  }

  /// Parse the HNDP_FAULTS grammar documented at the top of this header.
  static Result<FaultConfig> Parse(std::string_view spec);
};

/// Process-wide fault injector. Disarmed by default; armed by Configure,
/// which the benches call with the parsed HNDP_FAULTS spec and tests call
/// through ScopedFaultInjection. All counters are atomics
/// so concurrent strategy runs may evaluate sites in any order; decisions
/// depend only on the per-site operation number each evaluation draws.
class FaultInjector {
 public:
  /// Per-site tallies, exported as hndp.fault.* / hndp.retry.* metrics.
  struct SiteStats {
    uint64_t ops = 0;        ///< FaultCheck evaluations (incl. retries)
    uint64_t injected = 0;   ///< error faults fired
    uint64_t stalls = 0;     ///< stall faults fired
    uint64_t retries = 0;    ///< retry attempts made
    uint64_t exhausted = 0;  ///< retry budgets exhausted (error surfaced)
  };

  static FaultInjector& Global();

  /// Fast path: false means no site anywhere is armed and FaultCheck is a
  /// no-op. Relaxed atomic; safe to call from any thread.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Install `cfg` and reset all counters; `Configure(FaultConfig{})`
  /// disarms every site. Must not race with execution.
  void Configure(const FaultConfig& cfg);

  /// Snapshot of the installed configuration (copied under the config
  /// mutex; a reference would escape the lock).
  FaultConfig config() const;
  SiteStats Stats(FaultSite site) const;
  void ResetCounters();

  /// One injection decision, including the retry loop. See header comment.
  /// `ctx` may be null (no simulated-time effects are modelled then).
  Status Check(FaultSite site, AccessContext* ctx);

  /// Export per-armed-site gauges into `reg`:
  ///   hndp.fault.ops.<site>, hndp.fault.injected.<site>,
  ///   hndp.fault.stalls.<site>, hndp.retry.attempts.<site>,
  ///   hndp.retry.exhausted.<site>
  /// No-op when disarmed, so zero-fault metric exports are unchanged.
  void ExportMetrics(obs::MetricsRegistry* reg) const;

 private:
  struct AtomicSiteStats {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> injected{0};
    std::atomic<uint64_t> stalls{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> exhausted{0};
  };

  /// Draw the next operation number for `site` and decide whether the
  /// policy fires on it.
  bool Fires(const FaultPolicy& policy, FaultSite site);

  static std::atomic<bool> enabled_;

  /// Guards the installed configuration. Check() copies the (small)
  /// per-site policy + retry knobs once per armed evaluation, so the
  /// retry loop itself runs lock-free; stats_ are plain atomics.
  mutable common::Mutex mu_;
  FaultConfig config_ GUARDED_BY(mu_);
  std::array<AtomicSiteStats, kNumFaultSites> stats_;
};

/// Convenience wrapper over FaultInjector::Global().Check — the call every
/// injection site makes. Inlined single-load no-op while disarmed.
inline Status FaultCheck(FaultSite site, AccessContext* ctx) {
  if (!FaultInjector::Enabled()) return Status::OK();
  return FaultInjector::Global().Check(site, ctx);
}

/// RAII: install a config on the global injector for one scope (tests),
/// re-installing the previous configuration on exit.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& cfg);
  /// Parse + install; aborts on a malformed spec (test-only convenience).
  explicit ScopedFaultInjection(std::string_view spec);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultConfig prev_config_;
};

}  // namespace hybridndp::sim
