// Executes a planned query under any strategy: host-only over the BLK or
// NATIVE stack, full on-device NDP, or a hybrid split Hk with cooperative
// host/device execution (the paper's execution model, Sect. 4). All
// strategies produce identical result sets; they differ in the simulated
// timeline.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "hybrid/coop.h"
#include "hybrid/plan.h"
#include "hybrid/planner.h"
#include "lsm/block_cache.h"
#include "ndp/device_executor.h"
#include "obs/trace.h"
#include "rel/table.h"

namespace hybridndp::hybrid {

/// Outcome of one query execution.
struct RunResult {
  ExecChoice choice;
  SimNanos total_ns = 0;
  rel::Schema schema;
  std::vector<std::string> rows;

  StageTimes host_stages;               ///< Table 4 (left)
  sim::CostCounters host_counters;
  sim::CostCounters device_counters;    ///< Table 4 (right)
  SimNanos device_busy_ns = 0;
  SimNanos device_stall_ns = 0;
  uint64_t device_rows = 0;             ///< intermediate results shipped
  uint64_t transferred_bytes = 0;
  int num_batches = 0;
  bool pointer_cache = false;

  /// Graceful degradation (Taurus-style): the device-assisted attempt died
  /// on a fault-class error and the query was re-executed host-only. The
  /// simulated time burned by the failed attempt is carried as the
  /// fallback run's ndp_setup stage (it precedes all host processing).
  bool fell_back = false;
  SimNanos fault_wasted_ns = 0;  ///< host clock at the aborted attempt's death
  Status fault_status;           ///< the failure that triggered the fallback

  /// Trace track ids for this run (-1 when tracing was disabled). Track ids
  /// are recorder bookkeeping, not simulated metrics: under a parallel
  /// RunAll the creation order — and hence the ids — depends on thread
  /// interleaving, so identity checks must ignore these fields.
  int trace_host_track = -1;
  int trace_device_track = -1;

  uint64_t result_rows() const { return rows.size(); }
  double total_ms() const { return total_ns / kNanosPerMilli; }
};

/// Strategy-parameterized query executor.
class HybridExecutor {
 public:
  HybridExecutor(const rel::Catalog* catalog, const lsm::VirtualStorage* storage,
                 const sim::HwParams* hw, PlannerConfig config = {})
      : catalog_(catalog), storage_(storage), hw_(hw), config_(config) {}

  /// Run `plan` under `choice` on the calling thread. `host_cache`
  /// (optional) is the host block cache; pass a fresh cache per run for
  /// cold-start numbers. `rec` (optional) records the run's simulated
  /// timeline and metrics; a null recorder is the zero-overhead path — the
  /// simulation statements are identical either way, recording only reads
  /// the simulated clocks.
  Result<RunResult> Run(const Plan& plan, const ExecChoice& choice,
                        lsm::BlockCache* host_cache = nullptr,
                        obs::TraceRecorder* rec = nullptr) const;

  /// Factory for the per-run host block cache used by RunAll. Each run gets
  /// its own fresh cache so every strategy sees cold-start semantics and no
  /// run's hit pattern depends on its neighbours. May return nullptr (no
  /// cache); a null factory means "run without a cache".
  using CacheFactory = std::function<std::unique_ptr<lsm::BlockCache>()>;

  /// Run `plan` under every choice in `choices`: in choice order on the
  /// calling thread when pool is null or has one thread, else from one
  /// claim list. The pool is only a thread budget: n = min(2 x pool size,
  /// choices.size()) claimers work on the list, the calling thread and
  /// n - 1 threads this call starts and joins before it returns. Each
  /// claims the next choice, heaviest expected first (full NDP, then Hk
  /// from the deepest split down to H0, then BLK and NATIVE), and runs it
  /// whole with Run.
  /// The runs are independent simulations — each gets its own
  /// AccessContext, cache and operator tree, and they share the read-only
  /// `plan` — so the simulated metrics are bit-identical to running the
  /// choices one by one with Run; only wall-clock time changes. Results are
  /// returned in choice order. `rec`, when non-null, gets one host track
  /// (plus device tracks for device-assisted strategies) per run;
  /// TraceRecorder is thread-safe, so runs may record concurrently. Track
  /// ids depend on scheduling order — span contents and metrics do not.
  std::vector<Result<RunResult>> RunAll(
      const Plan& plan, const std::vector<ExecChoice>& choices,
      common::ThreadPool* pool, const CacheFactory& make_cache = {},
      obs::TraceRecorder* rec = nullptr) const;

  /// Convenience: every executable choice for a plan, in the order
  /// BLK, NATIVE, H0..H(n-2), NDP.
  static std::vector<ExecChoice> AllChoices(const Plan& plan);

 private:
  /// Host-only execution. When `fault_status` is non-OK this is the
  /// degradation path after a failed device-assisted attempt:
  /// `fallback_wasted_ns` of simulated time (the aborted attempt's host
  /// timeline) is charged up front and accounted as the ndp_setup stage, so
  /// the Table-4 categories still tile [0, total_ns].
  Result<RunResult> RunHostOnly(const Plan& plan, const ExecChoice& choice,
                                lsm::BlockCache* cache, obs::TraceRecorder* rec,
                                SimNanos fallback_wasted_ns = 0,
                                Status fault_status = Status::OK()) const;
  /// Device-assisted execution (Hk, NDP): build the NDP command, run it on
  /// the device, then the cooperative host PQEP over the device output. On
  /// a fault-class failure (injected fault past its retry budget) returns
  /// the error and reports the simulated host time the aborted attempt
  /// burned through `fault_wasted_ns`; Run then falls back to host-only.
  Result<RunResult> RunDeviceAssisted(const Plan& plan,
                                      const ExecChoice& choice,
                                      lsm::BlockCache* cache,
                                      obs::TraceRecorder* rec,
                                      SimNanos* fault_wasted_ns) const;

  /// Build the NDP command for tables [0..k] (+ joins, or scans_only).
  nkv::NdpCommand BuildNdpCommand(const Plan& plan, int split_joins,
                                  bool full_ndp, int cache_format = 0) const;

  /// Append host-side joins for plan positions [from, n) on top of `acc`,
  /// then the query root (aggregation or projection).
  exec::OperatorPtr BuildHostSuffix(const Plan& plan, size_t from,
                                    exec::OperatorPtr acc,
                                    const lsm::ReadOptions& opts) const;

  const rel::Catalog* catalog_;
  const lsm::VirtualStorage* storage_;
  const sim::HwParams* hw_;
  PlannerConfig config_;
};

}  // namespace hybridndp::hybrid
