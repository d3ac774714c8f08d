// The JOB store every workload runs on, built with an explicit,
// paper-proportional configuration, plus the pieces both JOB workloads
// share: the host-only reference digests of the correctness gate, the
// seeded query stream, and the tally of simulated per-run results.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "job/queries.h"
#include "lsm/db.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp::perfbench {

/// Hardware model, store and query engine over the JOB data. Members are
/// declared in dependency order, so each is destroyed before what it uses.
struct JobStore {
  sim::HwParams hw;
  hybrid::PlannerConfig planner_config;
  std::unique_ptr<lsm::VirtualStorage> storage;
  std::unique_ptr<lsm::DB> db;
  std::unique_ptr<rel::Catalog> catalog;
  std::unique_ptr<hybrid::Planner> planner;
  std::unique_ptr<hybrid::HybridExecutor> executor;

  double build_s = 0;         ///< job::BuildJobDatabase
  double open_readers_s = 0;  ///< DB::OpenAllReaders

  JobStore() = default;
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  /// Stored bytes (SSTs of every table and index) over user row bytes.
  double SpaceAmp() const;
};

/// Builds the JOB store at kJobScale / kJobDataSeed and opens every SST
/// reader. `log` (optional) gets "job.build" and "lsm.open_readers" spans.
/// Exits the process on failure: without data there is nothing to measure.
std::unique_ptr<JobStore> BuildJobStore(SpanLog* log);

/// Order-independent digest of a result set: row count and the sum of the
/// rows' 64-bit hashes.
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const ResultDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};
ResultDigest DigestRows(const std::vector<std::string>& rows);

/// Host-only (NATIVE stack, no cache) digest of every JOB query, indexed
/// like job::AllJobQueries(). Exits on failure.
std::vector<ResultDigest> HostOnlyReference(const JobStore& store,
                                            bool corrupt_first);

/// Endless stream of JOB query indexes: seeded random permutations of all
/// 113 queries, one after another.
class QueryStream {
 public:
  QueryStream(uint64_t seed, size_t num_queries);
  size_t Next();

 private:
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

/// Strategy classes for the planner-pick and run-time breakdowns.
enum class RunClass { kHost, kH0, kHk, kNdp };
RunClass ClassOf(const hybrid::ExecChoice& choice);

/// Sums of the simulated outcome of a fixed sequence of runs. Every field
/// is a deterministic function of that sequence.
struct SimTally {
  std::vector<double> total_ms;  ///< simulated latency per run
  hybrid::StageTimes stages;
  double device_busy_ns = 0;
  double device_stall_ns = 0;
  uint64_t rows_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t invocations = 0;  ///< runs with device work (NDP commands)
  uint64_t batches = 0;
  uint64_t fallbacks = 0;
  sim::CostCounters host;
  sim::CostCounters device;

  void Add(const hybrid::RunResult& r);
  /// Appends `o`; merge in a fixed order to keep sums bit-identical.
  void Merge(const SimTally& o);
  /// sim_mean_ms / sim_p99_ms and the coop.*, ndp.*, sim.* values.
  void Export(PhaseResult* out) const;
};

/// Cache hit ratio from the SST read statistics gathered since `before`
/// (DB::ExportMetrics snapshots), plus the lsm.sst.* deltas.
struct SstStats {
  uint64_t block_reads = 0;
  uint64_t block_read_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t index_loads = 0;
  static SstStats Of(const lsm::DB& db);
};
void ExportSstDelta(const SstStats& before, const SstStats& after,
                    PhaseResult* out);

}  // namespace hybridndp::perfbench
