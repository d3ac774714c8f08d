// On-device NDP execution (paper Sect. 4.2, Fig. 8): core 1 runs the
// offloaded PQEP as a volcano pipeline over the shipped snapshots, staging
// results through the multi-slot shared buffer. The executor runs the
// pipeline for real (correct tuples) while charging every action to a
// device AccessContext; batch boundaries at shared-buffer-slot granularity
// carry device-clock timestamps that the cooperative layer merges with the
// host timeline.

#pragma once

#include <memory>
#include <vector>

#include "exec/join_table.h"
#include "exec/operator.h"
#include "lsm/block_cache.h"
#include "nkv/ndp_command.h"
#include "obs/metrics.h"
#include "sim/cost.h"

namespace hybridndp::ndp {

/// One shared-buffer slot's worth of output.
struct DeviceBatch {
  size_t stream = 0;      ///< output stream (scans_only: one per table)
  uint64_t rows = 0;
  uint64_t bytes = 0;
  SimNanos work_ns = 0;  ///< device work to produce this batch
};

/// Result of one NDP invocation.
struct DeviceRunResult {
  /// Schema per output stream (one stream for pipelined plans; one per
  /// table for scans_only commands).
  std::vector<rel::Schema> stream_schemas;
  /// Rows per output stream, flat and fixed-size in the stream's schema.
  std::vector<exec::RowStore> stream_rows;
  std::vector<DeviceBatch> batches;  ///< in device production order
  sim::CostCounters counters;        ///< Table 4 breakdown
  SimNanos total_work_ns = 0;
  bool pointer_cache = false;        ///< cache-format choice (Sect. 4.2)
  /// Non-ok when the device died mid-run on a fault-class error (injected
  /// I/O fault past its retry budget). The result then carries whatever
  /// batches were produced before the failure; the cooperative layer
  /// poisons the shared buffer at fail_time_ns so blocked consumers wake.
  Status device_status;
  SimNanos fail_time_ns = 0;  ///< device clock at the failure

  const rel::Schema& schema() const { return stream_schemas.at(0); }
  const exec::RowStore& rows() const { return stream_rows.at(0); }
  uint64_t total_rows() const {
    uint64_t n = 0;
    for (const auto& s : stream_rows) n += s.size();
    return n;
  }
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const auto& b : batches) n += b.bytes;
    return n;
  }
};

/// Executes NDP commands against the flash array (core 1 of the paper's
/// dual-core COSMOS+ model; core 0's relay work is modelled by the
/// cooperative layer's per-fetch latency).
class DeviceExecutor {
 public:
  DeviceExecutor(const lsm::VirtualStorage* storage, const sim::HwParams* hw)
      : storage_(storage), hw_(hw) {}

  /// Validate resources, build the pipeline, run it to completion.
  /// `metrics`, when non-null, receives device-side observability tallies
  /// (invocations, result rows/bytes, batch-size histograms, Table-4
  /// counters). Recording is passive — it never touches a simulated clock.
  Result<DeviceRunResult> Execute(const nkv::NdpCommand& cmd,
                                  obs::MetricsRegistry* metrics = nullptr)
      const;

  /// Admission check: the buffers pass nkv::CheckBufferConfig, the
  /// reservation (nkv::ReservedBufferBytes) fits the NDP budget and the
  /// command is well formed.
  Status CheckResources(const nkv::NdpCommand& cmd) const;

 private:
  const lsm::VirtualStorage* storage_;
  const sim::HwParams* hw_;
};

}  // namespace hybridndp::ndp
