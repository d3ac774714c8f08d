// Cooperative execution plumbing (paper Sect. 4, Figs. 7/17): merges the
// device production timeline with the host consumption timeline through the
// multi-slot shared result buffer. The device runs ahead of the host by at
// most `shared_slots` batches (then core 1 halts until a slot frees); the
// host stalls whenever the batch it needs has not been produced/transferred
// yet. Waits are accounted exactly as the paper's Table 4 stages.

#pragma once

#include <vector>

#include "exec/operator.h"
#include "ndp/device_executor.h"
#include "obs/trace.h"
#include "sim/cost.h"

namespace hybridndp::hybrid {

/// Host-side stage durations (paper Table 4, left).
struct StageTimes {
  SimNanos ndp_setup = 0;        ///< command preparation + invocation
  SimNanos initial_wait = 0;     ///< wait for the first intermediate result
  SimNanos later_waits = 0;      ///< waits for 2nd, 3rd, ... result sets
  SimNanos result_transfer = 0;  ///< PCIe shipping of result batches
  SimNanos processing = 0;       ///< host PQEP execution (set by caller)

  SimNanos total() const {
    return ndp_setup + initial_wait + later_waits + result_transfer +
           processing;
  }
  std::string ToString() const;
};

/// Shared-buffer schedule for one device stream: computes, lazily and in
/// fetch order, when each batch becomes available to the host, honoring the
/// slot back-pressure on the device side. Single-threaded: the executor
/// builds, poisons and drains each schedule on the run's own thread.
class BatchSchedule {
 public:
  /// `batches`: device work duration + bytes per batch, in production order.
  /// `eager`: fetch without slot back-pressure (H0 leaf shipping — the host
  /// drains every selection stream into host memory as it is produced).
  BatchSchedule(std::vector<ndp::DeviceBatch> batches, int shared_slots,
                const sim::HwParams* hw, SimNanos start_time, bool eager);

  /// Route span recording for this schedule's timeline: host wait/transfer
  /// intervals onto `host_track`, device batch-production and slot-stall
  /// intervals onto `device_track`. Call before the first Fetch; a null
  /// `rec` (the default state) is the zero-overhead path — Fetch then runs
  /// the exact same simulation statements and only skips recording.
  void AttachTrace(obs::TraceRecorder* rec, int host_track, int device_track);

  /// Host requests batch `i` at host-clock `host_now`; returns the time the
  /// batch data is fully in host memory. Records wait/transfer attribution
  /// into `stages` (initial vs later waits). On a poisoned schedule (see
  /// Poison) a fetch of a dead batch wakes at the death notification and
  /// reports the failure through `error` (when non-null) instead of
  /// blocking forever.
  SimNanos Fetch(size_t i, SimNanos host_now, StageTimes* stages,
                 Status* error = nullptr);

  /// Mark the producer dead as of device/notification time `when`: batches
  /// with index >= `after` (default: everything past the last delivered
  /// batch) will never arrive. A consumer fetching one is woken at
  /// max(host_now, when) and handed `status` — the poison-the-buffer
  /// semantics that replace a consumer deadlock.
  void Poison(SimNanos when, Status status,
              size_t after = static_cast<size_t>(-1));
  bool poisoned() const { return poisoned_; }
  const Status& poison_status() const { return poison_status_; }

  size_t num_batches() const { return batches_.size(); }
  uint64_t BatchRowCount(size_t i) const { return batches_[i].rows; }
  /// Device clock when the last batch finished (call after all fetches).
  SimNanos device_finish() const {
    return done_.empty() ? start_ : done_.back();
  }
  /// Total time core 1 spent halted waiting for a free slot.
  SimNanos device_stall() const { return device_stall_; }

 private:
  /// Ensure done_[j] is computed for all j <= i.
  void ComputeDoneThrough(size_t i);

  std::vector<ndp::DeviceBatch> batches_;
  int shared_slots_;
  const sim::HwParams* hw_;
  SimNanos start_;
  bool eager_;

  /// Device completion time per batch.
  std::vector<SimNanos> done_;
  /// Host fetch completion per batch.
  std::vector<SimNanos> fetched_;
  size_t computed_ = 0;
  SimNanos device_stall_ = 0;
  bool first_fetch_done_ = false;
  bool poisoned_ = false;
  SimNanos poison_time_ = 0;
  /// First batch index that will never arrive.
  size_t poison_after_ = 0;
  Status poison_status_;
  /// Null = recording disabled.
  obs::TraceRecorder* rec_ = nullptr;
  int host_track_ = -1;
  int device_track_ = -1;
};

/// Volcano source over device-produced rows that stalls the host clock
/// until each batch has arrived (paper Fig. 7.B/D). Rewind replays from
/// host memory without new waits (data already fetched).
class StallingSourceOp final : public exec::Operator {
 public:
  StallingSourceOp(rel::Schema schema, const std::vector<std::string>* rows,
                   BatchSchedule* schedule, sim::AccessContext* host_ctx,
                   StageTimes* stages);

  const rel::Schema& output_schema() const override { return schema_; }
  Status Open() override;
  /// A returned RowBatch never spans device batches, so the stall/fetch
  /// point always falls between host batches, whatever `max_rows` is
  /// (bit-identical wait attribution).
  exec::RowBatch* NextBatch(size_t max_rows) override;
  Status Rewind() override;
  std::string Describe() const override { return "StallingSource"; }

 private:
  /// Advance to the next device batch, stalling the host clock until it
  /// arrives. Returns false at end-of-stream — including the poisoned case,
  /// where the blocked consumer is woken at the producer's death time and
  /// the failure is parked in status().
  bool FetchNextDeviceBatch();

  rel::Schema schema_;
  const std::vector<std::string>* rows_;
  BatchSchedule* schedule_;
  sim::AccessContext* host_ctx_;
  StageTimes* stages_;
  size_t pos_ = 0;
  size_t next_batch_ = 0;  ///< next batch to fetch
  uint64_t batch_rows_left_ = 0;
  exec::RowBatch batch_;
};

}  // namespace hybridndp::hybrid
