#include "hybrid/coop.h"

#include <sstream>

#include "sim/fault.h"

namespace hybridndp::hybrid {

std::string StageTimes::ToString() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  const SimNanos t = total();
  auto pct = [&](SimNanos v) { return t > 0 ? v / t * 100.0 : 0.0; };
  os << "  NDP setup (command):        " << ndp_setup / kNanosPerMilli
     << " ms (" << pct(ndp_setup) << "%)\n"
     << "  Wait (initial device exec): " << initial_wait / kNanosPerMilli
     << " ms (" << pct(initial_wait) << "%)\n"
     << "  Wait (2nd, 3rd, ... exec):  " << later_waits / kNanosPerMilli
     << " ms (" << pct(later_waits) << "%)\n"
     << "  Result transfer:            " << result_transfer / kNanosPerMilli
     << " ms (" << pct(result_transfer) << "%)\n"
     << "  Processing:                 " << processing / kNanosPerMilli
     << " ms (" << pct(processing) << "%)\n";
  return os.str();
}

BatchSchedule::BatchSchedule(std::vector<ndp::DeviceBatch> batches,
                             int shared_slots, const sim::HwParams* hw,
                             SimNanos start_time, bool eager)
    : batches_(std::move(batches)),
      shared_slots_(shared_slots < 1 ? 1 : shared_slots),
      hw_(hw),
      start_(start_time),
      eager_(eager) {
  done_.assign(batches_.size(), -1.0);
  fetched_.assign(batches_.size(), -1.0);
}

void BatchSchedule::AttachTrace(obs::TraceRecorder* rec, int host_track,
                                int device_track) {
  rec_ = rec;
  host_track_ = host_track;
  device_track_ = device_track;
}

void BatchSchedule::ComputeDoneThrough(size_t i) {
  while (computed_ <= i && computed_ < batches_.size()) {
    const size_t j = computed_;
    const SimNanos prev = j == 0 ? start_ : done_[j - 1];
    SimNanos begin = prev;
    if (!eager_ && j >= static_cast<size_t>(shared_slots_)) {
      // Core 1 halts until the host frees a slot (paper Sect. 4.2).
      const SimNanos slot_free = fetched_[j - shared_slots_];
      if (slot_free > begin) {
        device_stall_ += slot_free - begin;
        begin = slot_free;
        if (rec_ != nullptr) {
          rec_->Span(device_track_, "slot stall", "stall", prev, begin);
        }
      }
    }
    done_[j] = begin + batches_[j].work_ns;
    if (rec_ != nullptr) {
      rec_->Span(device_track_, "batch " + std::to_string(j), "produce",
                 begin, done_[j],
                 {obs::TraceArg::Num("rows", batches_[j].rows),
                  obs::TraceArg::Num("bytes", batches_[j].bytes)});
    }
    ++computed_;
  }
}

void BatchSchedule::Poison(SimNanos when, Status status, size_t after) {
  poisoned_ = true;
  poison_time_ = when;
  poison_status_ = std::move(status);
  poison_after_ = after < batches_.size() ? after : batches_.size();
}

SimNanos BatchSchedule::Fetch(size_t i, SimNanos host_now, StageTimes* stages,
                              Status* error) {
  if (error != nullptr) *error = Status::OK();
  if (poisoned_ && i >= poison_after_) {
    // The batch will never arrive: the producer died at poison_time_. Wake
    // the blocked consumer at the death notification (never earlier than
    // its own clock) and surface the failure instead of stalling forever.
    const SimNanos wake = poison_time_ > host_now ? poison_time_ : host_now;
    if (wake > host_now) {
      if (stages != nullptr) {
        if (!first_fetch_done_) {
          stages->initial_wait += wake - host_now;
        } else {
          stages->later_waits += wake - host_now;
        }
      }
      if (rec_ != nullptr) {
        rec_->Span(host_track_, "wait (poisoned)", "wait", host_now, wake,
                   {obs::TraceArg::Num("batch", static_cast<uint64_t>(i))});
      }
    }
    first_fetch_done_ = true;
    if (error != nullptr) *error = poison_status_;
    return wake;
  }
  if (i >= batches_.size()) return host_now;
  if (fetched_[i] >= 0) {
    // Replay from host memory: no new wait/transfer, but the data cannot be
    // observed before it first arrived. The host clock is monotone and was
    // advanced to fetched_[i] when the batch first arrived, so host_now >=
    // fetched_[i] always holds for well-formed consumers; the clamp makes
    // the invariant unconditional for a rewound consumer with a bogus clock.
    return host_now >= fetched_[i] ? host_now : fetched_[i];
  }
  ComputeDoneThrough(i);

  // Fault site: the shared-buffer slot handoff (core 0's relay of a filled
  // slot to the host). A stall policy delays this batch's availability; an
  // exhausted error policy kills the handoff — poison the remaining stream
  // and route this fetch through the poison wake-up above.
  SimNanos fault_delay = 0;
  if (sim::FaultInjector::Enabled()) {
    sim::AccessContext fault_ctx(hw_, sim::Actor::kHost,
                                 sim::IoPath::kInternal);
    Status fs = sim::FaultCheck(sim::FaultSite::kCoopSlot, &fault_ctx);
    fault_delay = fault_ctx.now();  // injected stall + retry backoff time
    if (!fs.ok()) {
      Poison(host_now + fault_delay, std::move(fs), i);
      return Fetch(i, host_now, stages, error);
    }
  }

  const SimNanos wait =
      (done_[i] > host_now ? done_[i] - host_now : 0) + fault_delay;
  if (stages != nullptr) {
    if (!first_fetch_done_) {
      stages->initial_wait += wait;
    } else {
      stages->later_waits += wait;
    }
  }
  if (rec_ != nullptr && wait > 0) {
    rec_->Span(host_track_,
               first_fetch_done_ ? "wait (later)" : "wait (initial)", "wait",
               host_now, host_now + wait,
               {obs::TraceArg::Num("batch", static_cast<uint64_t>(i))});
  }
  first_fetch_done_ = true;

  const SimNanos transfer = hw_->pcie.TransferTime(batches_[i].bytes);
  if (stages != nullptr) stages->result_transfer += transfer;
  const SimNanos ready =
      (host_now > done_[i] ? host_now : done_[i]) + fault_delay;
  const SimNanos arrival = ready + transfer;
  if (rec_ != nullptr && transfer > 0) {
    rec_->Span(host_track_, "transfer batch " + std::to_string(i), "transfer",
               ready, arrival,
               {obs::TraceArg::Num("bytes", batches_[i].bytes)});
  }
  fetched_[i] = arrival;
  return arrival;
}

StallingSourceOp::StallingSourceOp(rel::Schema schema,
                                   const std::vector<std::string>* rows,
                                   BatchSchedule* schedule,
                                   sim::AccessContext* host_ctx,
                                   StageTimes* stages)
    : schema_(std::move(schema)),
      rows_(rows),
      schedule_(schedule),
      host_ctx_(host_ctx),
      stages_(stages) {}

Status StallingSourceOp::Open() {
  pos_ = 0;
  next_batch_ = 0;
  batch_rows_left_ = 0;
  status_ = Status::OK();
  return Status::OK();
}

Status StallingSourceOp::Rewind() { return Open(); }

bool StallingSourceOp::FetchNextDeviceBatch() {
  while (batch_rows_left_ == 0) {
    const bool past_end = next_batch_ >= schedule_->num_batches();
    if (past_end && !schedule_->poisoned()) return false;
    Status err;
    const SimNanos arrival =
        schedule_->Fetch(next_batch_, host_ctx_->now(), stages_, &err);
    host_ctx_->clock().AdvanceTo(arrival);
    if (!err.ok()) {
      // Producer died: we were woken (not deadlocked) with its status.
      status_ = std::move(err);
      return false;
    }
    if (past_end) return false;  // poisoned, but all batches were delivered
    batch_rows_left_ = schedule_->BatchRowCount(next_batch_);
    ++next_batch_;
  }
  return true;
}

exec::RowBatch* StallingSourceOp::NextBatch(size_t max_rows) {
  if (!FetchNextDeviceBatch()) return nullptr;
  if (pos_ >= rows_->size()) return nullptr;
  // Clamp to the current device batch: a second fetch after rows were
  // emitted would charge the rows' downstream work after the stall.
  size_t take = max_rows < batch_rows_left_
                    ? max_rows
                    : static_cast<size_t>(batch_rows_left_);
  const size_t avail = rows_->size() - pos_;
  if (take > avail) take = avail;
  batch_.Reset(&schema_, take);
  // The batch may cap its capacity below `take` (slab ceiling); taking
  // fewer rows than the device batch holds is always legal — only reading
  // past the stall point would change the schedule.
  if (take > batch_.capacity()) take = batch_.capacity();
  for (size_t k = 0; k < take; ++k) {
    batch_.AppendCopy((*rows_)[pos_++].data());
    --batch_rows_left_;
    ++rows_produced_;
  }
  // Fig. 7.D: the host maps each incoming record into its engine-internal
  // structures, like any other storage-engine handler source. `take`
  // identical per-record charges, paid in one step (bit-identical, see
  // AccessContext::ChargeRepeated).
  if (host_ctx_ != nullptr) {
    host_ctx_->ChargeRepeated(sim::CostKind::kRecordEval, 1, take);
    host_ctx_->ChargeCopyRepeated(schema_.row_size(), take);
  }
  return &batch_;
}

}  // namespace hybridndp::hybrid
