// Simulated-time primitives. All performance numbers in this repository are
// accounted on simulated clocks driven by the hardware model, never on
// wall-clock time, so every experiment is exactly reproducible.

#pragma once

#include <cmath>
#include <cstdint>

namespace hybridndp {

/// Simulated nanoseconds.
using SimNanos = double;

/// Simulated picoseconds — the *storage* representation for accumulated
/// simulated time. Individual charges are computed in SimNanos (double) but
/// quantized to integer picoseconds before accumulation, which makes sums
/// associative: any reordering of the same multiset of charges yields a
/// bit-identical clock. Batch-vectorized execution relies on this to keep
/// simulated metrics independent of the batch size while reordering
/// per-row work inside a batch. int64 picoseconds overflow after ~107 days of
/// simulated time; experiments here run milliseconds to seconds.
using SimPicos = int64_t;

constexpr SimNanos kNanosPerMicro = 1e3;
constexpr SimNanos kNanosPerMilli = 1e6;
constexpr SimNanos kNanosPerSec = 1e9;

/// Quantization uses llrint (round to nearest, ties to even under the
/// default FP environment), which compiles to a single conversion
/// instruction — this runs twice per charge, ~10^8 times per bench run,
/// where llround's away-from-zero tie-breaking is an out-of-line libm call.
/// Ties (a charge landing exactly on half a picosecond) are the only
/// difference, and determinism is what matters here, not the tie direction.
inline SimPicos NanosToPicos(SimNanos ns) {
  return static_cast<SimPicos>(std::llrint(ns * 1e3));
}
inline SimNanos PicosToNanos(SimPicos ps) {
  return static_cast<SimNanos>(ps) * 1e-3;
}

/// Monotonic simulated clock owned by one actor (host or a device core).
/// Accumulates integer picoseconds internally (see SimPicos above) and
/// exposes nanoseconds at the API boundary.
class SimClock {
 public:
  SimNanos now() const { return PicosToNanos(now_ps_); }
  SimPicos now_ps() const { return now_ps_; }
  void Advance(SimNanos ns) { now_ps_ += NanosToPicos(ns); }
  /// Advance by an already-quantized amount (batch charging: n identical
  /// charges advance by exactly n times the per-charge quantum).
  void AdvancePicos(SimPicos ps) { now_ps_ += ps; }
  /// Jump forward to `t` if it is in the future (used for stall/wait).
  void AdvanceTo(SimNanos t) {
    const SimPicos t_ps = NanosToPicos(t);
    if (t_ps > now_ps_) now_ps_ = t_ps;
  }
  void Reset() { now_ps_ = 0; }

 private:
  SimPicos now_ps_ = 0;
};

}  // namespace hybridndp
