// Observability: span-based trace recorder over the *simulated* timeline.
//
// Every span lives on one track (one track per strategy run, plus device
// tracks) and carries simulated-clock start/end nanoseconds (the clocks the
// hardware model drives — never wall-clock) and a category used for
// per-stage aggregation (the paper's Table 4 stages: "setup", "wait",
// "transfer", "processing", plus device-side "produce"/"stall").
//
// Export format is Chrome trace_event JSON ("traceEvents" array of complete
// 'X' events), which opens directly in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing. Simulated nanoseconds are written as microsecond
// floats, the unit trace viewers expect.
//
// The null-recorder fast path: all recording sites take a TraceRecorder*
// that is nullptr unless the user asked for a trace (HNDP_TRACE). Disabled
// runs execute the exact same simulation statements — recording only ever
// *reads* simulated clocks — so simulated metrics are bit-identical with
// tracing on, off, or attached concurrently from RunAll's claimer threads.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace hybridndp::obs {

/// One key/value annotation on a span. `value` is a pre-rendered JSON
/// literal: pass "42" for numbers and use TraceArg::Str for strings.
struct TraceArg {
  std::string key;
  std::string value;

  static TraceArg Num(std::string key, double v);
  static TraceArg Num(std::string key, uint64_t v);
  static TraceArg Str(std::string key, std::string_view v);
};

/// A complete interval on one track of the simulated timeline.
struct TraceSpan {
  std::string name;
  std::string cat;
  SimNanos start_ns = 0;
  SimNanos end_ns = 0;
  std::vector<TraceArg> args;

  SimNanos duration() const { return end_ns - start_ns; }
};

/// Thread-safe trace collector + embedded metrics registry. One recorder
/// per bench/tool invocation; strategy runs fanned over RunAll's claimer
/// threads append to it concurrently.
class TraceRecorder {
 public:
  /// Register a named track (rendered as one Perfetto thread, ordered by
  /// registration). Returns the track id used by Span().
  int NewTrack(const std::string& name);

  void Span(int track, std::string name, std::string cat, SimNanos start_ns,
            SimNanos end_ns, std::vector<TraceArg> args = {});

  /// Cover every gap of [start_ns, end_ns] not already covered by this
  /// track's spans with a new span of the given name/category. Used to
  /// materialize "processing" time on a host track where setup/wait/transfer
  /// intervals were recorded as they happened: by construction the four
  /// categories then tile [start_ns, end_ns] exactly, so per-category
  /// duration sums add up to the track's total simulated time.
  void GapFill(int track, SimNanos start_ns, SimNanos end_ns,
               const std::string& name, const std::string& cat);

  /// Sum of span durations with category `cat` on `track`.
  SimNanos CategoryTotal(int track, std::string_view cat) const;

  size_t num_tracks() const;
  size_t num_spans() const;
  std::vector<TraceSpan> TrackSpans(int track) const;

  /// Chrome trace_event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  /// Spans are emitted track by track, each in its recording order, so the
  /// bytes do not depend on how concurrent runs interleaved their appends:
  /// two recordings of the same simulated work serialize identically.
  std::string ToChromeJson() const;

  MetricsRegistry* metrics() { return &metrics_; }
  const MetricsRegistry* metrics() const { return &metrics_; }
  /// Flat metrics JSON (the registry's ToJson).
  std::string MetricsJson() const { return metrics_.ToJson(); }

 private:
  /// One track's spans in recording order; one run writes each track.
  struct Track {
    std::string name;
    std::vector<TraceSpan> spans;
  };

  mutable common::Mutex mu_;
  std::vector<Track> tracks_ GUARDED_BY(mu_);
  MetricsRegistry metrics_;  ///< internally synchronized
};

/// Write `contents` to `path` with stdio. Returns false (and prints to
/// stderr) on failure. Real filesystem — traces are tooling output, not part
/// of the simulation.
bool WriteFile(const std::string& path, std::string_view contents);

}  // namespace hybridndp::obs
