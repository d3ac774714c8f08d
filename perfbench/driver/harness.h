// Shared plumbing of the benchmark driver: run configuration, wall-clock
// spans around the calls the driver makes into each engine layer, latency
// percentiles and process counters.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"

namespace hybridndp::perfbench {

/// Pinned benchmark configuration. Nothing here is read from the
/// environment: the driver refuses to start when any HNDP_* variable is set.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Client threads (job-hybrid) or RunAll pool size (job-sweep). The
  /// logical clients of job-hybrid stay two either way, so simulated
  /// results do not depend on this value.
  int threads = 2;
  /// Set-ups timed for setup_s (the median is reported).
  int setups = 10;
  /// Flip one reference digest, to show that the correctness gate fires.
  bool corrupt_reference = false;
  /// Directory for the traced run's span and metrics files.
  std::string out_dir = ".";
};

/// JOB data scale and generator seed. Both are fixed: the workload seed
/// drives only the operation stream, never the stored data.
constexpr double kJobScale = 0.001;
constexpr uint64_t kJobDataSeed = 42;

using WallClock = std::chrono::steady_clock;

inline double SecondsBetween(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// q-quantile (0..1) by linear interpolation between closest ranks (the
/// numpy default). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Completed operations per one-second window of a timed phase. The
/// reported throughput is the median window's rate, so a burst of load from
/// outside the benchmark moves it less than it moves the mean.
class RateWindows {
 public:
  RateWindows(WallClock::time_point start, double seconds);
  /// Counts `ops` completed at `done`; completions past the last whole
  /// window are ignored. Not thread-safe: one instance per thread.
  void Add(WallClock::time_point done, uint64_t ops);
  void Merge(const RateWindows& other);
  double MedianRate() const;
  /// "n0 n1 ..." for the '#' lines of the result.
  std::string ToString() const;

 private:
  WallClock::time_point start_;
  std::vector<double> counts_;
};

/// Uniform random sample of at most kCapacity values (Algorithm R), so a
/// phase with millions of operations keeps its latencies in fixed memory
/// and peak_rss_mb does not grow with throughput.
class Reservoir {
 public:
  static constexpr size_t kCapacity = 1 << 15;
  void Add(double v);
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  uint64_t seen_ = 0;
  Rng rng_{0x5a3b1e};
};

/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// User+system CPU seconds and minor page faults of this process so far.
struct ProcCounters {
  double cpu_s = 0;
  double minor_faults = 0;
  static ProcCounters Now();
};

/// In-memory wall-clock spans of one thread. Each span records its name,
/// start, end, parent span and operation id. Self time (duration minus the
/// time covered by child spans) is aggregated per name as spans close, so
/// the totals cover every span even when the stored list is capped.
class SpanLog {
 public:
  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  explicit SpanLog(int thread_id) : thread_id_(thread_id) {}

  /// `name` must be a string literal (stored by pointer).
  void Begin(const char* name, uint64_t op);
  void End();

  const std::map<std::string, Totals>& totals() const { return totals_; }
  /// Appends Chrome trace_event 'X' events of the stored spans.
  void AppendChromeEvents(std::string* out, bool* first) const;

  /// Spans kept for the trace file per thread; later ones are only totalled.
  static constexpr size_t kMaxStoredSpans = 50000;

 private:
  struct Open {
    const char* name;
    uint64_t op;
    WallClock::time_point start;
    double child_s;
    int64_t stored;  ///< index into spans_, -1 when not stored
  };
  struct Stored {
    const char* name;
    uint64_t op;
    int64_t parent;  ///< index into spans_, -1 for a root span
    int64_t start_ns;
    int64_t end_ns;
  };

  int thread_id_;
  std::vector<Open> stack_;
  std::vector<Stored> spans_;
  std::map<std::string, Totals> totals_;
};

/// Opens a span for its lifetime; a null log (untraced phase) records
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op) : log_(log) {
    if (log_ != nullptr) log_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// What one workload phase measured: the operation counts and every named
/// value it produced. main.cc picks the end-to-end or per-layer set and
/// fills per-layer values a workload does not exercise with 0.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Set-up seconds (build plus OpenAllReaders) of every store the phase
  /// built.
  std::vector<double> setup_samples;
  /// The rates behind ops_per_s (per one-second window, or per round in
  /// kv-ingest), for the '#' lines.
  std::string windows;
  /// Span logs of the traced phase (empty otherwise), one per thread.
  std::vector<SpanLog> span_logs;
  /// obs metrics export (TraceRecorder registry + DB::ExportMetrics) and
  /// the simulated-timeline trace of the traced phase.
  std::string obs_metrics_json;
  std::string sim_trace_json;

  /// Adds self time per operation (us) of every span name to `values` and
  /// returns the stored spans and per-name totals as Chrome trace JSON.
  std::string ExportSpans(uint64_t ops);
};

/// Workload entry points. A phase builds its own store, runs for `seconds`
/// (and at least until its fixed simulated sequence is done), and checks
/// every result. `traced` selects the traced phase.
PhaseResult RunJobHybrid(const Config& cfg, double seconds, bool traced);
PhaseResult RunJobSweep(const Config& cfg, double seconds, bool traced);
PhaseResult RunKvIngest(const Config& cfg, double seconds, bool traced);

}  // namespace hybridndp::perfbench
