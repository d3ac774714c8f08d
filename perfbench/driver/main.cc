// hndp_perfbench: the repository benchmark. One invocation runs one workload
// and prints, as the last line of stdout, one JSON object with the keys
// correct / attempted / failed / metrics.
//
//   hndp_perfbench --workload <job-hybrid|job-sweep|kv-ingest> --seed <n>
//                  --seconds <s> --trace <0|1>
//                  [--threads <n>] [--setups <n>] [--out-dir <dir>]
//                  [--corrupt-reference]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// splits the time into an untraced and a traced half and reports the
// per-layer metrics of the traced half plus the tracing slowdown; it writes
// the span trace, the obs metrics export and the simulated timeline to
// --out-dir. Lines starting with '#' are the pinned configuration and the
// simulated values, which repeat exactly for a given seed.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "job_store.h"
#include "obs/trace.h"

extern char** environ;

namespace hybridndp::perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them, measured
/// untraced. All are positive on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"wall_p50_ms", "ms"},    {"wall_p99_ms", "ms"},
    {"sim_mean_ms", "ms"},    {"sim_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},   {"space_amp", "ratio"},
};

/// Per-layer metrics of the traced phase. A layer a workload bypasses
/// reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"job.build_s", "s"},
    {"lsm.open_readers_ms", "ms"},
    {"lsm.get_us_p50", "us"},
    {"lsm.get_us_p99", "us"},
    {"lsm.insert_us_p50", "us"},
    {"lsm.insert_us_p99", "us"},
    {"lsm.scan_us_p50", "us"},
    {"lsm.sim_get_us_p50", "us"},
    {"lsm.flushes", "count"},
    {"lsm.compactions", "count"},
    {"lsm.write_amp", "ratio"},
    {"lsm.live_files", "count"},
    {"lsm.cache_hit_ratio", "ratio"},
    {"lsm.sst.block_reads", "count"},
    {"lsm.sst.block_read_bytes", "bytes"},
    {"lsm.sst.index_loads", "count"},
    {"hybrid.plan_us_p50", "us"},
    {"hybrid.plan_us_p99", "us"},
    {"hybrid.pick.host_frac", "ratio"},
    {"hybrid.pick.h0_frac", "ratio"},
    {"hybrid.pick.hk_frac", "ratio"},
    {"hybrid.pick.ndp_frac", "ratio"},
    {"hybrid.run_ms.host", "ms"},
    {"hybrid.run_ms.hybrid", "ms"},
    {"hybrid.run_ms.ndp", "ms"},
    {"hybrid.run_all_ms", "ms"},
    {"hybrid.fallbacks", "count"},
    {"hybrid.sim_regret", "ratio"},
    {"coop.setup_ms", "ms"},
    {"coop.initial_wait_ms", "ms"},
    {"coop.later_wait_ms", "ms"},
    {"coop.transfer_ms", "ms"},
    {"coop.processing_ms", "ms"},
    {"ndp.busy_ms", "ms"},
    {"ndp.stall_ms", "ms"},
    {"ndp.stall_ratio", "ratio"},
    {"ndp.rows_shipped", "count"},
    {"ndp.bytes_shipped", "bytes"},
    {"ndp.invocations", "count"},
    {"ndp.batches", "count"},
    {"sim.p50_ms", "ms"},
    {"sim.host.flash_load_bytes", "bytes"},
    {"sim.dev.flash_load_bytes", "bytes"},
    {"sim.dev.memcmp_bytes", "bytes"},
    {"sim.dev.compare_internal_keys", "count"},
    {"sim.host.hash_probe", "count"},
    {"sim.host.record_eval", "count"},
    {"sim.host.copy_bytes", "bytes"},
    {"self_us.perfbench.op", "us"},
    {"self_us.perfbench.check", "us"},
    {"self_us.hybrid.plan", "us"},
    {"self_us.hybrid.run", "us"},
    {"self_us.hybrid.run_all", "us"},
    {"self_us.lsm.get", "us"},
    {"self_us.lsm.insert", "us"},
    {"self_us.lsm.scan", "us"},
    {"proc.cpu_s", "s"},
    {"proc.minor_faults", "count"},
    {"trace.ops_per_s", "1/s"},
    {"trace.slowdown", "ratio"},
};

/// Values that are a pure function of the workload seed: the simulated
/// latencies and counts. Printed as '# sim' lines for the determinism check.
bool IsSimulated(const std::string& name) {
  for (const char* prefix : {"sim_", "sim.", "hybrid.pick.", "coop.", "ndp.",
                             "hybrid.sim_regret", "hybrid.fallbacks",
                             "lsm.sim_get_us", "samples.sim"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

[[noreturn]] void Usage(const char* msg) {
  fprintf(stderr,
          "perfbench: %s\nusage: hndp_perfbench --workload "
          "<job-hybrid|job-sweep|kv-ingest> --seed <n> --seconds <s> "
          "--trace <0|1> [--threads <n>] [--setups <n>] [--out-dir <dir>] "
          "[--corrupt-reference]\n",
          msg);
  exit(2);
}

long long ParseInt(const char* flag, const char* s, long long lo,
                   long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    Usage((std::string("bad value for ") + flag + ": " + s).c_str());
  }
  return v;
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      cfg.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    if (flag == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = static_cast<uint64_t>(ParseInt("--seed", val, 0, 1LL << 40));
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = static_cast<double>(ParseInt("--seconds", val, 1, 3600));
      have_seconds = true;
    } else if (flag == "--trace") {
      cfg.trace = ParseInt("--trace", val, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--threads") {
      cfg.threads = static_cast<int>(ParseInt("--threads", val, 1, 64));
    } else if (flag == "--setups") {
      cfg.setups = static_cast<int>(ParseInt("--setups", val, 1, 15));
    } else if (flag == "--out-dir") {
      cfg.out_dir = val;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (cfg.workload != "job-hybrid" && cfg.workload != "job-sweep" &&
      cfg.workload != "kv-ingest") {
    Usage(("unknown workload " + cfg.workload).c_str());
  }
  return cfg;
}

/// The configuration is pinned in this file; an HNDP_* variable (faults,
/// tracing, batch size, threads, scale, seed) would silently change what a
/// number means, so the benchmark refuses to run with one set.
void RefuseHndpEnvironment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HNDP_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name(*e, eq != nullptr ? eq - *e : std::strlen(*e));
      fprintf(stderr,
              "perfbench: refusing to run with %s set; the benchmark pins "
              "its own configuration\n",
              name.c_str());
      exit(2);
    }
  }
}

const char* BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void PrintConfig(const Config& cfg) {
  printf("# config workload=%s seed=%llu seconds=%g trace=%d threads=%d "
         "setups=%d\n",
         cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
         cfg.seconds, cfg.trace ? 1 : 0, cfg.threads, cfg.setups);
  printf("# config job_scale=%g job_data_seed=%llu clients=%d "
         "warm_cache=40%%_of_stored kv_cache=1/8_of_stored batch_rows=1024\n",
         kJobScale, static_cast<unsigned long long>(kJobDataSeed),
         cfg.workload == "job-hybrid" ? 2 : 1);
  printf("# config build_type=%s optimized=%d compiler=\"%s\" nproc=%ld\n",
         BuildType(), Optimized() ? 1 : 0, __VERSION__,
         sysconf(_SC_NPROCESSORS_ONLN));
  if (!Optimized()) {
    fprintf(stderr, "perfbench: warning: not an optimised build; wall-clock "
                    "numbers are not comparable\n");
  }
}

PhaseResult RunPhase(const Config& cfg, double seconds, bool traced) {
  if (cfg.workload == "job-hybrid") return RunJobHybrid(cfg, seconds, traced);
  if (cfg.workload == "job-sweep") return RunJobSweep(cfg, seconds, traced);
  return RunKvIngest(cfg, seconds, traced);
}

double TimeOneSetup() {
  std::unique_ptr<JobStore> store = BuildJobStore(nullptr);
  return store->build_s + store->open_readers_s;
}

void WriteOutput(const Config& cfg, const std::string& suffix,
                 const std::string& contents) {
  if (contents.empty()) return;
  const std::string path = cfg.out_dir + "/" + cfg.workload + suffix;
  if (obs::WriteFile(path, contents)) printf("# wrote %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  RefuseHndpEnvironment();
  const Config cfg = ParseArgs(argc, argv);
  PrintConfig(cfg);

  PhaseResult result;
  std::vector<MetricSpec> specs;
  if (!cfg.trace) {
    // Set-up is timed before and after the measured phase and for every
    // store the phase builds, so its median spans the run, as the other
    // wall-clock metrics do, instead of one stretch of a few seconds on a
    // machine whose speed drifts.
    std::vector<double> setups;
    for (int i = 0; i < cfg.setups / 2 - 1; ++i) {
      setups.push_back(TimeOneSetup());
    }
    result = RunPhase(cfg, cfg.seconds, /*traced=*/false);
    setups.insert(setups.end(), result.setup_samples.begin(),
                  result.setup_samples.end());
    while (setups.size() < static_cast<size_t>(cfg.setups)) {
      setups.push_back(TimeOneSetup());
    }
    printf("# setup_s");
    for (double s : setups) printf(" %.4f", s);
    printf("\n");
    result.values["setup_s"] = Quantile(setups, 0.5);
    result.values["peak_rss_mb"] = PeakRssMb();
    specs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    const PhaseResult untraced =
        RunPhase(cfg, cfg.seconds / 2, /*traced=*/false);
    result = RunPhase(cfg, cfg.seconds / 2, /*traced=*/true);
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    const double traced_ops = result.values["ops_per_s"];
    result.values["trace.ops_per_s"] = traced_ops;
    result.values["trace.slowdown"] =
        traced_ops > 0 ? untraced.values.at("ops_per_s") / traced_ops : 0;
    const uint64_t traced_ops_count =
        static_cast<uint64_t>(result.values["samples.wall"]);
    WriteOutput(cfg, ".spans.json", result.ExportSpans(traced_ops_count));
    WriteOutput(cfg, ".obs-metrics.json", result.obs_metrics_json);
    WriteOutput(cfg, ".sim-trace.json", result.sim_trace_json);
    specs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  }

  for (const auto& [name, value] : result.values) {
    if (IsSimulated(name)) printf("# sim %s=%.17g\n", name.c_str(), value);
  }
  printf("# samples wall=%.0f sim=%.0f\n", result.values["samples.wall"],
         result.values["samples.sim"]);
  printf("# ops per second window: %s\n", result.windows.c_str());

  bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{";
  for (const MetricSpec& spec : specs) {
    const auto found = result.values.find(spec.name);
    const double v = found != result.values.end() ? found->second : 0;
    if (!std::isfinite(v) || (!cfg.trace && !(v > 0))) {
      fprintf(stderr, "perfbench: metric %s has no valid value (%g)\n",
              spec.name, v);
      correct = false;
    }
    char buf[256];
    snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             json.size() > 1 ? ", " : "", spec.name,
             std::isfinite(v) ? v : 0.0, spec.unit);
    json += buf;
  }
  json += "}";
  if (result.failed > 0) {
    fprintf(stderr, "perfbench: %llu of %llu operations failed or returned "
                    "wrong results\n",
            static_cast<unsigned long long>(result.failed),
            static_cast<unsigned long long>(result.attempted));
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(result.attempted),
         static_cast<unsigned long long>(result.failed), json.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace hybridndp::perfbench

int main(int argc, char** argv) {
  return hybridndp::perfbench::Main(argc, argv);
}
