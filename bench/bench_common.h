// Shared scaffolding for the experiment harness binaries: builds the scaled
// JOB database once, configures the hardware model and buffer budget with
// the paper's proportions, and provides run/print helpers.
//
// Scale note: the paper runs 74 M rows / 16 GB against a device with a
// 400 MB NDP buffer budget, 17 MB selection buffers and 7 MB join buffers.
// We default to 1/1000 scale (~74 k rows) and shrink all memory knobs by the
// same proportions, so buffer-pressure effects (pass counts, slot stalls,
// max pipeline depth of ~17 tables / ~12 with secondary index) carry over.
// The memory knobs stay at those 1/1000 values whatever HNDP_SCALE is; only
// the dataset follows it.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/thread_pool.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "job/generator.h"
#include "job/queries.h"
#include "lsm/db.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/hw_model.h"

namespace hybridndp::bench {

/// The value of environment variable `name`; null when unset or empty.
inline const char* EnvValue(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : nullptr;
}

/// Numeric setting `name`, read whole by `parse` (common/parse.h) and
/// accepted when `valid`. Unset keeps `fallback`; a rejected value keeps it
/// too and says so on stderr, rather than running the bench at a nonsense
/// configuration.
template <typename T, typename Valid>
T EnvNumber(const char* name, T fallback,
            bool (*parse)(std::string_view, T*), Valid valid,
            const char* expected) {
  const char* s = EnvValue(name);
  if (s == nullptr) return fallback;
  T v{};
  if (parse(s, &v) && valid(v)) return v;
  fprintf(stderr, "# ignoring %s=\"%s\": expected %s, using %g\n", name, s,
          expected, static_cast<double>(fallback));
  return fallback;
}

/// Thread count: integers below 1 are clamped to 1 and above 1024 to 1024
/// (with a note), anything non-numeric keeps the fallback.
inline int EnvThreads(const char* name, int fallback) {
  const int64_t v = EnvNumber<int64_t>(
      name, fallback, common::ParseInt64, [](int64_t) { return true; },
      "an integer");
  const int threads = static_cast<int>(std::clamp<int64_t>(v, 1, 1024));
  if (threads != v) {
    fprintf(stderr, "# clamping %s=%lld to %d thread%s\n", name,
            static_cast<long long>(v), threads, threads == 1 ? "" : "s");
  }
  return threads;
}

struct BenchEnv {
  double scale = 0.001;
  sim::HwParams hw;
  std::unique_ptr<lsm::VirtualStorage> storage;
  std::unique_ptr<lsm::DB> db;
  std::unique_ptr<rel::Catalog> catalog;
  hybrid::PlannerConfig planner_config;

  std::unique_ptr<hybrid::Planner> planner;
  std::unique_ptr<hybrid::HybridExecutor> executor;
  /// Thread budget for fanning independent strategy runs (HNDP_THREADS).
  std::unique_ptr<common::ThreadPool> pool;

  /// Simulated-timeline recorder, created when HNDP_TRACE=<path> is set;
  /// null otherwise (the executor's zero-overhead path). The trace and
  /// metrics JSON are written when the env is destroyed (or earlier via
  /// ExportTrace).
  std::unique_ptr<obs::TraceRecorder> trace;
  std::string trace_path;

  ~BenchEnv();
};

/// Paper-proportional hardware + buffer configuration at 1/1000 scale. It
/// does not read HNDP_SCALE: the buffers keep these sizes at every scale.
inline void ConfigureScaled(BenchEnv* env) {
  env->hw = sim::HwParams::PaperDefaults();
  // Device memory knobs scaled 1:1000 with the dataset: the paper's 400 MB
  // NDP budget, 17 MB selection buffers and 7 MB join buffers become
  // 400 KB / 17 KB / 7 KB, preserving the "at most 17 tables without /
  // 12 with secondary index" pipeline-depth limit and the buffer-refresh
  // behaviour of on-device BNL joins.
  env->hw.mem.device_ndp_budget_bytes = 440ull << 10;
  env->hw.mem.device_selection_bytes = 17ull << 10;
  env->hw.mem.device_join_bytes = 7ull << 10;

  env->planner_config.buffers.selection_buffer_bytes = 17ull << 10;
  env->planner_config.buffers.join_buffer_bytes = 7ull << 10;
  env->planner_config.buffers.shared_slot_bytes = 8ull << 10;
  env->planner_config.buffers.shared_slots = 4;
  env->planner_config.host_join_buffer_bytes = 8ull << 20;
}

/// Build the JOB database. Reads HNDP_SCALE (fraction of full IMDB) and
/// HNDP_SEED from the environment.
inline std::unique_ptr<BenchEnv> MakeJobEnv(double default_scale = 0.001) {
  auto env = std::make_unique<BenchEnv>();
  env->scale = EnvNumber(
      "HNDP_SCALE", default_scale, common::ParseDouble,
      [](double v) { return v > 0 && v <= 1; }, "a fraction in (0, 1]");
  if (const char* s = EnvValue("HNDP_TRACE")) {
    env->trace_path = s;
    env->trace = std::make_unique<obs::TraceRecorder>();
  }
  ConfigureScaled(env.get());

  env->storage = std::make_unique<lsm::VirtualStorage>(&env->hw);
  lsm::DBOptions db_opts;
  db_opts.memtable_bytes = 512 << 10;
  db_opts.l1_target_bytes = 4ull << 20;
  env->db = std::make_unique<lsm::DB>(env->storage.get(), db_opts);
  env->catalog = std::make_unique<rel::Catalog>(env->db.get());

  job::JobDataOptions data_opts;
  data_opts.scale = env->scale;
  data_opts.seed = EnvNumber(
      "HNDP_SEED", data_opts.seed, common::ParseUint64,
      [](uint64_t) { return true; }, "an unsigned integer");
  Status st = job::BuildJobDatabase(env->catalog.get(), data_opts);
  if (!st.ok()) {
    fprintf(stderr, "failed to build JOB database: %s\n",
            st.ToString().c_str());
    exit(1);
  }
  // Arm fault injection (HNDP_FAULTS) only after the database is built:
  // the benches study query-time failures, not load-time ones, and a
  // storage.write fault during loading would abort the whole run. A
  // malformed spec is a hard error — silently running the fault matrix
  // without faults would green-light a broken CI configuration.
  if (const char* s = EnvValue("HNDP_FAULTS")) {
    auto faults = sim::FaultConfig::Parse(s);
    if (!faults.ok()) {
      fprintf(stderr, "bad HNDP_FAULTS spec: %s\n",
              faults.status().ToString().c_str());
      exit(1);
    }
    sim::FaultInjector::Global().Configure(*faults);
    fprintf(stderr, "# faults armed: %s\n", s);
  }
  env->planner = std::make_unique<hybrid::Planner>(
      env->catalog.get(), &env->hw, env->planner_config);
  env->executor = std::make_unique<hybrid::HybridExecutor>(
      env->catalog.get(), env->storage.get(), &env->hw, env->planner_config);

  env->pool = std::make_unique<common::ThreadPool>(
      EnvThreads("HNDP_THREADS", common::ThreadPool::DefaultThreads()));

  uint64_t rows = 0, bytes = 0;
  for (auto* t : env->catalog->tables()) {
    rows += t->row_count();
    bytes += t->data_bytes();
  }
  printf("# JOB database: scale=%g rows=%llu data=%.1f MiB (storage %.1f "
         "MiB incl. indexes)\n",
         env->scale, static_cast<unsigned long long>(rows),
         bytes / 1048576.0, env->storage->TotalBytes() / 1048576.0);
  return env;
}

/// Per-run host cache capacity. Paper proportions: the host's 4 GB RAM
/// holds ~1/4 of the raw data but, crucially, the hottest table + its index
/// (cast_info, ~2.4 GB) fits. Our scaled-down LSM has proportionally higher
/// index overhead, so 40% of stored bytes reproduces that fits-the-hot-set
/// property.
inline uint64_t HostCacheBytes(const BenchEnv* env) {
  return std::max<uint64_t>(1 << 20, env->storage->TotalBytes() * 2 / 5);
}

/// Run one query under one choice with a fresh host cache.
inline Result<hybrid::RunResult> RunChoice(BenchEnv* env,
                                           const hybrid::Plan& plan,
                                           const hybrid::ExecChoice& choice) {
  lsm::BlockCache cache(HostCacheBytes(env));
  return env->executor->Run(plan, choice, &cache, env->trace.get());
}

/// Run one query under many choices, fanned over the env's thread budget.
/// Every run gets its own fresh host cache (cold-start semantics, same as
/// RunChoice); results come back in choice order.
inline std::vector<Result<hybrid::RunResult>> RunAllChoices(
    BenchEnv* env, const hybrid::Plan& plan,
    const std::vector<hybrid::ExecChoice>& choices) {
  const uint64_t cache_bytes = HostCacheBytes(env);
  return env->executor->RunAll(
      plan, choices, env->pool.get(),
      [cache_bytes] { return std::make_unique<lsm::BlockCache>(cache_bytes); },
      env->trace.get());
}

/// Flush the HNDP_TRACE artifacts: the Chrome trace_event JSON at the
/// configured path plus a flat metrics dump at `<path>.metrics.json`.
/// No-op when tracing is off. Runs again at env destruction; the LSM/cache
/// tallies are gauge-style counters, so re-export never double-counts.
inline void ExportTrace(BenchEnv* env) {
  if (env->trace == nullptr || env->trace_path.empty()) return;
  if (env->db != nullptr) env->db->ExportMetrics(env->trace->metrics());
  // Gauge-style and a no-op while disarmed, so zero-fault exports are
  // byte-identical (and stall-only specs — which never fall back — still
  // surface their hndp.fault.* tallies).
  sim::FaultInjector::Global().ExportMetrics(env->trace->metrics());
  if (!obs::WriteFile(env->trace_path, env->trace->ToChromeJson())) {
    fprintf(stderr, "# failed to write trace to %s\n",
            env->trace_path.c_str());
    return;
  }
  const std::string metrics_path = env->trace_path + ".metrics.json";
  if (!obs::WriteFile(metrics_path, env->trace->MetricsJson())) {
    fprintf(stderr, "# failed to write metrics to %s\n", metrics_path.c_str());
    return;
  }
  fprintf(stderr, "# trace: %s  metrics: %s\n", env->trace_path.c_str(),
          metrics_path.c_str());
}

inline BenchEnv::~BenchEnv() { ExportTrace(this); }

/// Plan a JOB query by id string like "8c".
inline Result<hybrid::Plan> PlanJob(BenchEnv* env, int group, char variant) {
  HNDP_ASSIGN_OR_RETURN(hybrid::Query q,
                        job::MakeJobQuery({group, variant}));
  return env->planner->PlanQuery(q);
}

inline void PrintRule() {
  printf("------------------------------------------------------------\n");
}

/// Destination for a machine-readable bench summary (HNDP_BENCH_JSON=<path>);
/// empty = disabled.
inline std::string BenchJsonPath() {
  const char* s = std::getenv("HNDP_BENCH_JSON");
  return s != nullptr ? std::string(s) : std::string();
}

/// Append `"key": <num>` with enough digits to round-trip a double.
inline void AppendJsonNum(std::string* out, const char* key, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "\"%s\": %.17g", key, v);
  *out += buf;
}

}  // namespace hybridndp::bench
