// job-hybrid: the production path. Two closed-loop clients plan every JOB
// query in their own seeded order and run the planner's recommended choice,
// each with its own warm host block cache that holds the hot set.
//
// job-sweep: the what-if path of Figs. 12/13. For each query in a seeded
// order, RunAll executes every strategy (BLK, NATIVE, H0..Hn, NDP) over a
// worker pool, each run with a fresh cold cache; the best run is the oracle
// for the planner's pick.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "job_store.h"
#include "obs/trace.h"

namespace hybridndp::perfbench {

namespace {

/// Logical clients of job-hybrid and the simulated-sequence length of each.
/// 4 * 113 + 48 ops: every query several times, plus a seeded remainder.
constexpr int kHybridClients = 2;
constexpr uint64_t kHybridSimOps = 500;
/// Sweeps (queries x all strategies) in job-sweep's simulated sequence:
/// three passes over the queries plus a seeded remainder of 10. Runs use
/// cold caches, so only the remainder depends on the seed; keeping it a
/// small share keeps the simulated tail steady across seeds (two queries
/// hold the 8 slowest runs of a pass).
constexpr uint64_t kSweepSimQueries = 3 * 113 + 10;

/// Host cache sized to 40% of the stored bytes: with this store's index
/// overhead that holds the hottest table and its indexes, as the paper's
/// 4 GB host does for cast_info.
uint64_t WarmCacheBytes(const JobStore& store) {
  return std::max<uint64_t>(1 << 20, store.storage->TotalBytes() * 2 / 5);
}

uint64_t OpId(uint64_t client, uint64_t n) { return (client << 40) | n; }

void ExportPicks(const std::array<uint64_t, 4>& picks, PhaseResult* out) {
  double total = 0;
  for (uint64_t p : picks) total += static_cast<double>(p);
  if (total == 0) total = 1;
  out->values["hybrid.pick.host_frac"] = picks[0] / total;
  out->values["hybrid.pick.h0_frac"] = picks[1] / total;
  out->values["hybrid.pick.hk_frac"] = picks[2] / total;
  out->values["hybrid.pick.ndp_frac"] = picks[3] / total;
}

void ExportCommon(const JobStore& store, const ProcCounters& proc0,
                  const RateWindows& windows, PhaseResult* out) {
  const ProcCounters proc1 = ProcCounters::Now();
  out->setup_samples.push_back(store.build_s + store.open_readers_s);
  auto& v = out->values;
  v["ops_per_s"] = windows.MedianRate();
  out->windows = windows.ToString();
  v["space_amp"] = store.SpaceAmp();
  v["job.build_s"] = store.build_s;
  v["lsm.open_readers_ms"] = store.open_readers_s * 1e3;
  v["proc.cpu_s"] = proc1.cpu_s - proc0.cpu_s;
  v["proc.minor_faults"] = proc1.minor_faults - proc0.minor_faults;
  v["lsm.live_files"] = static_cast<double>(store.storage->NumFiles());
}

/// Simulated-timeline recorder export of a traced phase.
void ExportRecorder(const JobStore& store, obs::TraceRecorder* rec,
                    PhaseResult* out) {
  if (rec == nullptr) return;
  store.db->ExportMetrics(rec->metrics());
  out->obs_metrics_json = rec->MetricsJson();
  out->sim_trace_json = rec->ToChromeJson();
}

struct HybridClient {
  HybridClient(uint64_t seed, uint64_t cache_bytes,
               WallClock::time_point start, double seconds)
      : stream(seed, job::AllJobQueries().size()),
        cache(std::make_unique<lsm::BlockCache>(cache_bytes)),
        windows(start, seconds) {}

  QueryStream stream;
  std::unique_ptr<lsm::BlockCache> cache;
  RateWindows windows;
  uint64_t ops = 0;
  uint64_t failed = 0;
  SimTally sim;                   ///< the first kHybridSimOps ops
  std::array<uint64_t, 4> picks{};  ///< by RunClass, same ops
  std::vector<double> wall_ms;
  std::vector<double> plan_us;
  std::array<std::vector<double>, 3> run_ms;  ///< host, hybrid, ndp
};

/// One closed-loop operation of job-hybrid: plan, run the recommended
/// choice, check the result against the host-only reference.
void HybridOp(const JobStore& store, const std::vector<job::JobQueryId>& ids,
              const std::vector<ResultDigest>& ref, uint64_t client_id,
              HybridClient* c, SpanLog* log, obs::TraceRecorder* rec) {
  const uint64_t op = OpId(client_id, c->ops);
  const bool in_sim = c->ops < kHybridSimOps;
  ++c->ops;
  const size_t qi = c->stream.Next();
  ScopedSpan op_span(log, "perfbench.op", op);
  const WallClock::time_point t0 = WallClock::now();
  Result<hybrid::Query> query = job::MakeJobQuery(ids[qi]);
  if (!query.ok()) {
    ++c->failed;
    return;
  }
  Result<hybrid::Plan> plan = Status::Internal("unplanned");
  {
    ScopedSpan span(log, "hybrid.plan", op);
    plan = store.planner->PlanQuery(*query);
  }
  const WallClock::time_point t1 = WallClock::now();
  if (!plan.ok()) {
    ++c->failed;
    return;
  }
  Result<hybrid::RunResult> run = Status::Internal("not run");
  {
    ScopedSpan span(log, "hybrid.run", op);
    run = store.executor->Run(*plan, plan->recommended, c->cache.get(),
                              in_sim ? rec : nullptr);
  }
  const WallClock::time_point t2 = WallClock::now();
  c->windows.Add(t2, 1);
  c->wall_ms.push_back(SecondsBetween(t0, t2) * 1e3);
  c->plan_us.push_back(SecondsBetween(t0, t1) * 1e6);
  const RunClass cls = ClassOf(plan->recommended);
  const int run_slot = cls == RunClass::kHost ? 0 : cls == RunClass::kNdp ? 2 : 1;
  c->run_ms[run_slot].push_back(SecondsBetween(t1, t2) * 1e3);
  bool ok;
  {
    ScopedSpan span(log, "perfbench.check", op);
    ok = run.ok() && DigestRows(run->rows) == ref[qi];
  }
  if (!ok) {
    ++c->failed;
    return;
  }
  if (in_sim) {
    c->sim.Add(*run);
    ++c->picks[static_cast<int>(cls)];
  }
}

}  // namespace

PhaseResult RunJobHybrid(const Config& cfg, double seconds, bool traced) {
  PhaseResult out;
  const int threads = std::clamp(cfg.threads, 1, kHybridClients);
  if (traced) {
    for (int t = 0; t < threads; ++t) out.span_logs.emplace_back(t);
  }
  SpanLog* setup_log = traced ? &out.span_logs[0] : nullptr;
  std::unique_ptr<JobStore> store = BuildJobStore(setup_log);
  const std::vector<job::JobQueryId> ids = job::AllJobQueries();
  const std::vector<ResultDigest> ref =
      HostOnlyReference(*store, cfg.corrupt_reference);
  std::unique_ptr<obs::TraceRecorder> rec;
  if (traced) rec = std::make_unique<obs::TraceRecorder>();
  printf("# config host_cache_bytes=%llu per client (warm)\n",
         static_cast<unsigned long long>(WarmCacheBytes(*store)));

  const SstStats sst0 = SstStats::Of(*store->db);
  const ProcCounters proc0 = ProcCounters::Now();
  const WallClock::time_point start = WallClock::now();
  const WallClock::time_point deadline =
      start + std::chrono::duration_cast<WallClock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::unique_ptr<HybridClient>> clients;
  for (int c = 0; c < kHybridClients; ++c) {
    clients.push_back(std::make_unique<HybridClient>(
        cfg.seed * 1000003 + static_cast<uint64_t>(c), WarmCacheBytes(*store),
        start, seconds));
  }
  // Thread t drives the logical clients c with c % threads == t, one op of
  // each in turn, so simulated results do not depend on `threads`.
  auto drive = [&](int t) {
    SpanLog* log = traced ? &out.span_logs[t] : nullptr;
    for (bool busy = true; busy;) {
      busy = false;
      const bool timed_out = WallClock::now() >= deadline;
      for (int c = t; c < kHybridClients; c += threads) {
        HybridClient* client = clients[c].get();
        if (timed_out && client->ops >= kHybridSimOps) continue;
        busy = true;
        HybridOp(*store, ids, ref, static_cast<uint64_t>(c), client, log,
                 rec.get());
      }
    }
  };
  {
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t) workers.emplace_back(drive, t);
    drive(0);
    for (std::thread& w : workers) w.join();
  }
  SimTally sim;
  RateWindows windows(start, seconds);
  std::array<uint64_t, 4> picks{};
  std::vector<double> wall_ms, plan_us;
  std::array<std::vector<double>, 3> run_ms;
  uint64_t hits = 0, misses = 0;
  for (const auto& c : clients) {
    out.attempted += c->ops;
    out.failed += c->failed;
    sim.Merge(c->sim);
    windows.Merge(c->windows);
    for (int k = 0; k < 4; ++k) picks[k] += c->picks[k];
    wall_ms.insert(wall_ms.end(), c->wall_ms.begin(), c->wall_ms.end());
    plan_us.insert(plan_us.end(), c->plan_us.begin(), c->plan_us.end());
    for (int k = 0; k < 3; ++k) {
      run_ms[k].insert(run_ms[k].end(), c->run_ms[k].begin(),
                       c->run_ms[k].end());
    }
    hits += c->cache->hits();
    misses += c->cache->misses();
  }
  ExportCommon(*store, proc0, windows, &out);
  sim.Export(&out);
  ExportPicks(picks, &out);
  ExportSstDelta(sst0, SstStats::Of(*store->db), &out);
  auto& v = out.values;
  v["wall_p50_ms"] = Quantile(wall_ms, 0.50);
  v["wall_p99_ms"] = Quantile(wall_ms, 0.99);
  v["hybrid.plan_us_p50"] = Quantile(plan_us, 0.50);
  v["hybrid.plan_us_p99"] = Quantile(plan_us, 0.99);
  v["hybrid.run_ms.host"] = Quantile(run_ms[0], 0.50);
  v["hybrid.run_ms.hybrid"] = Quantile(run_ms[1], 0.50);
  v["hybrid.run_ms.ndp"] = Quantile(run_ms[2], 0.50);
  v["lsm.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  v["samples.wall"] = static_cast<double>(wall_ms.size());
  v["samples.sim"] = static_cast<double>(sim.total_ms.size());
  ExportRecorder(*store, rec.get(), &out);
  return out;
}

PhaseResult RunJobSweep(const Config& cfg, double seconds, bool traced) {
  PhaseResult out;
  if (traced) out.span_logs.emplace_back(0);
  SpanLog* log = traced ? &out.span_logs[0] : nullptr;
  std::unique_ptr<JobStore> store = BuildJobStore(log);
  const std::vector<job::JobQueryId> ids = job::AllJobQueries();
  const std::vector<ResultDigest> ref =
      HostOnlyReference(*store, cfg.corrupt_reference);
  std::unique_ptr<obs::TraceRecorder> rec;
  if (traced) rec = std::make_unique<obs::TraceRecorder>();
  common::ThreadPool pool(cfg.threads);
  const uint64_t cache_bytes = WarmCacheBytes(*store);
  printf("# config host_cache_bytes=%llu per run (cold)\n",
         static_cast<unsigned long long>(cache_bytes));
  const hybrid::HybridExecutor::CacheFactory cold_cache = [cache_bytes] {
    return std::make_unique<lsm::BlockCache>(cache_bytes);
  };

  QueryStream stream(cfg.seed * 1000003, ids.size());
  SimTally sim;
  std::array<uint64_t, 4> picks{};
  std::vector<double> regret, wall_ms, plan_us, run_all_ms;
  uint64_t sweeps = 0;

  const SstStats sst0 = SstStats::Of(*store->db);
  const ProcCounters proc0 = ProcCounters::Now();
  const WallClock::time_point start = WallClock::now();
  const WallClock::time_point deadline =
      start + std::chrono::duration_cast<WallClock::duration>(
                  std::chrono::duration<double>(seconds));
  RateWindows windows(start, seconds);
  while (WallClock::now() < deadline || sweeps < kSweepSimQueries) {
    const uint64_t op = sweeps;
    const bool in_sim = sweeps < kSweepSimQueries;
    ++sweeps;
    const size_t qi = stream.Next();
    ScopedSpan op_span(log, "perfbench.op", op);
    const WallClock::time_point t0 = WallClock::now();
    Result<hybrid::Query> query = job::MakeJobQuery(ids[qi]);
    Result<hybrid::Plan> plan = Status::Internal("unplanned");
    if (query.ok()) {
      ScopedSpan span(log, "hybrid.plan", op);
      plan = store->planner->PlanQuery(*query);
    }
    const WallClock::time_point t1 = WallClock::now();
    if (!plan.ok()) {
      ++out.attempted;
      ++out.failed;
      continue;
    }
    const std::vector<hybrid::ExecChoice> choices =
        hybrid::HybridExecutor::AllChoices(*plan);
    std::vector<Result<hybrid::RunResult>> runs;
    {
      ScopedSpan span(log, "hybrid.run_all", op);
      runs = store->executor->RunAll(*plan, choices, &pool, cold_cache,
                                     in_sim ? rec.get() : nullptr);
    }
    const WallClock::time_point t2 = WallClock::now();
    windows.Add(t2, choices.size());
    wall_ms.push_back(SecondsBetween(t0, t2) * 1e3);
    plan_us.push_back(SecondsBetween(t0, t1) * 1e6);
    run_all_ms.push_back(SecondsBetween(t1, t2) * 1e3);

    ScopedSpan check_span(log, "perfbench.check", op);
    out.attempted += choices.size();
    double best_ms = 0, rec_ms = 0;
    bool all_ok = true;
    for (size_t i = 0; i < runs.size(); ++i) {
      const bool ok = runs[i].ok() && DigestRows(runs[i]->rows) == ref[qi];
      if (!ok) {
        ++out.failed;
        all_ok = false;
        continue;
      }
      const double ms = runs[i]->total_ms();
      if (best_ms == 0 || ms < best_ms) best_ms = ms;
      const hybrid::ExecChoice& c = choices[i];
      if (c.strategy == plan->recommended.strategy &&
          c.split_joins == plan->recommended.split_joins) {
        rec_ms = ms;
      }
    }
    if (in_sim && all_ok) {
      for (const auto& r : runs) sim.Add(*r);
      ++picks[static_cast<int>(ClassOf(plan->recommended))];
      if (rec_ms > 0 && best_ms > 0) regret.push_back(rec_ms / best_ms);
    }
  }
  const SstStats sst1 = SstStats::Of(*store->db);

  ExportCommon(*store, proc0, windows, &out);
  sim.Export(&out);
  ExportPicks(picks, &out);
  ExportSstDelta(sst0, sst1, &out);
  auto& v = out.values;
  v["wall_p50_ms"] = Quantile(wall_ms, 0.50);
  v["wall_p99_ms"] = Quantile(wall_ms, 0.99);
  v["hybrid.plan_us_p50"] = Quantile(plan_us, 0.50);
  v["hybrid.plan_us_p99"] = Quantile(plan_us, 0.99);
  v["hybrid.run_all_ms"] = Quantile(run_all_ms, 0.50);
  v["hybrid.sim_regret"] = GeoMean(regret);
  const uint64_t reads = sst1.block_reads - sst0.block_reads;
  v["lsm.cache_hit_ratio"] =
      reads > 0 ? static_cast<double>(sst1.cache_hits - sst0.cache_hits) /
                      static_cast<double>(reads)
                : 0;
  v["samples.wall"] = static_cast<double>(wall_ms.size());
  v["samples.sim"] = static_cast<double>(sim.total_ms.size());
  ExportRecorder(*store, rec.get(), &out);
  return out;
}

}  // namespace hybridndp::perfbench
