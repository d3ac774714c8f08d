#include "job_store.h"

#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "job/generator.h"
#include "obs/metrics.h"

namespace hybridndp::perfbench {

namespace {

[[noreturn]] void Die(const char* what, const Status& st) {
  fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  exit(1);
}

/// Device and host memory knobs scaled 1:1000 with the data, as the
/// experiment binaries do: the paper's 400 MB NDP budget, 17 MB selection
/// and 7 MB join buffers become 440 KiB / 17 KiB / 7 KiB, which keeps the
/// pipeline-depth limits and buffer-refresh behaviour of the full system.
/// Written out here rather than shared so the benchmark's configuration
/// only changes when the benchmark does.
void ConfigurePaperProportions(JobStore* s) {
  s->hw = sim::HwParams::PaperDefaults();
  s->hw.mem.device_ndp_budget_bytes = 440ull << 10;
  s->hw.mem.device_selection_bytes = 17ull << 10;
  s->hw.mem.device_join_bytes = 7ull << 10;
  s->planner_config.buffers.selection_buffer_bytes = 17ull << 10;
  s->planner_config.buffers.join_buffer_bytes = 7ull << 10;
  s->planner_config.buffers.shared_slot_bytes = 8ull << 10;
  s->planner_config.buffers.shared_slots = 4;
  s->planner_config.host_join_buffer_bytes = 8ull << 20;
  s->planner_config.exec_batch_rows = 1024;
}

}  // namespace

double JobStore::SpaceAmp() const {
  uint64_t user = 0;
  for (const rel::Table* t : catalog->tables()) user += t->data_bytes();
  return user > 0 ? static_cast<double>(storage->TotalBytes()) /
                        static_cast<double>(user)
                  : 0;
}

std::unique_ptr<JobStore> BuildJobStore(SpanLog* log) {
  auto s = std::make_unique<JobStore>();
  ConfigurePaperProportions(s.get());
  s->storage = std::make_unique<lsm::VirtualStorage>(&s->hw);
  lsm::DBOptions db_opts;
  db_opts.memtable_bytes = 512 << 10;
  db_opts.l1_target_bytes = 4ull << 20;
  s->db = std::make_unique<lsm::DB>(s->storage.get(), db_opts);
  s->catalog = std::make_unique<rel::Catalog>(s->db.get());

  job::JobDataOptions data;
  data.scale = kJobScale;
  data.seed = kJobDataSeed;
  WallClock::time_point t0 = WallClock::now();
  {
    ScopedSpan span(log, "job.build", 0);
    Status st = job::BuildJobDatabase(s->catalog.get(), data);
    if (!st.ok()) Die("building the JOB database failed", st);
  }
  WallClock::time_point t1 = WallClock::now();
  {
    ScopedSpan span(log, "lsm.open_readers", 0);
    s->db->OpenAllReaders();
  }
  WallClock::time_point t2 = WallClock::now();
  s->build_s = SecondsBetween(t0, t1);
  s->open_readers_s = SecondsBetween(t1, t2);

  s->planner = std::make_unique<hybrid::Planner>(s->catalog.get(), &s->hw,
                                                 s->planner_config);
  s->executor = std::make_unique<hybrid::HybridExecutor>(
      s->catalog.get(), s->storage.get(), &s->hw, s->planner_config);
  return s;
}

ResultDigest DigestRows(const std::vector<std::string>& rows) {
  ResultDigest d;
  d.rows = rows.size();
  for (const std::string& row : rows) d.hash += Hash64(row.data(), row.size());
  return d;
}

std::vector<ResultDigest> HostOnlyReference(const JobStore& store,
                                            bool corrupt_first) {
  std::vector<ResultDigest> ref;
  hybrid::ExecChoice host_only;
  host_only.strategy = hybrid::Strategy::kHostNative;
  for (const job::JobQueryId& id : job::AllJobQueries()) {
    Result<hybrid::Query> q = job::MakeJobQuery(id);
    if (!q.ok()) Die("building a JOB query failed", q.status());
    Result<hybrid::Plan> plan = store.planner->PlanQuery(*q);
    if (!plan.ok()) Die("planning the reference failed", plan.status());
    Result<hybrid::RunResult> r = store.executor->Run(*plan, host_only);
    if (!r.ok()) Die("running the host-only reference failed", r.status());
    ref.push_back(DigestRows(r->rows));
  }
  if (corrupt_first && !ref.empty()) ref[0].hash ^= 1;
  return ref;
}

QueryStream::QueryStream(uint64_t seed, size_t num_queries)
    : rng_(seed), order_(num_queries), pos_(num_queries) {
  for (size_t i = 0; i < num_queries; ++i) order_[i] = i;
}

size_t QueryStream::Next() {
  if (pos_ == order_.size()) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
    }
    pos_ = 0;
  }
  return order_[pos_++];
}

RunClass ClassOf(const hybrid::ExecChoice& choice) {
  switch (choice.strategy) {
    case hybrid::Strategy::kHostBlk:
    case hybrid::Strategy::kHostNative:
      return RunClass::kHost;
    case hybrid::Strategy::kFullNdp:
      return RunClass::kNdp;
    case hybrid::Strategy::kHybrid:
      break;
  }
  return choice.split_joins == 0 ? RunClass::kH0 : RunClass::kHk;
}

void SimTally::Add(const hybrid::RunResult& r) {
  total_ms.push_back(r.total_ms());
  stages.ndp_setup += r.host_stages.ndp_setup;
  stages.initial_wait += r.host_stages.initial_wait;
  stages.later_waits += r.host_stages.later_waits;
  stages.result_transfer += r.host_stages.result_transfer;
  stages.processing += r.host_stages.processing;
  device_busy_ns += r.device_busy_ns;
  device_stall_ns += r.device_stall_ns;
  rows_shipped += r.device_rows;
  bytes_shipped += r.transferred_bytes;
  if (ClassOf(r.choice) != RunClass::kHost && !r.fell_back) ++invocations;
  batches += static_cast<uint64_t>(r.num_batches);
  if (r.fell_back) ++fallbacks;
  host.Merge(r.host_counters);
  device.Merge(r.device_counters);
}

void SimTally::Merge(const SimTally& o) {
  total_ms.insert(total_ms.end(), o.total_ms.begin(), o.total_ms.end());
  stages.ndp_setup += o.stages.ndp_setup;
  stages.initial_wait += o.stages.initial_wait;
  stages.later_waits += o.stages.later_waits;
  stages.result_transfer += o.stages.result_transfer;
  stages.processing += o.stages.processing;
  device_busy_ns += o.device_busy_ns;
  device_stall_ns += o.device_stall_ns;
  rows_shipped += o.rows_shipped;
  bytes_shipped += o.bytes_shipped;
  invocations += o.invocations;
  batches += o.batches;
  fallbacks += o.fallbacks;
  host.Merge(o.host);
  device.Merge(o.device);
}

void SimTally::Export(PhaseResult* out) const {
  auto& v = out->values;
  const double runs = total_ms.empty() ? 1.0 : total_ms.size();
  double sum_ms = 0;
  for (double ms : total_ms) sum_ms += ms;
  v["sim_mean_ms"] = sum_ms / runs;
  v["sim_p99_ms"] = Quantile(total_ms, 0.99);
  v["sim.p50_ms"] = Quantile(total_ms, 0.50);
  const double per_run_ms = 1.0 / (runs * kNanosPerMilli);
  v["coop.setup_ms"] = stages.ndp_setup * per_run_ms;
  v["coop.initial_wait_ms"] = stages.initial_wait * per_run_ms;
  v["coop.later_wait_ms"] = stages.later_waits * per_run_ms;
  v["coop.transfer_ms"] = stages.result_transfer * per_run_ms;
  v["coop.processing_ms"] = stages.processing * per_run_ms;
  v["ndp.busy_ms"] = device_busy_ns * per_run_ms;
  v["ndp.stall_ms"] = device_stall_ns * per_run_ms;
  v["ndp.stall_ratio"] =
      device_busy_ns > 0 ? device_stall_ns / device_busy_ns : 0;
  v["ndp.rows_shipped"] = static_cast<double>(rows_shipped);
  v["ndp.bytes_shipped"] = static_cast<double>(bytes_shipped);
  v["ndp.invocations"] = static_cast<double>(invocations);
  v["ndp.batches"] = static_cast<double>(batches);
  v["hybrid.fallbacks"] = static_cast<double>(fallbacks);
  using sim::CostKind;
  v["sim.host.flash_load_bytes"] = host.Units(CostKind::kFlashLoad);
  v["sim.dev.flash_load_bytes"] = device.Units(CostKind::kFlashLoad);
  v["sim.dev.memcmp_bytes"] = device.Units(CostKind::kMemcmp);
  v["sim.dev.compare_internal_keys"] =
      device.Units(CostKind::kCompareInternalKeys);
  v["sim.host.hash_probe"] = host.Units(CostKind::kHashProbe);
  v["sim.host.record_eval"] = host.Units(CostKind::kRecordEval);
  v["sim.host.copy_bytes"] = host.Units(CostKind::kCopy);
}

SstStats SstStats::Of(const lsm::DB& db) {
  obs::MetricsRegistry m;
  db.ExportMetrics(&m);
  SstStats s;
  s.block_reads = m.CounterValue("lsm.sst.block_reads");
  s.block_read_bytes = m.CounterValue("lsm.sst.block_read_bytes");
  s.cache_hits = m.CounterValue("lsm.sst.block_cache_hits");
  s.index_loads = m.CounterValue("lsm.sst.index_loads");
  return s;
}

void ExportSstDelta(const SstStats& before, const SstStats& after,
                    PhaseResult* out) {
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  out->values["lsm.sst.block_reads"] =
      delta(before.block_reads, after.block_reads);
  out->values["lsm.sst.block_read_bytes"] =
      delta(before.block_read_bytes, after.block_read_bytes);
  out->values["lsm.sst.index_loads"] =
      delta(before.index_loads, after.index_loads);
}

}  // namespace hybridndp::perfbench
