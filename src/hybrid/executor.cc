#include "hybrid/executor.h"

#include <algorithm>

#include "sim/fault.h"

namespace hybridndp::hybrid {

namespace {

/// Default NDP-command setup latency on the host (command preparation, data
/// dictionary lookups, invocation; paper Table 4: negligible share).
constexpr SimNanos kNdpSetupNs = 121'000;

/// Conjunction of extra join edges as a post-join filter expression.
exec::Expr::Ptr ExtraEdgeFilter(const std::vector<exec::JoinKey>& edges) {
  if (edges.empty()) return nullptr;
  std::vector<exec::Expr::Ptr> cmps;
  for (const auto& e : edges) {
    cmps.push_back(
        exec::Expr::CmpCol(e.left_col, exec::CmpOp::kEq, e.right_col));
  }
  if (cmps.size() == 1) return cmps[0];
  return exec::Expr::And(std::move(cmps));
}

/// The table access of plan position `i`: alias, early selection and
/// projection, and the chosen access path. Carries no snapshots; the NDP
/// command attaches them for the tables it ships.
nkv::NdpTableAccess TableAccessAt(const Plan& plan, size_t i) {
  const PlannedTable& pt = plan.order[i];
  const TableRef& ref = plan.query.tables[pt.query_table_idx];
  nkv::NdpTableAccess access;
  access.alias = ref.alias;
  access.predicate = ref.predicate;
  access.projection = pt.projection;
  access.use_index_scan = pt.access.use_index;
  access.index_no = pt.access.index_no;
  access.index_lo = pt.access.lo;
  access.index_hi = pt.access.hi;
  return access;
}

/// The join stage that adds plan position `i` (>= 1) to the prefix. BNLJI
/// joins on one edge and filters the remaining ones afterwards.
nkv::NdpJoinStage JoinStageAt(const Plan& plan, size_t i) {
  const PlannedTable& pt = plan.order[i];
  nkv::NdpJoinStage stage;
  stage.algo = pt.algo;
  stage.keys = pt.keys;
  stage.outer_key_col = pt.outer_key_col;
  stage.inner_join_col = pt.inner_join_col;
  if (pt.algo == nkv::JoinAlgo::kBNLJI) {
    stage.residual = ExtraEdgeFilter(pt.extra_edges);
  }
  return stage;
}

/// Per-run copy of a plan with its predicate trees deep-cloned. Bind()
/// writes resolved column indexes into the shared Expr nodes, so plans
/// executing concurrently must not share them.
Plan ClonePlanExprs(const Plan& plan) {
  Plan copy = plan;
  for (auto& table : copy.query.tables) {
    if (table.predicate != nullptr) {
      table.predicate = table.predicate->Clone();
    }
  }
  return copy;
}

/// Label for one run's tracks and metric prefixes. The cache-format
/// override is part of the identity (Table-3 benches run the same choice
/// under both formats), so runs never share a metric prefix within one
/// RunAll fan-out.
std::string RunLabel(const ExecChoice& choice) {
  std::string label = choice.ToString();
  if (choice.cache_format != 0) {
    label += "/cf" + std::to_string(choice.cache_format);
  }
  return label;
}

/// Preorder walk of a finished PQEP recording rows-produced per operator as
/// gauge counters `<label>.op_rows.<idx> <Describe>`. The index keeps
/// duplicate operator names (e.g. two BNLJ stages) distinct and encodes the
/// deterministic preorder position.
void RecordOperatorRows(obs::MetricsRegistry* metrics, const std::string& label,
                        const exec::Operator& root) {
  size_t idx = 0;
  const std::function<void(const exec::Operator&)> visit =
      [&](const exec::Operator& op) {
        metrics
            ->counter(label + ".op_rows." + std::to_string(idx++) + " " +
                      op.Describe())
            ->Set(op.rows_produced());
        op.ForEachChild(visit);
      };
  visit(root);
}

/// End-of-run metric export common to all strategies: per-operator row
/// gauges and (when a host cache was used) block-cache tallies.
void ExportRunMetrics(obs::TraceRecorder* rec, const std::string& label,
                      const exec::Operator& root,
                      const lsm::BlockCache* cache) {
  if (rec == nullptr) return;
  RecordOperatorRows(rec->metrics(), label, root);
  if (cache != nullptr) cache->ExportMetrics(rec->metrics(), label + ".cache");
}

}  // namespace

std::vector<ExecChoice> HybridExecutor::AllChoices(const Plan& plan) {
  std::vector<ExecChoice> out;
  out.push_back({Strategy::kHostBlk, 0});
  out.push_back({Strategy::kHostNative, 0});
  const int n = plan.num_tables();
  for (int k = 0; k <= n - 2; ++k) {
    out.push_back({Strategy::kHybrid, k});
  }
  out.push_back({Strategy::kFullNdp, 0});
  return out;
}

exec::OperatorPtr HybridExecutor::BuildHostSuffix(
    const Plan& plan, size_t from, exec::OperatorPtr acc,
    const lsm::ReadOptions& opts) const {
  for (size_t i = from; i < plan.order.size(); ++i) {
    acc = nkv::BuildJoin(std::move(acc), JoinStageAt(plan, i),
                         TableAccessAt(plan, i), plan.order[i].table, opts,
                         config_.host_join_buffer_bytes);
  }
  return nkv::BuildRoot(std::move(acc), plan.query.has_agg,
                        plan.query.group_cols, plan.query.aggs,
                        plan.query.select_columns, opts.ctx);
}

Result<RunResult> HybridExecutor::RunHostOnly(const Plan& plan,
                                              const ExecChoice& choice,
                                              lsm::BlockCache* cache,
                                              obs::TraceRecorder* rec,
                                              SimNanos fallback_wasted_ns,
                                              Status fault_status) const {
  const bool fallback = !fault_status.ok();
  const sim::IoPath path = choice.strategy == Strategy::kHostBlk
                               ? sim::IoPath::kBlk
                               : sim::IoPath::kNative;
  sim::AccessContext ctx(hw_, sim::Actor::kHost, path);
  if (fallback) {
    // The aborted device-assisted attempt burned this much simulated time
    // before the failure surfaced; the host-only re-execution starts after
    // it (latency only — no work counters, mirroring the setup charge).
    ctx.ChargeLatency(fallback_wasted_ns);
  }

  lsm::ReadOptions opts;
  opts.ctx = &ctx;
  opts.cache = cache;
  exec::OperatorPtr root = BuildHostSuffix(
      plan, 1,
      nkv::BuildScan(TableAccessAt(plan, 0), plan.order[0].table, opts), opts);
  HNDP_ASSIGN_OR_RETURN(std::vector<std::string> rows,
                        exec::CollectAll(root.get(), config_.exec_batch_rows));

  RunResult result;
  result.choice = choice;
  result.schema = root->output_schema();
  result.rows = std::move(rows);
  result.host_counters = ctx.counters();
  result.host_stages.processing = ctx.counters().TotalTime();
  result.total_ns = ctx.now();
  if (fallback) {
    result.fell_back = true;
    result.fault_wasted_ns = fallback_wasted_ns;
    result.fault_status = fault_status;
    // Table-4 accounting for the degraded run: the wasted attempt precedes
    // all host processing and is charged to the setup stage, keeping
    // stages.total() == total_ns.
    result.host_stages.ndp_setup = fallback_wasted_ns;
  }
  if (rec != nullptr) {
    const std::string label = RunLabel(choice);
    result.trace_host_track =
        rec->NewTrack(label + (fallback ? " [host fallback]" : " [host]"));
    if (fallback) {
      rec->Span(result.trace_host_track, "fallback (wasted attempt)", "setup",
                0, fallback_wasted_ns,
                {obs::TraceArg::Str("error", fault_status.ToString())});
      rec->metrics()->counter("hndp.fallback")->Add(1);
      sim::FaultInjector::Global().ExportMetrics(rec->metrics());
    }
    // Host-only runs have a single Table-4 stage: everything is processing
    // (preceded, on the degradation path, by the wasted attempt).
    rec->Span(result.trace_host_track, "processing", "processing",
              fallback ? fallback_wasted_ns : 0, result.total_ns,
              {obs::TraceArg::Num("rows", result.result_rows())});
    ExportRunMetrics(rec, label, *root, cache);
  }
  return result;
}

nkv::NdpCommand HybridExecutor::BuildNdpCommand(const Plan& plan,
                                                int split_joins,
                                                bool full_ndp,
                                                int cache_format) const {
  nkv::NdpCommand cmd;
  cmd.buffers = config_.buffers;
  cmd.force_cache_format = cache_format;
  cmd.scans_only = !full_ndp && split_joins == 0;
  const size_t num_tables = full_ndp || cmd.scans_only
                                ? plan.order.size()
                                : static_cast<size_t>(split_joins) + 1;

  for (size_t i = 0; i < num_tables; ++i) {
    nkv::NdpTableAccess access = TableAccessAt(plan, i);
    nkv::AttachSnapshots(*plan.order[i].table, &access);
    cmd.snapshot = access.primary.sequence;
    cmd.tables.push_back(std::move(access));
    if (!cmd.scans_only && i > 0) cmd.joins.push_back(JoinStageAt(plan, i));
  }
  if (full_ndp) {
    cmd.has_agg = plan.query.has_agg;
    cmd.group_cols = plan.query.group_cols;
    cmd.aggs = plan.query.aggs;
    cmd.output_projection = plan.query.select_columns;
  }
  return cmd;
}

Result<RunResult> HybridExecutor::RunDeviceAssisted(
    const Plan& plan, const ExecChoice& choice, lsm::BlockCache* cache,
    obs::TraceRecorder* rec, SimNanos* fault_wasted_ns) const {
  const bool full_ndp = choice.strategy == Strategy::kFullNdp;
  const int k = choice.split_joins;

  nkv::NdpCommand cmd =
      BuildNdpCommand(plan, k, full_ndp, choice.cache_format);
  ndp::DeviceExecutor device(storage_, hw_);
  HNDP_ASSIGN_OR_RETURN(
      ndp::DeviceRunResult dev,
      device.Execute(cmd, rec != nullptr ? rec->metrics() : nullptr));

  RunResult result;
  result.choice = choice;
  result.device_counters = dev.counters;
  result.device_busy_ns = dev.total_work_ns;
  result.device_rows = dev.total_rows();
  result.transferred_bytes = dev.total_bytes();
  result.num_batches = static_cast<int>(dev.batches.size());
  result.pointer_cache = dev.pointer_cache;

  const std::string label = rec != nullptr ? RunLabel(choice) : std::string();
  int host_track = -1;
  if (rec != nullptr) {
    host_track = rec->NewTrack(label + " [host]");
    result.trace_host_track = host_track;
  }

  sim::AccessContext host_ctx(hw_, sim::Actor::kHost, sim::IoPath::kNative);
  StageTimes& stages = result.host_stages;
  stages.ndp_setup = kNdpSetupNs;
  host_ctx.ChargeLatency(kNdpSetupNs);
  if (rec != nullptr) {
    rec->Span(host_track, "ndp setup", "setup", 0, kNdpSetupNs);
  }

  // Build batch schedules. Pipelined plans have one stream with slot
  // back-pressure; H0 ships every leaf stream eagerly into host memory.
  std::vector<std::vector<ndp::DeviceBatch>> per_stream(
      dev.stream_rows.size());
  if (cmd.scans_only) {
    // Convert global production order into per-stream absolute durations:
    // cumulative work across all streams (single NDP core).
    std::vector<SimNanos> last_done(dev.stream_rows.size(), kNdpSetupNs);
    SimNanos now = kNdpSetupNs;
    for (const auto& b : dev.batches) {
      now += b.work_ns;
      ndp::DeviceBatch adjusted = b;
      adjusted.work_ns = now - last_done[b.stream];
      last_done[b.stream] = now;
      per_stream[b.stream].push_back(adjusted);
    }
  } else {
    per_stream[0] = dev.batches;
  }
  std::vector<std::unique_ptr<BatchSchedule>> schedules;
  for (size_t s = 0; s < per_stream.size(); ++s) {
    schedules.push_back(std::make_unique<BatchSchedule>(
        std::move(per_stream[s]), cmd.buffers.shared_slots, hw_, kNdpSetupNs,
        /*eager=*/cmd.scans_only));
    if (rec != nullptr) {
      // One device track per stream (pipelined plans have exactly one);
      // batch-production and slot-stall spans land there as the host's
      // fetch order forces the lazy schedule to materialize.
      const std::string suffix = per_stream.size() > 1
                                     ? " [device s" + std::to_string(s) + "]"
                                     : " [device]";
      const int device_track = rec->NewTrack(label + suffix);
      if (s == 0) result.trace_device_track = device_track;
      schedules.back()->AttachTrace(rec, host_track, device_track);
    }
    if (!dev.device_status.ok()) {
      // The device died mid-run: batches it produced before the failure are
      // delivered normally, anything past them never arrives. Poisoning (at
      // the device death time, on the host timeline) wakes the consumer
      // instead of letting it stall forever.
      schedules.back()->Poison(kNdpSetupNs + dev.fail_time_ns,
                               dev.device_status);
    }
  }

  // Assemble + run the host PQEP over the first (pipelined: only) stream.
  exec::OperatorPtr root = std::make_unique<StallingSourceOp>(
      dev.stream_schemas[0], &dev.stream_rows[0], schedules[0].get(),
      &host_ctx, &stages);
  if (cmd.scans_only) {
    // H0: every join on the host, over the shipped leaf streams.
    for (size_t i = 1; i < plan.order.size(); ++i) {
      const PlannedTable& pt = plan.order[i];
      auto inner = std::make_unique<StallingSourceOp>(
          dev.stream_schemas[i], &dev.stream_rows[i], schedules[i].get(),
          &host_ctx, &stages);
      // Equi-keys: every edge is in pt.keys regardless of the chosen algo.
      const std::vector<exec::JoinKey>& keys = pt.keys;
      if (keys.empty()) {
        root = std::make_unique<exec::NestedLoopJoinOp>(
            std::move(root), std::move(inner), keys, nullptr, &host_ctx);
      } else {
        root = std::make_unique<exec::BlockNLJoinOp>(
            std::move(root), std::move(inner), keys, nullptr,
            config_.host_join_buffer_bytes, &host_ctx);
      }
    }
  }
  if (!full_ndp) {
    // Host suffix: the joins past the split (none under H0) and the root.
    lsm::ReadOptions opts;
    opts.ctx = &host_ctx;
    opts.cache = cache;
    const size_t from =
        cmd.scans_only ? plan.order.size() : static_cast<size_t>(k) + 1;
    root = BuildHostSuffix(plan, from, std::move(root), opts);
  }

  Result<std::vector<std::string>> rows =
      exec::CollectAll(root.get(), config_.exec_batch_rows);
  Status run_error = rows.ok() ? Status::OK() : rows.status();
  if (!dev.device_status.ok()) {
    // The device death is the root cause: it outranks both a successful
    // drain (a consumer that never pulled past the delivered batches would
    // miss the poison) and any downstream symptom of the truncated streams
    // (e.g. a bind error against a placeholder schema).
    run_error = dev.device_status;
  }
  if (!run_error.ok()) {
    if (fault_wasted_ns != nullptr) *fault_wasted_ns = host_ctx.now();
    return run_error;
  }

  result.schema = root->output_schema();
  result.rows = std::move(*rows);
  result.host_counters = host_ctx.counters();
  stages.processing = host_ctx.counters().TotalTime();
  for (const auto& schedule : schedules) {
    result.device_stall_ns += schedule->device_stall();
  }
  result.total_ns = host_ctx.now();
  if (rec != nullptr) {
    // The host clock only moves through ChargeLatency (setup), Charge*
    // (processing) and AdvanceTo jumps (wait + transfer, recorded by
    // BatchSchedule::Fetch). Setup/wait/transfer spans are disjoint, so the
    // gaps between them are exactly the processing time: the four Table-4
    // categories tile [0, total_ns].
    rec->GapFill(host_track, 0, result.total_ns, "processing", "processing");
    ExportRunMetrics(rec, label, *root, cache);
  }
  return result;
}

Result<RunResult> HybridExecutor::Run(const Plan& plan,
                                      const ExecChoice& choice,
                                      lsm::BlockCache* cache,
                                      obs::TraceRecorder* rec) const {
  if (plan.order.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  switch (choice.strategy) {
    case Strategy::kHostBlk:
    case Strategy::kHostNative:
      return RunHostOnly(plan, choice, cache, rec);
    case Strategy::kFullNdp:
    case Strategy::kHybrid: {
      SimNanos wasted = 0;
      Result<RunResult> r = RunDeviceAssisted(plan, choice, cache, rec,
                                              &wasted);
      if (r.ok()) return r;
      const Status& err = r.status();
      if (!err.IsIOError() && !err.IsAborted()) return r;
      // Graceful degradation (Taurus-style, paper Sect. 5): the pushdown
      // died on a fault-class error — re-plan at the pure-host split and
      // re-execute, carrying the wasted simulated time into the accounting.
      return RunHostOnly(plan, choice, cache, rec, wasted, err);
    }
  }
  return Status::InvalidArgument("bad strategy");
}

std::vector<Result<RunResult>> HybridExecutor::RunAll(
    const Plan& plan, const std::vector<ExecChoice>& choices,
    common::ThreadPool* pool, const CacheFactory& make_cache,
    obs::TraceRecorder* rec) const {
  std::vector<Result<RunResult>> results(choices.size(),
                                         Status::Internal("not run"));
  auto run_one = [&](size_t i) {
    const Plan run_plan = ClonePlanExprs(plan);
    std::unique_ptr<lsm::BlockCache> cache =
        make_cache ? make_cache() : nullptr;
    results[i] = Run(run_plan, choices[i], cache.get(), rec);
  };

  if (pool == nullptr || pool->size() <= 1) {
    for (size_t i = 0; i < choices.size(); ++i) run_one(i);
  } else {
    pool->ParallelFor(choices.size(), run_one);
  }
  return results;
}

}  // namespace hybridndp::hybrid
