#include "ndp/device_executor.h"

#include "sim/fault.h"

namespace hybridndp::ndp {

using exec::OperatorPtr;
using nkv::NdpCommand;

namespace {

/// The secondary indexes the command reads, per table: an IndexScan's index
/// and the index a BNLJI stage probes on its inner table (none when it
/// joins on the primary key). Every other read goes to the primary.
std::vector<std::vector<size_t>> IndexesRead(const NdpCommand& cmd) {
  std::vector<std::vector<size_t>> read(cmd.tables.size());
  for (size_t i = 0; i < cmd.tables.size(); ++i) {
    if (cmd.tables[i].use_index_scan) {
      read[i].push_back(cmd.tables[i].index_no);
    }
  }
  if (cmd.scans_only) return read;
  for (size_t j = 0; j < cmd.joins.size(); ++j) {
    if (cmd.joins[j].algo != nkv::JoinAlgo::kBNLJI) continue;
    const rel::TableDef& def = cmd.tables[j + 1].def;
    const int col = def.schema.Find(cmd.joins[j].inner_join_col);
    const int index_no = def.FindIndexOn(col);
    if (col != def.pk_col && index_no >= 0) {
      read[j + 1].push_back(static_cast<size_t>(index_no));
    }
  }
  return read;
}

}  // namespace

Status DeviceExecutor::CheckResources(const NdpCommand& cmd) const {
  HNDP_RETURN_IF_ERROR(nkv::CheckBufferConfig(cmd.buffers));
  const uint64_t reserved = cmd.ReservedBufferBytes();
  if (reserved > hw_->mem.device_ndp_budget_bytes) {
    return Status::ResourceExhausted(
        "NDP pipeline needs " + std::to_string(reserved >> 10) +
        " KiB, budget is " +
        std::to_string(hw_->mem.device_ndp_budget_bytes >> 10) + " KiB");
  }
  if (cmd.tables.empty()) {
    return Status::InvalidArgument("NDP command without tables");
  }
  if (!cmd.scans_only && cmd.joins.size() + 1 != cmd.tables.size()) {
    return Status::InvalidArgument("NDP pipeline join/table count mismatch");
  }
  if (cmd.scans_only && !cmd.joins.empty()) {
    return Status::InvalidArgument("scans_only command must not carry joins");
  }
  for (const auto& t : cmd.tables) {
    if (t.use_index_scan && (t.index_no >= t.def.indexes.size() ||
                             t.index_no >= t.indexes.size())) {
      return Status::InvalidArgument("index scan on " + t.alias +
                                     " names a missing index");
    }
  }
  return Status::OK();
}

Result<DeviceRunResult> DeviceExecutor::Execute(
    const NdpCommand& cmd, obs::MetricsRegistry* metrics) const {
  HNDP_RETURN_IF_ERROR(CheckResources(cmd));

  DeviceRunResult result;
  // Cache-format switch (paper Sect. 4.2): with > 2 tables the pipeline
  // stores pointers instead of full records in the intermediate caches.
  result.pointer_cache = cmd.force_cache_format == 0
                             ? cmd.tables.size() > 2
                             : cmd.force_cache_format == 2;

  sim::AccessContext ctx(hw_, sim::Actor::kDevice, sim::IoPath::kInternal);
  if (result.pointer_cache) ctx.SetCopyFactor(0.15);

  // The device-side block buffer: index/data blocks staged in temporary
  // storage (sized by the selection buffers).
  lsm::BlockCache device_cache(cmd.buffers.selection_buffer_bytes *
                               std::max<size_t>(1, cmd.tables.size()));

  lsm::ReadOptions opts;
  opts.ctx = &ctx;
  opts.cache = &device_cache;

  // Device-side accessors over the shipped snapshots.
  std::vector<std::unique_ptr<nkv::DeviceTableAccessor>> accessors;
  accessors.reserve(cmd.tables.size());
  const std::vector<std::vector<size_t>> indexes_read = IndexesRead(cmd);
  for (size_t i = 0; i < cmd.tables.size(); ++i) {
    accessors.push_back(std::make_unique<nkv::DeviceTableAccessor>(
        storage_, &cmd.tables[i], indexes_read[i]));
  }

  // Drain one operator into batches of shared-slot granularity. Each pull
  // asks for at most the rows still free in the current slot, so a returned
  // batch never crosses a slot boundary and every DeviceBatch window holds
  // exactly the work behind its rows.
  auto drain = [&](exec::Operator* op, size_t stream) -> Status {
    Status st = op->Open();
    const size_t rs = op->output_schema().row_size();
    exec::RowStore rows;
    rows.Reset(rs);
    // Slot granularity in rows: rows are fixed-size, so a slot of
    // slot_bytes fills after exactly ceil(slot_bytes / row_size) rows.
    const size_t rows_per_slot =
        rs > 0 ? static_cast<size_t>(
                     (cmd.buffers.shared_slot_bytes + rs - 1) / rs)
               : size_t{1};
    uint64_t pending_rows = 0;
    SimNanos mark = ctx.now();
    if (st.ok()) {
      while (exec::RowBatch* b = op->NextBatch(rows_per_slot - pending_rows)) {
        const size_t n = b->num_active();
        // Core 1 copies the root result into a shared-buffer slot (Fig. 8).
        ctx.ChargeCopyRepeated(rs, n);
        for (size_t k = 0; k < n; ++k) rows.Append(b->active_row(k));
        pending_rows += n;
        if (pending_rows == rows_per_slot) {
          result.batches.push_back(DeviceBatch{
              stream, pending_rows, pending_rows * rs, ctx.now() - mark});
          mark = ctx.now();
          pending_rows = 0;
        }
      }
      // nullptr is end-of-stream OR a device-side failure parked in an
      // operator; recover the distinction here.
      st = exec::TreeStatus(*op);
    }
    // Rows produced before a failure stay in the result (partial batches
    // reached the shared buffer before the device died).
    if (pending_rows > 0 || result.batches.empty() ||
        result.batches.back().stream != stream) {
      result.batches.push_back(DeviceBatch{stream, pending_rows,
                                           pending_rows * rs,
                                           ctx.now() - mark});
    }
    result.stream_schemas.push_back(op->output_schema());
    result.stream_rows.push_back(std::move(rows));
    return st;
  };

  // Fault site: the NDP invocation itself (command relay / core-1 dispatch).
  Status exec_status = sim::FaultCheck(sim::FaultSite::kDeviceExec, &ctx);

  if (!exec_status.ok() && cmd.scans_only) {
    // Died before the first leaf: keep the stream layout intact below.
  } else if (cmd.scans_only) {
    // Split H0: every leaf is an independent NDP selection; the single NDP
    // core processes them sequentially in join order.
    for (size_t i = 0; i < cmd.tables.size(); ++i) {
      OperatorPtr scan =
          nkv::BuildScan(cmd.tables[i], accessors[i].get(), opts);
      exec_status = drain(scan.get(), i);
      if (!exec_status.ok()) break;
    }
  } else if (exec_status.ok()) {
    // Left-deep pipeline: scan(t0) join t1 join t2 ... [agg | project].
    OperatorPtr acc = nkv::BuildScan(cmd.tables[0], accessors[0].get(), opts);
    for (size_t j = 0; j < cmd.joins.size(); ++j) {
      acc = nkv::BuildJoin(std::move(acc), cmd.joins[j], cmd.tables[j + 1],
                           accessors[j + 1].get(), opts,
                           cmd.buffers.join_buffer_bytes);
    }
    acc = nkv::BuildRoot(std::move(acc), cmd.has_agg, cmd.group_cols, cmd.aggs,
                         cmd.output_projection, &ctx);
    exec_status = drain(acc.get(), 0);
  }

  if (!exec_status.ok()) {
    // Fault-class failures (injected I/O faults past their retry budget,
    // aborted commands) return a *partial* result: the cooperative layer
    // needs the batches that made it to the shared buffer plus the failure
    // time to poison the remaining schedule. Anything else (planning or
    // resource bugs) is a hard error.
    if (!exec_status.IsIOError() && !exec_status.IsAborted()) {
      return exec_status;
    }
    result.device_status = exec_status;
    result.fail_time_ns = ctx.now();
    if (cmd.scans_only) {
      // Fill the streams the device never reached with empty outputs so the
      // host-side plan shape (one source per table) stays valid. An unopened
      // leaf already knows its output schema and has charged nothing.
      while (result.stream_schemas.size() < cmd.tables.size()) {
        const size_t i = result.stream_schemas.size();
        result.stream_schemas.push_back(
            nkv::BuildScan(cmd.tables[i], accessors[i].get(), opts)
                ->output_schema());
        result.stream_rows.emplace_back();
      }
    } else if (result.stream_schemas.empty()) {
      result.stream_schemas.emplace_back();
      result.stream_rows.emplace_back();
    }
  }

  result.counters = ctx.counters();
  result.total_work_ns = ctx.now();

  if (metrics != nullptr) {
    metrics->counter("ndp.invocations")->Add(1);
    metrics->counter("ndp.tables")->Add(cmd.tables.size());
    metrics->counter("ndp.result_rows")->Add(result.total_rows());
    metrics->counter("ndp.result_bytes")->Add(result.total_bytes());
    metrics->counter("ndp.batches")->Add(result.batches.size());
    if (result.pointer_cache) metrics->counter("ndp.pointer_cache_runs")->Add(1);
    obs::Histogram* batch_rows = metrics->histogram("ndp.batch_rows");
    obs::Histogram* batch_bytes = metrics->histogram("ndp.batch_bytes");
    for (const auto& b : result.batches) {
      batch_rows->Record(static_cast<double>(b.rows));
      batch_bytes->Record(static_cast<double>(b.bytes));
    }
    for (int i = 0; i < sim::kNumCostKinds; ++i) {
      const auto kind = static_cast<sim::CostKind>(i);
      if (result.counters.Units(kind) == 0) continue;
      metrics->counter(std::string("ndp.op_units.") + sim::CostKindName(kind))
          ->Add(result.counters.Units(kind));
    }
  }
  return result;
}

}  // namespace hybridndp::ndp
