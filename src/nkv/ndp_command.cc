#include "nkv/ndp_command.h"

#include <algorithm>

namespace hybridndp::nkv {

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kNLJ:
      return "NLJ";
    case JoinAlgo::kBNLJ:
      return "BNLJ";
    case JoinAlgo::kBNLJI:
      return "BNLJI";
    case JoinAlgo::kGHJ:
      return "GHJ";
  }
  return "?";
}

uint64_t ReservedBufferBytes(const NdpBufferConfig& buffers, size_t num_tables,
                             size_t num_index_scans, size_t num_joins) {
  return (num_tables + num_index_scans) * buffers.selection_buffer_bytes +
         num_joins * buffers.join_buffer_bytes +
         static_cast<uint64_t>(buffers.shared_slots) *
             buffers.shared_slot_bytes;
}

Status CheckBufferConfig(const NdpBufferConfig& buffers) {
  if (buffers.selection_buffer_bytes == 0 || buffers.join_buffer_bytes == 0 ||
      buffers.shared_slot_bytes == 0 || buffers.shared_slots < 1) {
    return Status::InvalidArgument(
        "NDP buffers need positive sizes and at least one shared slot");
  }
  return Status::OK();
}

uint64_t NdpCommand::ReservedBufferBytes() const {
  const size_t index_scans = static_cast<size_t>(
      std::count_if(tables.begin(), tables.end(),
                    [](const NdpTableAccess& t) { return t.use_index_scan; }));
  return nkv::ReservedBufferBytes(buffers, tables.size(), index_scans,
                                  joins.size());
}

exec::OperatorPtr BuildScan(const TableAccess& access,
                            const rel::TableAccessor* accessor,
                            const lsm::ReadOptions& opts) {
  if (access.use_index_scan) {
    return std::make_unique<exec::IndexScanOp>(
        accessor, access.alias, access.index_no, opts, access.index_lo,
        access.index_hi, access.predicate, access.projection);
  }
  return std::make_unique<exec::TableScanOp>(accessor, access.alias, opts,
                                             access.predicate,
                                             access.projection);
}

exec::OperatorPtr JoinInputs(exec::OperatorPtr outer, exec::OperatorPtr inner,
                             JoinAlgo algo,
                             const std::vector<exec::JoinKey>& keys,
                             uint64_t join_buffer_bytes,
                             sim::AccessContext* ctx) {
  switch (algo) {
    case JoinAlgo::kNLJ:
      return std::make_unique<exec::NestedLoopJoinOp>(
          std::move(outer), std::move(inner), keys, ctx);
    case JoinAlgo::kGHJ:
      return std::make_unique<exec::GraceHashJoinOp>(
          std::move(outer), std::move(inner), keys, /*num_partitions=*/8,
          ctx);
    case JoinAlgo::kBNLJ:
    case JoinAlgo::kBNLJI:
      break;
  }
  return std::make_unique<exec::BlockNLJoinOp>(
      std::move(outer), std::move(inner), keys, join_buffer_bytes, ctx);
}

exec::OperatorPtr BuildJoin(exec::OperatorPtr outer, const NdpJoinStage& stage,
                            const TableAccess& inner_access,
                            const rel::TableAccessor* accessor,
                            const lsm::ReadOptions& opts,
                            uint64_t join_buffer_bytes) {
  if (stage.algo != JoinAlgo::kBNLJI) {
    return JoinInputs(std::move(outer), BuildScan(inner_access, accessor, opts),
                      stage.algo, stage.keys, join_buffer_bytes, opts.ctx);
  }
  exec::OperatorPtr join = std::make_unique<exec::BlockNLIndexJoinOp>(
      std::move(outer), stage.outer_key_col, accessor, inner_access.alias,
      stage.inner_join_col, opts, inner_access.predicate,
      inner_access.projection, join_buffer_bytes, opts.ctx);
  if (stage.residual == nullptr) return join;
  return std::make_unique<exec::FilterOp>(std::move(join), stage.residual,
                                          opts.ctx);
}

exec::OperatorPtr BuildRoot(exec::OperatorPtr acc, bool has_agg,
                            const std::vector<std::string>& group_cols,
                            const std::vector<exec::AggSpec>& aggs,
                            const std::vector<std::string>& projection,
                            sim::AccessContext* ctx) {
  if (has_agg) {
    return std::make_unique<exec::GroupByAggOp>(std::move(acc), group_cols,
                                                aggs, ctx);
  }
  if (!projection.empty()) {
    return std::make_unique<exec::ProjectOp>(std::move(acc), projection, ctx);
  }
  return acc;
}

DeviceTableAccessor::DeviceTableAccessor(
    const lsm::VirtualStorage* storage, const NdpTableAccess* access,
    const std::vector<size_t>& indexes_read)
    : access_(access), index_readable_(access->indexes.size(), false) {
  readers_.AddFiles(storage, access->primary.version);
  for (size_t index_no : indexes_read) {
    if (index_no >= index_readable_.size() || index_readable_[index_no]) {
      continue;
    }
    index_readable_[index_no] = true;
    readers_.AddFiles(storage, access->indexes[index_no].version);
  }
}

namespace {

/// `opts` with kMaxSequenceNumber resolved to the shipped snapshot's.
lsm::ReadOptions AtSnapshot(lsm::ReadOptions opts,
                            const lsm::CfSnapshot& snap) {
  if (opts.snapshot == lsm::kMaxSequenceNumber) opts.snapshot = snap.sequence;
  return opts;
}

}  // namespace

Status DeviceTableAccessor::GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                                    Slice* row) const {
  char pk_key[4];
  EncodeOrderedInt32To(pk_key, pk);
  const lsm::CfSnapshot& snap = access_->primary;
  return lsm::SnapshotGet(*snap.mem, snap.version, readers_,
                          AtSnapshot(opts, snap),
                          Slice(pk_key, sizeof(pk_key)), row);
}

lsm::IteratorPtr DeviceTableAccessor::NewScanIterator(
    const lsm::ReadOptions& opts) const {
  const lsm::CfSnapshot& snap = access_->primary;
  return lsm::NewSnapshotIterator(*snap.mem, snap.version, readers_,
                                  AtSnapshot(opts, snap));
}

lsm::IteratorPtr DeviceTableAccessor::NewIndexIterator(
    const lsm::ReadOptions& opts, size_t index_no) const {
  if (index_no >= index_readable_.size() || !index_readable_[index_no]) {
    return std::make_unique<lsm::EmptyIterator>(Status::InvalidArgument(
        "index " + std::to_string(index_no) + " of " + access_->alias +
        " is not read by the command"));
  }
  const lsm::CfSnapshot& snap = access_->indexes[index_no];
  return lsm::NewSnapshotIterator(*snap.mem, snap.version, readers_,
                                  AtSnapshot(opts, snap));
}

NdpTableAccess SnapshotTable(const rel::Table& table, TableAccess access) {
  NdpTableAccess shipped;
  static_cast<TableAccess&>(shipped) = std::move(access);
  shipped.def = table.def();
  shipped.primary = table.db()->GetCfSnapshot(table.primary_cf());
  for (size_t i = 0; i < table.def().indexes.size(); ++i) {
    shipped.indexes.push_back(table.db()->GetCfSnapshot(table.index_cf(i)));
  }
  return shipped;
}

}  // namespace hybridndp::nkv
