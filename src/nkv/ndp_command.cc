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

uint64_t NdpCommand::ReservedBufferBytes() const {
  const size_t index_scans = static_cast<size_t>(
      std::count_if(tables.begin(), tables.end(),
                    [](const NdpTableAccess& t) { return t.use_index_scan; }));
  return nkv::ReservedBufferBytes(buffers, tables.size(), index_scans,
                                  joins.size());
}

exec::OperatorPtr BuildScan(const NdpTableAccess& access,
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

exec::OperatorPtr BuildJoin(exec::OperatorPtr outer, const NdpJoinStage& stage,
                            const NdpTableAccess& inner_access,
                            const rel::TableAccessor* accessor,
                            const lsm::ReadOptions& opts,
                            uint64_t join_buffer_bytes) {
  switch (stage.algo) {
    case JoinAlgo::kBNLJI: {
      exec::OperatorPtr join = std::make_unique<exec::BlockNLIndexJoinOp>(
          std::move(outer), stage.outer_key_col, accessor, inner_access.alias,
          stage.inner_join_col, opts, inner_access.predicate,
          inner_access.projection, join_buffer_bytes, opts.ctx);
      if (stage.residual == nullptr) return join;
      return std::make_unique<exec::FilterOp>(std::move(join), stage.residual,
                                              opts.ctx);
    }
    case JoinAlgo::kBNLJ:
      return std::make_unique<exec::BlockNLJoinOp>(
          std::move(outer), BuildScan(inner_access, accessor, opts),
          stage.keys, stage.residual, join_buffer_bytes, opts.ctx);
    case JoinAlgo::kNLJ:
      return std::make_unique<exec::NestedLoopJoinOp>(
          std::move(outer), BuildScan(inner_access, accessor, opts),
          stage.keys, stage.residual, opts.ctx);
    case JoinAlgo::kGHJ:
      break;
  }
  return std::make_unique<exec::GraceHashJoinOp>(
      std::move(outer), BuildScan(inner_access, accessor, opts), stage.keys,
      stage.residual, /*num_partitions=*/8, opts.ctx);
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

DeviceTableAccessor::DeviceTableAccessor(const lsm::VirtualStorage* storage,
                                         const NdpTableAccess* access)
    : storage_(storage), access_(access) {}

lsm::SstReader* DeviceTableAccessor::GetReader(
    const lsm::FileMetaData& meta) const {
  auto it = readers_.find(meta.file_id);
  if (it != readers_.end()) return it->second.get();
  auto reader = std::make_unique<lsm::SstReader>(storage_, meta);
  lsm::SstReader* raw = reader.get();
  readers_[meta.file_id] = std::move(reader);
  return raw;
}

Status DeviceTableAccessor::GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                                    std::string* row) const {
  std::string pk_key;
  PutOrderedInt32(&pk_key, pk);
  lsm::ReadOptions snap_opts = opts;
  if (snap_opts.snapshot == lsm::kMaxSequenceNumber) {
    snap_opts.snapshot = access_->primary.sequence;
  }
  const lsm::CfSnapshot& snap = access_->primary;
  return lsm::SnapshotGet(
      snap.mem, snap.version, snap_opts, Slice(pk_key), row,
      [this](const lsm::FileMetaData& meta) { return GetReader(meta); });
}

lsm::IteratorPtr DeviceTableAccessor::NewScanIterator(
    const lsm::ReadOptions& opts) const {
  const lsm::SequenceNumber seq = opts.snapshot == lsm::kMaxSequenceNumber
                                      ? access_->primary.sequence
                                      : opts.snapshot;
  auto internal = lsm::NewSnapshotInternalIterator(
      access_->primary, opts.ctx, opts.cache,
      [this](const lsm::FileMetaData& meta) { return GetReader(meta); });
  return lsm::NewUserKeyIterator(std::move(internal), seq, opts.ctx);
}

lsm::IteratorPtr DeviceTableAccessor::NewIndexIterator(
    const lsm::ReadOptions& opts, size_t index_no) const {
  if (index_no >= access_->indexes.size()) {
    return std::make_unique<lsm::EmptyIterator>();
  }
  const auto& snap = access_->indexes[index_no];
  const lsm::SequenceNumber seq =
      opts.snapshot == lsm::kMaxSequenceNumber ? snap.sequence : opts.snapshot;
  auto internal = lsm::NewSnapshotInternalIterator(
      snap, opts.ctx, opts.cache,
      [this](const lsm::FileMetaData& meta) { return GetReader(meta); });
  return lsm::NewUserKeyIterator(std::move(internal), seq, opts.ctx);
}

uint64_t DeviceTableAccessor::row_count() const {
  uint64_t total = access_->primary.version.TotalEntries();
  if (access_->primary.mem != nullptr) {
    total += access_->primary.mem->num_entries();
  }
  return total;
}

void AttachSnapshots(const rel::Table& table, NdpTableAccess* access) {
  access->table_name = table.name();
  access->def = table.def();
  access->primary = table.db()->GetCfSnapshot(table.primary_cf());
  for (size_t i = 0; i < table.def().indexes.size(); ++i) {
    access->indexes.push_back(table.db()->GetCfSnapshot(table.index_cf(i)));
  }
}

NdpTableAccess SnapshotTable(const rel::Table& table, std::string alias) {
  NdpTableAccess access;
  access.alias = std::move(alias);
  AttachSnapshots(table, &access);
  return access;
}

}  // namespace hybridndp::nkv
