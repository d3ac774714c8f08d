#include "exec/operator.h"

namespace hybridndp::exec {

namespace {

/// Resolve equi-join key columns against the two input schemas.
Status ResolveKeys(const std::vector<JoinKey>& keys, const Schema& left,
                   const Schema& right,
                   std::vector<std::pair<int, int>>* out) {
  out->clear();
  for (const auto& key : keys) {
    const int l = left.Find(key.left_col);
    const int r = right.Find(key.right_col);
    if (l < 0) {
      return Status::InvalidArgument("join key not in left: " + key.left_col);
    }
    if (r < 0) {
      return Status::InvalidArgument("join key not in right: " +
                                     key.right_col);
    }
    if (left.column(l).size != right.column(r).size) {
      return Status::InvalidArgument("join key width mismatch: " +
                                     key.left_col + " vs " + key.right_col);
    }
    out->push_back({l, r});
  }
  return Status::OK();
}

/// Concatenate two rows into a pre-sized batch slot, charging one copy.
void ConcatRowsInto(const Schema& left, const Schema& right, const char* lrow,
                    const char* rrow, char* dst, sim::AccessContext* ctx) {
  CopyBytes(dst, lrow, left.row_size());
  CopyBytes(dst + left.row_size(), rrow, right.row_size());
  if (ctx != nullptr) ctx->ChargeCopy(left.row_size() + right.row_size());
}

std::vector<int> LeftCols(const std::vector<std::pair<int, int>>& kc) {
  std::vector<int> out;
  for (const auto& [l, r] : kc) out.push_back(l);
  return out;
}
std::vector<int> RightCols(const std::vector<std::pair<int, int>>& kc) {
  std::vector<int> out;
  for (const auto& [l, r] : kc) out.push_back(r);
  return out;
}

/// Rows to request from an outer input so a block stops exactly at its
/// byte threshold: never an outer row past the block.
size_t BlockPullRows(uint64_t buffer_bytes, uint64_t bytes, size_t row_size) {
  const uint64_t need = row_size > 0
                            ? (buffer_bytes - bytes + row_size - 1) / row_size
                            : uint64_t{1};
  return static_cast<size_t>(need < uint64_t{4096} ? need : uint64_t{4096});
}

}  // namespace

void KeyBytesInto(const Schema& schema, const std::vector<int>& cols,
                  const char* row, std::string* out) {
  out->clear();
  for (int c : cols) {
    out->append(row + schema.offset(c), schema.column(c).size);
  }
}

// ----------------------------------------------------------- NestedLoopJoin

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr outer, OperatorPtr inner,
                                   std::vector<JoinKey> keys,
                                   sim::AccessContext* ctx)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      keys_(std::move(keys)),
      ctx_(ctx) {}

Status NestedLoopJoinOp::Open() {
  status_ = Status::OK();
  HNDP_RETURN_IF_ERROR(outer_->Open());
  HNDP_RETURN_IF_ERROR(inner_->Open());
  HNDP_RETURN_IF_ERROR(ResolveKeys(keys_, outer_->output_schema(),
                                   inner_->output_schema(), &key_cols_));
  out_schema_ =
      Schema::Concat(outer_->output_schema(), inner_->output_schema());
  have_outer_ = false;
  inner_batch_ = nullptr;
  inner_pos_ = 0;
  return Status::OK();
}

RowBatch* NestedLoopJoinOp::NextBatch(size_t max_rows) {
  const Schema& lschema = outer_->output_schema();
  const Schema& rschema = inner_->output_schema();
  batch_.Reset(&out_schema_, max_rows);
  while (true) {
    if (!have_outer_) {
      RowBatch* ob = outer_->NextBatch(1);
      if (ob == nullptr) return nullptr;
      if (ob->num_active() == 0) continue;
      outer_row_.assign(ob->active_row(0), lschema.row_size());
      have_outer_ = true;
      inner_batch_ = nullptr;
      inner_pos_ = 0;
      Status s = inner_->Open();
      if (!s.ok()) {
        status_ = std::move(s);
        return nullptr;
      }
    }
    while (inner_batch_ != nullptr && inner_pos_ < inner_batch_->num_active()) {
      if (batch_.full()) return &batch_;
      const char* inner_row = inner_batch_->active_row(inner_pos_++);
      // Compare all key columns byte-wise.
      bool match = true;
      for (const auto& [l, r] : key_cols_) {
        const uint32_t width = lschema.column(l).size;
        if (ctx_ != nullptr) ctx_->Charge(sim::CostKind::kMemcmp, width);
        if (memcmp(outer_row_.data() + lschema.offset(l),
                   inner_row + rschema.offset(r), width) != 0) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      ConcatRowsInto(lschema, rschema, outer_row_.data(), inner_row,
                     batch_.AppendRow(), ctx_);
      ++rows_produced_;
    }
    // No child pull after rows were placed: return the partial batch.
    if (batch_.num_active() > 0) return &batch_;
    inner_batch_ = inner_->NextBatch(batch_.capacity());
    inner_pos_ = 0;
    if (inner_batch_ == nullptr) have_outer_ = false;  // advance outer
  }
}

// --------------------------------------------------------------- BlockNLJoin

BlockNLJoinOp::BlockNLJoinOp(OperatorPtr outer, OperatorPtr inner,
                             std::vector<JoinKey> keys, uint64_t buffer_bytes,
                             sim::AccessContext* ctx)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      keys_(std::move(keys)),
      buffer_bytes_(buffer_bytes),
      ctx_(ctx) {}

Status BlockNLJoinOp::Open() {
  status_ = Status::OK();
  if (buffer_bytes_ == 0) {
    return Status::InvalidArgument("BNLJ: zero-byte join buffer");
  }
  HNDP_RETURN_IF_ERROR(outer_->Open());
  HNDP_RETURN_IF_ERROR(inner_->Open());
  HNDP_RETURN_IF_ERROR(ResolveKeys(keys_, outer_->output_schema(),
                                   inner_->output_schema(), &key_cols_));
  block_.Reset(outer_->output_schema(), LeftCols(key_cols_));
  inner_key_ = KeyLayout(inner_->output_schema(), RightCols(key_cols_));
  out_schema_ =
      Schema::Concat(outer_->output_schema(), inner_->output_schema());
  outer_exhausted_ = false;
  block_active_ = false;
  match_ = JoinTable::kNone;
  blocks_ = 0;
  inner_batch_ = nullptr;
  inner_pos_ = 0;
  inner_row_ptr_ = nullptr;
  return Status::OK();
}

Status BlockNLJoinOp::LoadNextBlock() {
  block_.Clear();
  uint64_t bytes = 0;
  const size_t rs = outer_->output_schema().row_size();
  while (bytes < buffer_bytes_) {
    RowBatch* ob = outer_->NextBatch(BlockPullRows(buffer_bytes_, bytes, rs));
    if (ob == nullptr) break;
    for (size_t k = 0; k < ob->num_active(); ++k) {
      block_.Append(ob->active_row(k));
      bytes += rs;
    }
  }
  if (block_.size() == 0) {
    outer_exhausted_ = true;
    block_active_ = false;
    return Status::OK();
  }
  // One probe emits at most max_fanout_ rows.
  max_fanout_ = block_.Build();
  // Identical build-insert and copy charges for every buffered row: pay
  // them once per block instead of once per row.
  if (ctx_ != nullptr) {
    ctx_->ChargeRepeated(sim::CostKind::kHashBuild, 1, block_.size());
    ctx_->ChargeCopyRepeated(rs, block_.size());
  }
  ++blocks_;
  block_active_ = true;
  match_ = JoinTable::kNone;
  inner_batch_ = nullptr;
  inner_pos_ = 0;
  // Fresh pass over the inner input for this block.
  return inner_->Open();
}

RowBatch* BlockNLJoinOp::NextBatch(size_t max_rows) {
  const Schema& lschema = outer_->output_schema();
  const Schema& rschema = inner_->output_schema();
  batch_.Reset(&out_schema_, max_rows);
  while (true) {
    if (!block_active_) {
      if (batch_.num_active() > 0) return &batch_;
      if (outer_exhausted_) return nullptr;
      Status s = LoadNextBlock();
      if (!s.ok()) {
        status_ = std::move(s);
        return nullptr;
      }
      continue;
    }
    // Emit remaining matches of the current inner row.
    while (match_ != JoinTable::kNone) {
      if (batch_.full()) return &batch_;
      const char* outer_row = block_.row(match_);
      match_ = block_.Next(match_);
      ConcatRowsInto(lschema, rschema, outer_row, inner_row_ptr_,
                     batch_.AppendRow(), ctx_);
      ++rows_produced_;
    }
    if (batch_.full()) return &batch_;
    // Advance the probe cursor within the current inner batch.
    if (inner_batch_ != nullptr && inner_pos_ < inner_batch_->num_active()) {
      inner_row_ptr_ = inner_batch_->active_row(inner_pos_++);
      match_ = block_.Find(inner_key_, inner_row_ptr_);
      continue;
    }
    // Need a fresh probe batch. Return a partial output batch first so no
    // child pull happens after rows were emitted (stall alignment). The
    // batch is empty here, so capping the pull at capacity / max_fanout_
    // rows lets every pulled row be probed before the output fills — and
    // lets the pull pay its probes up front.
    if (batch_.num_active() > 0) return &batch_;
    const size_t cap = batch_.capacity() / max_fanout_;
    inner_batch_ = inner_->NextBatch(cap > 0 ? cap : 1);
    inner_pos_ = 0;
    if (inner_batch_ == nullptr) {
      // Inner exhausted for this block: move to the next outer block.
      block_active_ = false;
    } else if (ctx_ != nullptr) {
      ctx_->ChargeRepeated(sim::CostKind::kHashProbe, 1,
                           inner_batch_->num_active());
    }
  }
}

// --------------------------------------------------------- BlockNLIndexJoin

BlockNLIndexJoinOp::BlockNLIndexJoinOp(
    OperatorPtr outer, std::string outer_key_col, const TableAccessor* inner_table,
    std::string inner_alias, std::string inner_join_col,
    lsm::ReadOptions inner_opts, const Expr::Ptr& inner_residual,
    const std::vector<std::string>& inner_projection, uint64_t buffer_bytes,
    sim::AccessContext* ctx)
    : outer_(std::move(outer)),
      outer_key_col_(std::move(outer_key_col)),
      inner_table_(inner_table),
      inner_join_col_(inner_table->schema().Find(inner_join_col)),
      inner_opts_(inner_opts),
      inner_stage_(inner_table->schema(), std::move(inner_alias),
                   inner_residual, inner_projection),
      buffer_bytes_(buffer_bytes),
      ctx_(ctx) {}

Status BlockNLIndexJoinOp::Open() {
  status_ = Status::OK();
  if (buffer_bytes_ == 0) {
    return Status::InvalidArgument("BNLJI: zero-byte join buffer");
  }
  HNDP_RETURN_IF_ERROR(outer_->Open());
  if (inner_join_col_ < 0) {
    return Status::InvalidArgument("BNLJI: unknown inner join column");
  }
  if (inner_table_->schema().column(inner_join_col_).type !=
      rel::ColType::kInt32) {
    return Status::NotSupported("BNLJI requires an int join column");
  }
  outer_key_idx_ = outer_->output_schema().Find(outer_key_col_);
  if (outer_key_idx_ < 0) {
    return Status::InvalidArgument("BNLJI: unknown outer key column " +
                                   outer_key_col_);
  }
  if (inner_join_col_ == inner_table_->def().pk_col) {
    inner_index_no_ = -1;  // primary-key lookups
  } else {
    inner_index_no_ = inner_table_->FindIndexOn(inner_join_col_);
    if (inner_index_no_ < 0) {
      return Status::InvalidArgument("BNLJI: no index on inner join column");
    }
  }
  HNDP_RETURN_IF_ERROR(inner_stage_.status());
  out_schema_ =
      Schema::Concat(outer_->output_schema(), inner_stage_.out_schema());
  index_iter_.reset();
  if (inner_index_no_ >= 0) {
    index_iter_ = inner_table_->NewIndexIterator(
        inner_opts_, static_cast<size_t>(inner_index_no_));
  }
  block_.Reset(outer_->output_schema().row_size());
  block_pos_ = 0;
  outer_exhausted_ = false;
  matches_.Reset(inner_stage_.out_schema().row_size());
  match_pos_ = 0;
  lookups_ = 0;
  return Status::OK();
}

void BlockNLIndexJoinOp::LoadOuterBlock() {
  block_.Clear();
  block_pos_ = 0;
  uint64_t bytes = 0;
  const size_t rs = outer_->output_schema().row_size();
  while (bytes < buffer_bytes_) {
    RowBatch* ob = outer_->NextBatch(BlockPullRows(buffer_bytes_, bytes, rs));
    if (ob == nullptr) break;
    for (size_t k = 0; k < ob->num_active(); ++k) {
      block_.Append(ob->active_row(k));
      bytes += rs;
    }
    // One identical buffering copy per row, paid per pulled batch.
    if (ctx_ != nullptr) ctx_->ChargeCopyRepeated(rs, ob->num_active());
  }
  if (block_.size() == 0) outer_exhausted_ = true;
}

Status BlockNLIndexJoinOp::FetchMatches(const RowView& outer_row,
                                        sim::ChargeTally* compares) {
  matches_.Clear();
  match_pos_ = 0;
  const int32_t key = outer_row.GetInt(outer_key_idx_);

  auto consider_row = [&](const Slice& base_row) {
    if (ctx_ != nullptr) ctx_->Charge(sim::CostKind::kSelectionProcessing, 1);
    if (!inner_stage_.Keep(base_row.data(), compares)) return;
    inner_stage_.Project(base_row.data(), matches_.AppendRow());
    if (ctx_ != nullptr) ctx_->ChargeCopy(inner_stage_.out_schema().row_size());
  };

  ++lookups_;
  if (inner_index_no_ < 0) {
    // Direct primary-key seek.
    Slice base_row;
    Status s = inner_table_->GetByPk(inner_opts_, key, &base_row);
    if (s.ok()) consider_row(base_row);
    else if (!s.IsNotFound()) return s;
    return Status::OK();
  }

  // Secondary-index path (paper Fig. 9): seek the secondary LSM-tree for all
  // entries with this key, extract the primary keys, then seek each in the
  // primary LSM-tree.
  lsm::Iterator* iter = index_iter_.get();
  iter->Seek(Slice(rel::EncodeIndexPrefixInt(key)));
  while (iter->Valid()) {
    rel::IntIndexKey entry;
    if (!rel::DecodeIntIndexKey(iter->key(), &entry)) {
      return Status::Corruption("malformed index key");
    }
    if (entry.value != key) break;
    Slice base_row;
    Status s = inner_table_->GetByPk(inner_opts_, entry.pk, &base_row);
    if (s.ok()) consider_row(base_row);
    else if (!s.IsNotFound()) return s;
    iter->Next();
  }
  // An index walk that ended on an error is not a short match list.
  return iter->status();
}

RowBatch* BlockNLIndexJoinOp::NextBatch(size_t max_rows) {
  const Schema& lschema = outer_->output_schema();
  batch_.Reset(&out_schema_, max_rows);
  while (true) {
    if (match_pos_ < matches_.size()) {
      if (batch_.full()) return &batch_;
      ConcatRowsInto(lschema, inner_stage_.out_schema(), current_outer_,
                     matches_.row(match_pos_), batch_.AppendRow(), ctx_);
      ++match_pos_;
      ++rows_produced_;
      continue;
    }
    if (batch_.full()) return &batch_;
    if (block_pos_ == block_.size()) {
      if (batch_.num_active() > 0) return &batch_;  // before any child pull
      if (outer_exhausted_) return nullptr;
      LoadOuterBlock();
      continue;
    }
    current_outer_ = block_.row(block_pos_++);
    sim::ChargeTally compares(ctx_, sim::CostKind::kMemcmp);
    Status s = FetchMatches(RowView(current_outer_, &lschema), &compares);
    compares.Pay();
    if (!s.ok()) {
      // Rows already placed in batch_ stay delivered; the stream ends on
      // the next call and the drain surfaces status_.
      status_ = std::move(s);
      return batch_.num_active() > 0 ? &batch_ : nullptr;
    }
  }
}

std::string BlockNLIndexJoinOp::Describe() const {
  return std::string("BNLJI(") + inner_table_->name() +
         (inner_index_no_ < 0 ? " via pk" : " via secondary idx") + ")";
}

// ------------------------------------------------------------ GraceHashJoin

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr left, OperatorPtr right,
                                 std::vector<JoinKey> keys, int num_partitions,
                                 sim::AccessContext* ctx)
    : left_(std::move(left)),
      right_(std::move(right)),
      keys_(std::move(keys)),
      num_partitions_(num_partitions < 1 ? 1 : num_partitions),
      ctx_(ctx) {}

Status GraceHashJoinOp::Open() {
  status_ = Status::OK();
  HNDP_RETURN_IF_ERROR(left_->Open());
  HNDP_RETURN_IF_ERROR(right_->Open());
  HNDP_RETURN_IF_ERROR(ResolveKeys(keys_, left_->output_schema(),
                                   right_->output_schema(), &key_cols_));
  left_key_cols_ = LeftCols(key_cols_);
  left_key_ = KeyLayout(left_->output_schema(), left_key_cols_);
  right_key_ = KeyLayout(right_->output_schema(), RightCols(key_cols_));
  out_schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
  partitioned_ = false;
  part_ = 0;
  match_ = JoinTable::kNone;
  return Status::OK();
}

void GraceHashJoinOp::StartPartition(size_t p) {
  JoinTable& build = left_parts_[p];
  build.Build();
  // One identical build-insert charge per row.
  if (ctx_ != nullptr) {
    ctx_->ChargeRepeated(sim::CostKind::kHashBuild, 1, build.size());
  }
  probe_pos_ = 0;
  match_ = JoinTable::kNone;
}

void GraceHashJoinOp::Partition(size_t max_rows) {
  left_parts_.resize(num_partitions_);
  for (JoinTable& part : left_parts_) {
    part.Reset(left_->output_schema(), left_key_cols_);
  }
  right_parts_.resize(num_partitions_);
  for (RowStore& part : right_parts_) {
    part.Reset(right_->output_schema().row_size());
  }
  uint64_t spilled = 0;
  const auto drain = [&](Operator* side, const KeyLayout& key, auto* parts) {
    const size_t rs = side->output_schema().row_size();
    while (RowBatch* b = side->NextBatch(max_rows)) {
      for (size_t k = 0; k < b->num_active(); ++k) {
        const char* r = b->active_row(k);
        (*parts)[key.Hash(r) % num_partitions_].Append(r);
        spilled += rs;
      }
      // One identical partition-hash charge per row, paid per batch
      // (before the next pull, so nothing crosses a stall boundary).
      if (ctx_ != nullptr) {
        ctx_->ChargeRepeated(sim::CostKind::kHashProbe, 1, b->num_active());
      }
    }
  };
  drain(left_.get(), left_key_, &left_parts_);
  drain(right_.get(), right_key_, &right_parts_);
  // Spilling a partition run writes it to storage and reads it back later;
  // charge both directions as streaming flash traffic.
  if (ctx_ != nullptr && spilled > 0) {
    ctx_->ChargeFlashRead(spilled);  // spill write
    ctx_->ChargeFlashRead(spilled);  // reload
  }
  partitioned_ = true;
}

RowBatch* GraceHashJoinOp::NextBatch(size_t max_rows) {
  if (!partitioned_) {
    Partition(max_rows);
    part_ = 0;
    StartPartition(0);
  }
  const Schema& lschema = left_->output_schema();
  const Schema& rschema = right_->output_schema();
  batch_.Reset(&out_schema_, max_rows);
  while (part_ < left_parts_.size()) {
    const JoinTable& build = left_parts_[part_];
    const RowStore& probe = right_parts_[part_];
    while (true) {
      if (match_ != JoinTable::kNone) {
        if (batch_.full()) return &batch_;
        const char* build_row = build.row(match_);
        match_ = build.Next(match_);
        ConcatRowsInto(lschema, rschema, build_row, probe.row(probe_pos_ - 1),
                       batch_.AppendRow(), ctx_);
        ++rows_produced_;
        continue;
      }
      if (batch_.full()) return &batch_;
      if (probe_pos_ >= probe.size()) break;
      const char* probe_row = probe.row(probe_pos_++);
      // Per probe, not per batch: one partition's probes span several
      // NextBatch calls.
      if (ctx_ != nullptr) ctx_->Charge(sim::CostKind::kHashProbe, 1);
      match_ = build.Find(right_key_, probe_row);
    }
    ++part_;
    if (part_ < left_parts_.size()) StartPartition(part_);
  }
  return batch_.num_active() > 0 ? &batch_ : nullptr;
}

}  // namespace hybridndp::exec
