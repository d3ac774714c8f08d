#include <algorithm>
#include <limits>

#include "exec/operator.h"

namespace hybridndp::exec {

namespace {

/// Rename a table schema's columns to "alias.column".
Schema AliasSchema(const Schema& schema, const std::string& alias) {
  std::vector<rel::Column> cols;
  cols.reserve(schema.num_columns());
  for (const auto& c : schema.columns()) {
    rel::Column renamed = c;
    renamed.name = alias.empty() ? c.name : alias + "." + c.name;
    cols.push_back(std::move(renamed));
  }
  return Schema(std::move(cols));
}

/// Resolve projection names to column indexes; empty projection = all.
Status ResolveProjection(const Schema& schema,
                         const std::vector<std::string>& projection,
                         std::vector<int>* out_cols, Schema* out_schema) {
  out_cols->clear();
  if (projection.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      out_cols->push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& name : projection) {
      const int idx = schema.Find(name);
      if (idx < 0) {
        return Status::InvalidArgument("projection column not found: " + name);
      }
      out_cols->push_back(idx);
    }
  }
  *out_schema = schema.Project(*out_cols);
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- RowProjection

RowProjection::RowProjection(const Schema& schema, const std::vector<int>& cols,
                             const Schema& out_schema) {
  for (size_t i = 0; i < cols.size(); ++i) {
    const Run run{schema.offset(cols[i]), out_schema.offset(i),
                  schema.column(cols[i]).size};
    if (!runs_.empty() && runs_.back().src + runs_.back().width == run.src &&
        runs_.back().dst + runs_.back().width == run.dst) {
      runs_.back().width += run.width;
    } else {
      runs_.push_back(run);
    }
  }
}

// ---------------------------------------------------------------- TableStage

TableStage::TableStage(const Schema& table_schema, std::string alias,
                       const Expr::Ptr& predicate,
                       const std::vector<std::string>& projection)
    : alias_(std::move(alias)),
      schema_(AliasSchema(table_schema, alias_)),
      predicate_(predicate) {
  std::vector<int> out_cols;
  status_ = ResolveProjection(schema_, projection, &out_cols, &out_schema_);
  if (!status_.ok()) return;
  projection_ = RowProjection(schema_, out_cols, out_schema_);
  if (predicate_ == nullptr) return;
  Result<Predicate> program = Predicate::Compile(*predicate_, schema_);
  if (program.ok()) {
    program_ = std::move(program).value();
  } else {
    status_ = program.status();
  }
}

// ---------------------------------------------------------------- TableScan

TableScanOp::TableScanOp(const TableAccessor* table, std::string alias,
                         lsm::ReadOptions opts, const Expr::Ptr& predicate,
                         const std::vector<std::string>& projection)
    : table_(table),
      opts_(opts),
      stage_(table->schema(), std::move(alias), predicate, projection) {}

Status TableScanOp::Open() {
  status_ = Status::OK();
  HNDP_RETURN_IF_ERROR(stage_.status());
  iter_ = table_->NewScanIterator(opts_);
  iter_->SeekToFirst();
  return Status::OK();
}

RowBatch* TableScanOp::NextBatch(size_t max_rows) {
  const Schema& out_schema = stage_.out_schema();
  batch_.Reset(&out_schema, max_rows);
  // Rows arrive as value views, a chunk per pull, and a pull never asks for
  // more rows than the batch has room left for, so the scan reads no row
  // past the ones this batch consumes (DESIGN.md §10 rule 2). Per-row
  // selection and copy charges are identical for every row, so the batch
  // pays them once per batch via ChargeRepeated (bit-identical to per-row
  // charging: sums of quantized charges are order-independent).
  constexpr size_t kPullRows = 64;
  Slice values[kPullRows];
  uint64_t scanned = 0;
  sim::ChargeTally compares(opts_.ctx, sim::CostKind::kMemcmp);
  while (!batch_.full() && iter_ != nullptr) {
    const size_t want =
        std::min(kPullRows, batch_.capacity() - batch_.num_active());
    const size_t n = iter_->NextValues(want, values);
    scanned += n;
    for (size_t i = 0; i < n; ++i) {
      const char* row = values[i].data();
      if (stage_.Keep(row, &compares)) stage_.Project(row, batch_.AppendRow());
    }
    if (n < want) break;  // exhausted or failed
  }
  rows_produced_ += batch_.num_active();
  compares.Pay();
  if (opts_.ctx != nullptr) {
    opts_.ctx->ChargeRepeated(sim::CostKind::kSelectionProcessing, 1, scanned);
    opts_.ctx->ChargeCopyRepeated(out_schema.row_size(), batch_.num_active());
  }
  // Exhausted or failed: an iterator error (e.g. an injected device-side
  // read fault) also ends the pull short, so park the status for drains.
  if (iter_ != nullptr && !batch_.full() && status_.ok()) {
    status_ = iter_->status();
  }
  return batch_.num_active() > 0 ? &batch_ : nullptr;
}

std::string TableScanOp::Describe() const {
  std::string s = "TableScan(" + table_->name();
  if (!stage_.alias().empty()) s += " AS " + stage_.alias();
  if (stage_.predicate() != nullptr) {
    s += ", " + stage_.predicate()->ToString();
  }
  s += ")";
  return s;
}

// ---------------------------------------------------------------- IndexScan

IndexScanOp::IndexScanOp(const TableAccessor* table, std::string alias,
                         size_t index_no, lsm::ReadOptions opts, int64_t lo,
                         int64_t hi, const Expr::Ptr& residual,
                         const std::vector<std::string>& projection)
    : table_(table),
      index_no_(index_no),
      opts_(opts),
      lo_(lo),
      hi_(hi),
      stage_(table->schema(), std::move(alias), residual, projection) {}

Status IndexScanOp::Open() {
  status_ = Status::OK();
  if (index_no_ >= table_->def().indexes.size()) {
    return Status::InvalidArgument("index scan on " + stage_.alias() +
                                   " names a missing index");
  }
  const int col = table_->def().indexes[index_no_].col;
  if (table_->schema().column(col).type != rel::ColType::kInt32) {
    return Status::NotSupported("index range scan requires int column");
  }
  HNDP_RETURN_IF_ERROR(stage_.status());
  // The int32 part of [lo, hi]; an empty one opens no index iterator.
  constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  const int64_t lo = std::max(lo_, kMin);
  const int64_t hi = std::min(hi_, kMax);
  if (lo > hi) {
    iter_.reset();
    return Status::OK();
  }
  end_ = static_cast<int32_t>(hi);
  iter_ = table_->NewIndexIterator(opts_, index_no_);
  iter_->Seek(Slice(rel::EncodeIndexPrefixInt(static_cast<int32_t>(lo))));
  return Status::OK();
}

RowBatch* IndexScanOp::NextBatch(size_t max_rows) {
  const Schema& out_schema = stage_.out_schema();
  batch_.Reset(&out_schema, max_rows);
  // Uniform per-row charges amortized over the batch (see TableScanOp).
  uint64_t fetched = 0;
  sim::ChargeTally compares(opts_.ctx, sim::CostKind::kMemcmp);
  while (!batch_.full() && iter_ != nullptr && iter_->Valid()) {
    rel::IntIndexKey entry;
    if (!rel::DecodeIntIndexKey(iter_->key(), &entry)) {
      // Damage, not a stale entry to step over.
      status_ = Status::Corruption("malformed index key");
      break;
    }
    if (entry.value > end_) break;  // past range
    iter_->Next();

    Slice base_row;
    Status s = table_->GetByPk(opts_, entry.pk, &base_row);
    if (s.IsNotFound()) continue;  // dangling index entry
    if (!s.ok()) {
      // A real failure, not a stale entry: deliver the rows already
      // placed, then end the stream.
      status_ = std::move(s);
      break;
    }
    ++fetched;
    if (!stage_.Keep(base_row.data(), &compares)) continue;
    stage_.Project(base_row.data(), batch_.AppendRow());
    ++rows_produced_;
  }
  compares.Pay();
  if (opts_.ctx != nullptr) {
    opts_.ctx->ChargeRepeated(sim::CostKind::kSelectionProcessing, 1, fetched);
    opts_.ctx->ChargeCopyRepeated(out_schema.row_size(), batch_.num_active());
  }
  if (iter_ != nullptr && !batch_.full() && status_.ok()) {
    status_ = iter_->status();
  }
  return batch_.num_active() > 0 ? &batch_ : nullptr;
}

std::string IndexScanOp::Describe() const {
  return "IndexScan(" + table_->name() + "." +
         table_->def().indexes[index_no_].name + " in [" +
         std::to_string(lo_) + "," + std::to_string(hi_) + "])";
}

// ---------------------------------------------------------------- Filter

FilterOp::FilterOp(OperatorPtr child, Expr::Ptr predicate,
                   sim::AccessContext* ctx)
    : child_(std::move(child)), predicate_(std::move(predicate)), ctx_(ctx) {}

Status FilterOp::Open() {
  HNDP_RETURN_IF_ERROR(child_->Open());
  HNDP_ASSIGN_OR_RETURN(
      program_, Predicate::Compile(*predicate_, child_->output_schema()));
  return Status::OK();
}

RowBatch* FilterOp::NextBatch(size_t max_rows) {
  RowBatch* b = child_->NextBatch(max_rows);
  if (b == nullptr) return nullptr;
  uint32_t* sel = b->mutable_sel();
  size_t n_out = 0;
  const size_t n_in = b->num_active();
  // One eval charge per input row, identical each time: pay once per batch.
  if (ctx_ != nullptr) ctx_->ChargeRepeated(sim::CostKind::kRecordEval, 1, n_in);
  sim::ChargeTally compares(ctx_, sim::CostKind::kMemcmp);
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t idx = sel[k];
    if (program_.Eval(b->row(idx), &compares)) {
      sel[n_out++] = idx;
      ++rows_produced_;
    }
  }
  compares.Pay();
  b->SetNumActive(n_out);
  return b;  // possibly zero active rows; callers loop
}

std::string FilterOp::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

// ---------------------------------------------------------------- Project

ProjectOp::ProjectOp(OperatorPtr child, std::vector<std::string> columns,
                     sim::AccessContext* ctx)
    : child_(std::move(child)), ctx_(ctx), projection_names_(std::move(columns)) {}

Status ProjectOp::Open() {
  HNDP_RETURN_IF_ERROR(child_->Open());
  HNDP_RETURN_IF_ERROR(ResolveProjection(child_->output_schema(),
                                         projection_names_, &cols_,
                                         &out_schema_));
  projection_ = RowProjection(child_->output_schema(), cols_, out_schema_);
  return Status::OK();
}

RowBatch* ProjectOp::NextBatch(size_t max_rows) {
  RowBatch* b = child_->NextBatch(max_rows);
  if (b == nullptr) return nullptr;
  batch_.Reset(&out_schema_, max_rows);
  const size_t n = b->num_active();
  for (size_t k = 0; k < n; ++k) {
    projection_.CopyInto(b->active_row(k), batch_.AppendRow());
    ++rows_produced_;
  }
  // n identical projection copies, charged in one step.
  if (ctx_ != nullptr) ctx_->ChargeCopyRepeated(out_schema_.row_size(), n);
  return &batch_;  // 1:1 with the child batch; no refill (stall alignment)
}

std::string ProjectOp::Describe() const {
  return "Project(" + std::to_string(cols_.size()) + " cols)";
}

}  // namespace hybridndp::exec
