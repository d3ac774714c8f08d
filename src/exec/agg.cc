#include <algorithm>
#include <limits>

#include "exec/operator.h"

namespace hybridndp::exec {

GroupByAggOp::GroupByAggOp(OperatorPtr child,
                           std::vector<std::string> group_cols,
                           std::vector<AggSpec> aggs, sim::AccessContext* ctx)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      ctx_(ctx) {}

Status GroupByAggOp::Open() {
  status_ = Status::OK();
  HNDP_RETURN_IF_ERROR(child_->Open());
  const Schema& in = child_->output_schema();

  group_idx_.clear();
  std::vector<rel::Column> out_cols;
  for (const auto& name : group_cols_) {
    const int idx = in.Find(name);
    if (idx < 0) return Status::InvalidArgument("group col missing: " + name);
    group_idx_.push_back(idx);
    out_cols.push_back(in.column(idx));
  }
  agg_idx_.clear();
  for (const auto& agg : aggs_) {
    int idx = -1;
    if (!agg.column.empty()) {
      idx = in.Find(agg.column);
      if (idx < 0) return Status::InvalidArgument("agg col missing: " + agg.column);
    } else if (agg.fn != AggFn::kCount) {
      return Status::InvalidArgument("only COUNT may omit its column");
    }
    agg_idx_.push_back(idx);
    // Output column type: MIN/MAX keep the input type; the rest are ints.
    if ((agg.fn == AggFn::kMin || agg.fn == AggFn::kMax) && idx >= 0 &&
        in.column(idx).type == rel::ColType::kChar) {
      out_cols.push_back(rel::CharCol(agg.output_name, in.column(idx).size));
    } else {
      out_cols.push_back(rel::IntCol(agg.output_name));
    }
  }
  out_schema_ = Schema(std::move(out_cols));
  groups_.clear();
  consumed_ = false;
  return Status::OK();
}

bool GroupByAggOp::UpdateGroups(const char* row) {
  const Schema& in = child_->output_schema();
  const RowView view(row, &in);
  // Group key = raw bytes of the group columns (buffer reused per row; the
  // map only copies it when a new group is inserted).
  KeyBytesInto(in, group_idx_, row, &key_buf_);
  auto [it, inserted] = groups_.try_emplace(key_buf_);
  if (inserted) it->second.resize(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggState& st = it->second[a];
    const int idx = agg_idx_[a];
    ++st.count;
    if (idx < 0) continue;  // COUNT(*)
    if (in.column(idx).type == rel::ColType::kInt32) {
      const int64_t v = view.GetInt(idx);
      st.sum += v;
      if (!st.seen || v < st.min_int) st.min_int = v;
      if (!st.seen || v > st.max_int) st.max_int = v;
    } else {
      // Compare in place; copy only a new extreme.
      const Slice v = view.GetString(idx);
      if (!st.seen || v.compare(st.min_str) < 0) {
        st.min_str.assign(v.data(), v.size());
      }
      if (!st.seen || v.compare(st.max_str) > 0) {
        st.max_str.assign(v.data(), v.size());
      }
    }
    st.seen = true;
  }
  return inserted;
}

Status GroupByAggOp::Consume(size_t max_rows) {
  while (RowBatch* b = child_->NextBatch(max_rows)) {
    uint64_t inserts = 0;
    for (size_t k = 0; k < b->num_active(); ++k) {
      if (UpdateGroups(b->active_row(k))) ++inserts;
    }
    // One hash probe and one update per aggregate for every row, plus one
    // key copy per new group (fixed key width). Charged per child batch,
    // before the next pull, so nothing crosses a stall boundary.
    if (ctx_ != nullptr) {
      const uint64_t n = b->num_active();
      ctx_->ChargeRepeated(sim::CostKind::kHashProbe, 1, n);
      ctx_->ChargeRepeated(sim::CostKind::kAggUpdate, aggs_.size(), n);
      ctx_->ChargeCopyRepeated(key_buf_.size(), inserts);
    }
  }
  // Global aggregate with no groups: always emit one row, even on empty
  // input (SQL semantics for aggregates without GROUP BY).
  if (group_cols_.empty() && groups_.empty()) {
    groups_.try_emplace(std::string()).first->second.resize(aggs_.size());
  }
  emit_it_ = groups_.begin();
  consumed_ = true;
  return Status::OK();
}

void GroupByAggOp::EmitGroupInto(char* dst) const {
  // Group key columns first.
  size_t out_col = 0;
  size_t key_off = 0;
  for (size_t g = 0; g < group_idx_.size(); ++g, ++out_col) {
    const uint32_t width = out_schema_.column(out_col).size;
    memcpy(dst + out_schema_.offset(out_col), emit_it_->first.data() + key_off,
           width);
    key_off += width;
  }
  // Aggregates.
  for (size_t a = 0; a < aggs_.size(); ++a, ++out_col) {
    const AggState& st = emit_it_->second[a];
    const uint32_t offset = out_schema_.offset(out_col);
    int64_t v = 0;
    switch (aggs_[a].fn) {
      case AggFn::kCount:
        v = st.count;
        break;
      case AggFn::kSum:
        v = st.sum;
        break;
      case AggFn::kAvg:
        v = st.count > 0 ? st.sum / st.count : 0;
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        if (out_schema_.column(out_col).type == rel::ColType::kChar) {
          const std::string& s =
              aggs_[a].fn == AggFn::kMin ? st.min_str : st.max_str;
          const size_t n =
              std::min<size_t>(s.size(), out_schema_.column(out_col).size);
          memcpy(dst + offset, s.data(), n);
          continue;
        }
        v = aggs_[a].fn == AggFn::kMin ? st.min_int : st.max_int;
        break;
      }
    }
    EncodeFixed32(dst + offset,
                  static_cast<uint32_t>(static_cast<int32_t>(
                      std::clamp<int64_t>(v, std::numeric_limits<int32_t>::min(),
                                          std::numeric_limits<int32_t>::max()))));
  }
}

RowBatch* GroupByAggOp::NextBatch(size_t max_rows) {
  if (!consumed_) {
    Status s = Consume(max_rows);
    if (!s.ok()) {
      status_ = std::move(s);
      return nullptr;
    }
  }
  if (emit_it_ == groups_.end()) return nullptr;
  batch_.Reset(&out_schema_, max_rows);
  while (!batch_.full() && emit_it_ != groups_.end()) {
    char* dst = batch_.AppendRow();
    memset(dst, 0, out_schema_.row_size());
    EmitGroupInto(dst);
    ++emit_it_;
    ++rows_produced_;
  }
  // Identical emission copies, charged once per batch.
  if (ctx_ != nullptr) {
    ctx_->ChargeCopyRepeated(out_schema_.row_size(), batch_.num_active());
  }
  return &batch_;
}

}  // namespace hybridndp::exec
