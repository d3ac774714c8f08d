// Batch-execution plumbing shared by all operators: error recovery over the
// operator tree and the drain.

#include "exec/operator.h"

namespace hybridndp::exec {

Status TreeStatus(const Operator& root) {
  if (!root.status().ok()) return root.status();
  Status s;
  root.ForEachChild([&s](const Operator& child) {
    if (s.ok()) s = TreeStatus(child);
  });
  return s;
}

Result<std::vector<std::string>> CollectAll(Operator* op, size_t batch_rows) {
  if (batch_rows == 0) batch_rows = 1;
  HNDP_RETURN_IF_ERROR(op->Open());
  std::vector<std::string> rows;
  const size_t row_size = op->output_schema().row_size();
  while (RowBatch* b = op->NextBatch(batch_rows)) {
    for (size_t k = 0; k < b->num_active(); ++k) {
      rows.emplace_back(b->active_row(k), row_size);
    }
  }
  // nullptr means end-of-stream OR error; disambiguate before returning.
  HNDP_RETURN_IF_ERROR(TreeStatus(*op));
  return rows;
}

}  // namespace hybridndp::exec
