// Batch-at-a-time row storage for the vectorized execution path (paper
// Sect. 4: the device fills multi-slot shared buffers with intermediate
// result *batches*; the host consumes them batch-wise). A RowBatch is a
// fixed-capacity, arena-backed array of fixed-size rows in one schema, plus
// a selection vector: filters narrow the selection in place instead of
// copying survivors.
//
// RowBatch itself never touches an AccessContext: operators charge their
// per-row costs, so simulated metrics do not depend on the batch size (see
// DESIGN.md §10).

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/arena.h"
#include "rel/schema.h"

namespace hybridndp::exec {

/// Fixed-capacity, schema-typed row storage with a selection vector.
///
/// Layout: `capacity()` row slots of `row_size()` bytes each, contiguous in
/// arena-backed memory; `sel_[0..num_active())` holds the indexes of the
/// rows that are logically present, in output order. Appending a row
/// identity-selects it, so a batch that no filter touched has
/// `sel_[k] == k` for all k.
class RowBatch {
 public:
  RowBatch() = default;
  RowBatch(const RowBatch&) = delete;
  RowBatch& operator=(const RowBatch&) = delete;

  /// Slab ceiling per batch. Batches above the allocator's mmap/trim
  /// threshold (128 KiB in glibc) make every operator instantiation fault
  /// in fresh pages for its row storage and return them on destruction —
  /// measured as 131k vs 3k minor faults over bench_fig12_matrix. Capping
  /// the slab keeps it heap-served and recycled. The cap is invisible to
  /// callers: NextBatch may always return fewer rows than requested.
  static constexpr size_t kMaxBatchBytes = 64 * 1024;

  /// Clear the batch and (re)bind it to `schema` with room for `max_rows`
  /// rows (capped at kMaxBatchBytes of storage). Storage is reused when it
  /// is already big enough; regrowing invalidates pointers returned by
  /// earlier row() calls.
  void Reset(const rel::Schema* schema, size_t max_rows) {
    schema_ = schema;
    row_size_ = schema->row_size();
    if (row_size_ > 0 && max_rows > kMaxBatchBytes / row_size_) {
      const size_t cap_rows = kMaxBatchBytes / row_size_;
      max_rows = cap_rows > 0 ? cap_rows : 1;
    }
    cap_ = max_rows;
    n_rows_ = 0;
    n_active_ = 0;
    const size_t bytes = row_size_ * cap_;
    if (bytes > alloc_bytes_) {
      arena_.Reset();
      data_ = arena_.Allocate(bytes > 0 ? bytes : 1);
      alloc_bytes_ = bytes;
    }
    if (sel_.size() < cap_) sel_.resize(cap_);
  }

  const rel::Schema& schema() const { return *schema_; }
  uint32_t row_size() const { return row_size_; }
  size_t capacity() const { return cap_; }
  /// Physical rows appended (including rows later filtered out).
  size_t size() const { return n_rows_; }
  bool full() const { return n_rows_ >= cap_; }

  /// Select the next free row slot and return it for the caller to fill.
  char* AppendRow() {
    sel_[n_active_++] = static_cast<uint32_t>(n_rows_);
    return data_ + n_rows_++ * row_size_;
  }
  void AppendCopy(const char* src) { memcpy(AppendRow(), src, row_size_); }

  const char* row(size_t i) const { return data_ + i * row_size_; }
  char* mutable_row(size_t i) { return data_ + i * row_size_; }

  /// Selection vector: logical (surviving) rows in output order.
  size_t num_active() const { return n_active_; }
  uint32_t sel(size_t k) const { return sel_[k]; }
  const char* active_row(size_t k) const { return row(sel_[k]); }
  /// In-place narrowing (FilterOp): callers overwrite a prefix of the
  /// selection vector and shrink the active count.
  uint32_t* mutable_sel() { return sel_.data(); }
  void SetNumActive(size_t n) { n_active_ = n; }

 private:
  Arena arena_;
  char* data_ = nullptr;
  const rel::Schema* schema_ = nullptr;
  uint32_t row_size_ = 0;
  size_t cap_ = 0;
  size_t n_rows_ = 0;
  size_t n_active_ = 0;
  size_t alloc_bytes_ = 0;
  std::vector<uint32_t> sel_;
};

}  // namespace hybridndp::exec
