// Volcano-model physical operators (paper Sect. 4.2 uses the same model on
// device). Every operator charges its work to an AccessContext, so the same
// operator tree runs under host or device cost models depending on the
// context it was built with.

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/join_table.h"
#include "exec/row_batch.h"
#include "lsm/db.h"
#include "rel/table.h"
#include "sim/cost.h"

namespace hybridndp::exec {

using rel::Schema;
using rel::TableAccessor;

/// Append the concatenated bytes of `cols` of `row` into *out (cleared
/// first). Reusing a caller-owned buffer keeps the per-row path free of heap
/// allocations.
void KeyBytesInto(const Schema& schema, const std::vector<int>& cols,
                  const char* row, std::string* out);

/// Copies the fields `cols` of rows of `schema` into rows of `out_schema`
/// (field i of the output is cols[i]). Resolved once into byte runs, with
/// fields adjacent on both sides merged, so a row copy is a few moves.
/// Uncharged: callers pay one copy per row in bulk.
class RowProjection {
 public:
  RowProjection() = default;
  RowProjection(const Schema& schema, const std::vector<int>& cols,
                const Schema& out_schema);

  /// Copy the projected fields of `row` into a pre-sized output row.
  void CopyInto(const char* row, char* dst) const {
    for (const Run& run : runs_) {
      CopyBytes(dst + run.dst, row + run.src, run.width);
    }
  }

 private:
  struct Run {
    uint32_t src, dst, width;
  };
  std::vector<Run> runs_;
};

/// Base volcano operator: Open / NextBatch.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const Schema& output_schema() const = 0;
  /// Start the stream from the beginning: open the children and reset all
  /// per-stream state. Called before the first NextBatch, and again for
  /// every pass a join makes over its inner input (NLJ per outer row, BNLJ
  /// per outer block). A re-opened scan re-reads storage, which re-charges
  /// I/O unless a cache absorbs it.
  virtual Status Open() = 0;

  virtual std::string Describe() const = 0;

  /// Batch-at-a-time pull (DESIGN.md §10). Returns a batch of up to
  /// `max_rows` rows owned by this operator — valid until the next
  /// NextBatch call on it — or nullptr when the stream is exhausted. A
  /// non-null batch may carry zero active rows (e.g. a filter that rejected
  /// a whole input batch); callers loop.
  ///
  /// Contract: never pull child rows you will not consume before your
  /// output fills, and never pull a new child batch after rows have been
  /// placed in the output batch (return the partial batch instead). Then
  /// the work behind a batch is exactly the work behind its rows, whatever
  /// `max_rows` is: NextBatch(1) has row-at-a-time semantics, and larger
  /// pulls only change the wall clock (the integer-picosecond clock keeps
  /// charge sums order-independent between stall points).
  virtual RowBatch* NextBatch(size_t max_rows) = 0;

  /// Visit each direct child (observability traversal of a finished PQEP —
  /// e.g. per-operator rows-produced aggregates). Leaves visit nothing.
  virtual void ForEachChild(
      const std::function<void(const Operator&)>& fn) const {
    (void)fn;
  }

  uint64_t rows_produced() const { return rows_produced_; }

  /// Error recorded while producing rows. NextBatch has no error channel,
  /// so an operator that hits a non-ok child/iterator Status ends its
  /// stream (returns nullptr) and parks the Status here. Drains must check
  /// TreeStatus() after exhaustion to distinguish end-of-stream from
  /// failure.
  const Status& status() const { return status_; }

 protected:
  uint64_t rows_produced_ = 0;
  Status status_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// The stage every base-table reader starts with (TableScanOp, IndexScanOp
/// and BlockNLIndexJoinOp's inner side): the table schema renamed to
/// "alias.col", the pushed-down predicate compiled against it, and the
/// projection resolved against it. All of it happens once, at construction;
/// an unknown column is kept in status() for the owner's Open() to return.
class TableStage {
 public:
  /// `projection`: output column names (aliased); empty = all columns.
  TableStage(const Schema& table_schema, std::string alias,
             const Expr::Ptr& predicate,
             const std::vector<std::string>& projection);

  const Status& status() const { return status_; }
  const std::string& alias() const { return alias_; }
  const Schema& out_schema() const { return out_schema_; }
  /// The pushed-down predicate (nullptr = none), for Describe().
  const Expr* predicate() const { return predicate_.get(); }

  /// Whether a table row passes the predicate. Its compares go to `tally`,
  /// which the caller pays.
  bool Keep(const char* row, sim::ChargeTally* tally) const {
    return program_.Eval(row, tally);
  }
  /// Copy the projected fields of a table row into a pre-sized buffer of
  /// out_schema(). Uncharged: callers pay one copy per row in bulk.
  void Project(const char* row, char* dst) const {
    projection_.CopyInto(row, dst);
  }

 private:
  std::string alias_;
  Schema schema_;  ///< full table schema with aliased names
  Expr::Ptr predicate_;  ///< the plan's tree, read-only
  Predicate program_;    ///< predicate_ compiled against schema_
  Schema out_schema_;
  RowProjection projection_;  ///< schema_ rows to out_schema_ rows
  Status status_;
};

/// Equi-join key pair (column names in the left/right schemas).
struct JoinKey {
  std::string left_col;
  std::string right_col;
};

/// Full scan of a table's primary column family with optional early
/// selection (predicate) and early projection (kept columns).
/// Output columns are named "alias.col".
class TableScanOp final : public Operator {
 public:
  /// `projection`: output column names (aliased); empty = all columns.
  TableScanOp(const TableAccessor* table, std::string alias, lsm::ReadOptions opts,
              const Expr::Ptr& predicate,
              const std::vector<std::string>& projection);

  const Schema& output_schema() const override { return stage_.out_schema(); }
  Status Open() override;
  /// Pulls value views from the scan iterator in fixed chunks (never more
  /// than the batch has room left for) and projects the qualifying rows
  /// straight into the batch (no std::string per row).
  RowBatch* NextBatch(size_t max_rows) override;
  std::string Describe() const override;

 private:
  const TableAccessor* table_;
  lsm::ReadOptions opts_;
  TableStage stage_;
  lsm::IteratorPtr iter_;
  RowBatch batch_;
};

/// Secondary-index range scan: walks the index column family for entries in
/// [lo, hi] on the indexed column, fetches each row from the primary CF by
/// the primary key stored in the index entry, then applies the residual
/// predicate and projection. The bounds are int64 so the planner can pass
/// ranges such as [INT32_MAX + 1, INT32_MAX] (`col > INT32_MAX`); a range
/// with lo > hi or wholly outside int32 is empty.
class IndexScanOp final : public Operator {
 public:
  IndexScanOp(const TableAccessor* table, std::string alias, size_t index_no,
              lsm::ReadOptions opts, int64_t lo, int64_t hi,
              const Expr::Ptr& residual,
              const std::vector<std::string>& projection);

  const Schema& output_schema() const override { return stage_.out_schema(); }
  Status Open() override;
  /// Steps the index, then fetches the row (DESIGN.md §10).
  RowBatch* NextBatch(size_t max_rows) override;
  std::string Describe() const override;

 private:
  const TableAccessor* table_;
  size_t index_no_;
  lsm::ReadOptions opts_;
  int64_t lo_, hi_;
  TableStage stage_;
  lsm::IteratorPtr iter_;  ///< null when the range is empty
  int32_t end_ = 0;        ///< last indexed value in range
  RowBatch batch_;
};

/// Filter (selection on an arbitrary input).
class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, Expr::Ptr predicate, sim::AccessContext* ctx);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  /// Narrows the child batch's selection vector in place — survivors are
  /// never copied. The returned batch is the child's.
  RowBatch* NextBatch(size_t max_rows) override;
  std::string Describe() const override;
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*child_);
  }

 private:
  OperatorPtr child_;
  Expr::Ptr predicate_;  ///< the plan's tree, read-only
  Predicate program_;    ///< compiled against the child's schema by Open()
  sim::AccessContext* ctx_;
};

/// Projection by output column names.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<std::string> columns,
            sim::AccessContext* ctx);

  const Schema& output_schema() const override { return out_schema_; }
  Status Open() override;
  std::string Describe() const override;
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*child_);
  }

  RowBatch* NextBatch(size_t max_rows) override;

 private:
  OperatorPtr child_;
  sim::AccessContext* ctx_;
  Schema out_schema_;
  std::vector<int> cols_;
  RowProjection projection_;  ///< resolved in Open()
  std::vector<std::string> projection_names_;
  RowBatch batch_;
};

/// Classic tuple-at-a-time nested loop join (paper: NLJ): one outer row at
/// a time, a full inner pass per outer row.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr outer, OperatorPtr inner,
                   std::vector<JoinKey> keys, sim::AccessContext* ctx);

  const Schema& output_schema() const override { return out_schema_; }
  Status Open() override;
  std::string Describe() const override { return "NLJ"; }
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*outer_);
    fn(*inner_);
  }

  /// Pulls the outer one row at a time (the next outer row is only consumed
  /// after a full inner pass) and the inner up to the output capacity (each
  /// inner row yields at most one output row).
  RowBatch* NextBatch(size_t max_rows) override;

 private:
  OperatorPtr outer_, inner_;
  std::vector<JoinKey> keys_;
  sim::AccessContext* ctx_;
  Schema out_schema_;
  std::vector<std::pair<int, int>> key_cols_;  ///< (outer idx, inner idx)
  std::string outer_row_;
  bool have_outer_ = false;
  RowBatch batch_;                   ///< output batch
  RowBatch* inner_batch_ = nullptr;  ///< child-owned probe batch
  size_t inner_pos_ = 0;             ///< cursor into inner_batch_
};

/// Block nested loop join: buffers a block of outer rows, builds a hash
/// table over it (paper Sect. 5: "BNL-join builds a hash table in the
/// buffer"), and streams the inner input once per block. The buffer size is
/// the on-device join buffer (hw_MSJ) or a host join buffer.
class BlockNLJoinOp final : public Operator {
 public:
  /// Open() rejects a zero `buffer_bytes`: no outer row fits the block.
  BlockNLJoinOp(OperatorPtr outer, OperatorPtr inner, std::vector<JoinKey> keys,
                uint64_t buffer_bytes, sim::AccessContext* ctx);

  const Schema& output_schema() const override { return out_schema_; }
  Status Open() override;
  std::string Describe() const override { return "BNLJ"; }
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*outer_);
    fn(*inner_);
  }

  /// Fills the outer block with bounded pulls (exact byte threshold),
  /// builds the JoinTable once per block, and probes inner batches in place.
  /// An inner pull asks for at most capacity / max_fanout_ rows, so every
  /// pulled row is probed before the output batch fills, and the pull pays
  /// all of its probes at once.
  RowBatch* NextBatch(size_t max_rows) override;

  uint64_t blocks_used() const { return blocks_; }

 private:
  Status LoadNextBlock();

  OperatorPtr outer_, inner_;
  std::vector<JoinKey> keys_;
  uint64_t buffer_bytes_;
  sim::AccessContext* ctx_;
  Schema out_schema_;
  std::vector<std::pair<int, int>> key_cols_;
  KeyLayout inner_key_;  ///< resolved in Open()

  JoinTable block_;        ///< buffered outer rows, keyed
  size_t max_fanout_ = 1;  ///< largest key multiplicity in block_
  bool outer_exhausted_ = false;
  bool block_active_ = false;
  uint32_t match_ = JoinTable::kNone;  ///< next block row matching the probe
  uint64_t blocks_ = 0;
  RowBatch batch_;                       ///< output batch
  RowBatch* inner_batch_ = nullptr;      ///< child-owned probe batch
  size_t inner_pos_ = 0;                 ///< cursor into inner_batch_
  const char* inner_row_ptr_ = nullptr;  ///< current probe row
};

/// Indexed block nested loop join (paper: BNLJI): the inner side is a base
/// table looked up through its primary key or a secondary index on the join
/// column (on-device secondary-index processing, paper Fig. 9).
class BlockNLIndexJoinOp final : public Operator {
 public:
  /// `inner_join_col` is a column name in the *table* schema (unaliased).
  /// Open() rejects a zero `buffer_bytes`, like BlockNLJoinOp.
  BlockNLIndexJoinOp(OperatorPtr outer, std::string outer_key_col,
                     const TableAccessor* inner_table, std::string inner_alias,
                     std::string inner_join_col, lsm::ReadOptions inner_opts,
                     const Expr::Ptr& inner_residual,
                     const std::vector<std::string>& inner_projection,
                     uint64_t buffer_bytes, sim::AccessContext* ctx);

  const Schema& output_schema() const override { return out_schema_; }
  Status Open() override;
  std::string Describe() const override;
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*outer_);
  }

  RowBatch* NextBatch(size_t max_rows) override;

  uint64_t index_lookups() const { return lookups_; }

 private:
  void LoadOuterBlock();
  /// Collect matching inner rows for the current outer row into matches_,
  /// adding the inner predicate's compares to `compares` for the caller to
  /// pay. A secondary-index walk fetches each row, then steps (DESIGN.md
  /// §10).
  Status FetchMatches(const RowView& outer_row, sim::ChargeTally* compares);

  OperatorPtr outer_;
  std::string outer_key_col_;
  const TableAccessor* inner_table_;
  int inner_join_col_ = -1;
  int inner_index_no_ = -1;  ///< -1 = primary key lookup
  lsm::ReadOptions inner_opts_;
  TableStage inner_stage_;
  uint64_t buffer_bytes_;
  sim::AccessContext* ctx_;
  Schema out_schema_;
  int outer_key_idx_ = -1;

  RowStore block_;  ///< buffered outer rows
  size_t block_pos_ = 0;
  lsm::IteratorPtr index_iter_;  ///< reused across lookups
  bool outer_exhausted_ = false;
  RowStore matches_;  ///< projected inner rows of current_outer_
  size_t match_pos_ = 0;
  const char* current_outer_ = nullptr;  ///< row of block_
  uint64_t lookups_ = 0;
  RowBatch batch_;
};

/// Grace hash join: both inputs are hash-partitioned to (simulated) storage,
/// then each partition pair is joined with an in-memory hash table.
class GraceHashJoinOp final : public Operator {
 public:
  GraceHashJoinOp(OperatorPtr left, OperatorPtr right,
                  std::vector<JoinKey> keys, int num_partitions,
                  sim::AccessContext* ctx);

  const Schema& output_schema() const override { return out_schema_; }
  Status Open() override;
  std::string Describe() const override { return "GHJ"; }
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*left_);
    fn(*right_);
  }

  RowBatch* NextBatch(size_t max_rows) override;

 private:
  void Partition(size_t max_rows);
  void StartPartition(size_t p);

  OperatorPtr left_, right_;
  std::vector<JoinKey> keys_;
  int num_partitions_;
  sim::AccessContext* ctx_;
  Schema out_schema_;
  std::vector<std::pair<int, int>> key_cols_;
  std::vector<int> left_key_cols_;  ///< resolved in Open()
  KeyLayout left_key_, right_key_;

  std::vector<JoinTable> left_parts_;  ///< build side, one per partition
  std::vector<RowStore> right_parts_;  ///< probe side
  size_t part_ = 0;
  size_t probe_pos_ = 0;
  uint32_t match_ = JoinTable::kNone;  ///< next build row matching the probe
  bool partitioned_ = false;
  RowBatch batch_;
};

/// Aggregate functions over one column.
enum class AggFn : uint8_t { kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string column;  ///< ignored for COUNT(*)
  std::string output_name;
};

/// Hash GROUP BY + aggregation; with no group columns, a single global
/// aggregate row is produced.
class GroupByAggOp final : public Operator {
 public:
  GroupByAggOp(OperatorPtr child, std::vector<std::string> group_cols,
               std::vector<AggSpec> aggs, sim::AccessContext* ctx);

  const Schema& output_schema() const override { return out_schema_; }
  Status Open() override;
  RowBatch* NextBatch(size_t max_rows) override;
  std::string Describe() const override { return "GroupByAgg"; }
  void ForEachChild(
      const std::function<void(const Operator&)>& fn) const override {
    fn(*child_);
  }

 private:
  struct AggState {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min_int = 0;
    int64_t max_int = 0;
    std::string min_str, max_str;
    bool seen = false;
  };

  Status Consume(size_t max_rows);
  /// Per-row aggregation step (uncharged: Consume bulk-charges per child
  /// batch); returns whether a new group was inserted.
  bool UpdateGroups(const char* row);
  /// Render the group at emit_it_ into a zeroed row buffer of
  /// out_schema_.row_size() bytes.
  void EmitGroupInto(char* dst) const;

  OperatorPtr child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> aggs_;
  sim::AccessContext* ctx_;
  Schema out_schema_;
  std::vector<int> group_idx_;
  std::vector<int> agg_idx_;
  std::string key_buf_;  ///< reused group-key buffer
  std::map<std::string, std::vector<AggState>> groups_;
  std::map<std::string, std::vector<AggState>>::iterator emit_it_;
  bool consumed_ = false;
  RowBatch batch_;
};

/// First non-ok status() in a preorder walk of the operator tree (OK when
/// every operator is clean). Errors swallowed by the nullptr end-of-stream
/// of NextBatch are recovered here.
Status TreeStatus(const Operator& root);

/// Open an operator and drain it to completion, `batch_rows` rows per pull
/// (0 is treated as 1). By the NextBatch contract, rows and simulated
/// metrics do not depend on `batch_rows`.
Result<std::vector<std::string>> CollectAll(Operator* op,
                                            size_t batch_rows = 1024);

}  // namespace hybridndp::exec
