// Predicate/expression trees over fixed-size rows. Expressions are built
// against column *names*; Bind() resolves a tree against a concrete Schema
// into the caller's own copy, so plan trees stay read-only and concurrent
// runs share them. The planner introspects expressions to estimate
// selectivities (calc_sel).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/schema.h"
#include "sim/cost.h"

namespace hybridndp::exec {

using rel::RowView;
using rel::Schema;

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

enum class ExprKind : uint8_t {
  kCmpInt,     ///< column <op> int literal
  kCmpStr,     ///< column <op> string literal
  kCmpCol,     ///< column <op> column (same row; used post-join)
  kLike,       ///< column LIKE pattern ('%' wildcards), or NOT LIKE
  kInStr,      ///< column IN (string list)
  kBetween,    ///< int column BETWEEN lo AND hi
  kAnd,
  kOr,
  kNot,
  kIsNotNull,  ///< column non-empty / non-zero
};

/// One expression node. Trees are immutable after construction; Bind()
/// returns a copy with column names resolved to indexes for one schema.
class Expr {
 public:
  using Ptr = std::shared_ptr<Expr>;

  ExprKind kind;
  std::string column;        ///< lhs column name (leaf nodes)
  std::string column2;       ///< rhs column name (kCmpCol)
  CmpOp op = CmpOp::kEq;
  int64_t int_value = 0;     ///< rhs int (kCmpInt), lo (kBetween)
  int64_t int_value2 = 0;    ///< hi (kBetween)
  std::string str_value;     ///< rhs string / LIKE pattern
  std::vector<std::string> str_list;  ///< kInStr
  bool negated = false;      ///< NOT LIKE
  std::vector<Ptr> children; ///< kAnd / kOr / kNot

  // Bound state (set in the copies Bind returns).
  int col_index = -1;
  int col_index2 = -1;

  /// Deep copy of the tree with column names resolved against `schema`.
  /// Fails if a referenced column is missing. Leaves this tree untouched.
  Result<Ptr> Bind(const Schema& schema) const;

  /// Evaluate a tree returned by Bind against a row of its schema; charges
  /// comparison costs to ctx when set.
  bool Eval(const RowView& row, sim::AccessContext* ctx) const;

  /// Human-readable rendering for plan explains.
  std::string ToString() const;

  // ---- constructors ----
  static Ptr CmpInt(std::string col, CmpOp op, int64_t v);
  static Ptr CmpStr(std::string col, CmpOp op, std::string v);
  static Ptr CmpCol(std::string col, CmpOp op, std::string col2);
  static Ptr Like(std::string col, std::string pattern, bool negated = false);
  static Ptr InStr(std::string col, std::vector<std::string> values);
  static Ptr Between(std::string col, int64_t lo, int64_t hi);
  static Ptr And(std::vector<Ptr> children);
  static Ptr Or(std::vector<Ptr> children);
  static Ptr Not(Ptr child);
  static Ptr IsNotNull(std::string col);

  /// Split a (possibly nested) AND tree into conjuncts.
  static void SplitConjuncts(const Ptr& expr, std::vector<Ptr>* out);
};

/// SQL LIKE with '%' (any run) and '_' (single char) against a value.
bool LikeMatch(const Slice& value, const Slice& pattern);

}  // namespace hybridndp::exec
