// Predicate/expression trees over fixed-size rows. Expressions are built
// against column *names* and stay read-only, so concurrent runs share plan
// trees; Predicate::Compile turns one into a flat program for a concrete
// Schema, which is what operators evaluate. The planner introspects
// expressions to estimate selectivities (calc_sel).

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

/// One expression node. Trees are immutable after construction; operators
/// evaluate the Predicate compiled from them.
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

/// SQL LIKE with '%' (any run) and '_' (single char) against a value, by
/// backtracking over the last '%'.
bool LikeMatch(const Slice& value, const Slice& pattern);

/// An expression compiled against one schema: a flat pre-order program
/// whose leaves carry their fields' resolved offsets and widths. Eval runs
/// it on one row with the tree's short circuits and adds each compare's
/// kMemcmp charge to a tally: the same charges, in the same number and
/// size, that walking the tree row by row would make. The caller pays the
/// tally before it returns or pulls a child (DESIGN.md §10). A
/// default-constructed Predicate keeps every row.
class Predicate {
 public:
  Predicate() = default;

  /// Compile `expr` against `schema`. Fails if a referenced column is
  /// missing.
  static Result<Predicate> Compile(const Expr& expr, const Schema& schema);

  /// Whether `row` (laid out by the compile schema) passes.
  bool Eval(const char* row, sim::ChargeTally* tally) const {
    return code_.empty() || Run(0, row, tally);
  }

 private:
  enum class Op : uint8_t {
    kCmpInt,       ///< int field <op> literal
    kCmpStr,       ///< CHAR field <op> literal
    kCmpIntCol,    ///< int field <op> int field
    kCmpStrCol,    ///< CHAR field <op> CHAR field
    kLikeSegments, ///< LIKE with '%' only: prefix, suffix, middles in order
    kLikeGeneral,  ///< LIKE with '_' or no wildcard: LikeMatch
    kInStr,
    kBetween,
    kIntNotNull,
    kStrNotNull,
    kAnd,
    kOr,
    kNot,
  };

  struct Instr {
    Op op;
    CmpOp cmp = CmpOp::kEq;
    bool negated = false;  ///< NOT LIKE
    uint32_t end = 0;      ///< one past this node's subtree
    uint32_t offset = 0, width = 0;    ///< lhs field
    uint32_t offset2 = 0, width2 = 0;  ///< rhs field (column compares)
    int64_t lo = 0, hi = 0;            ///< int literal / BETWEEN bounds
    /// Literals in strings_: the compare literal, the IN list, the LIKE
    /// pattern (kLikeGeneral) or its prefix, suffix and
    /// non-empty middle segments (kLikeSegments).
    uint32_t str_begin = 0, str_count = 0;
    uint32_t pattern_size = 0;  ///< LIKE: the charged pattern length
  };

  Status Emit(const Expr& expr, const Schema& schema);
  bool Run(uint32_t pc, const char* row, sim::ChargeTally* tally) const;

  std::vector<Instr> code_;
  std::vector<std::string> strings_;
};

}  // namespace hybridndp::exec
