#include "exec/expr.h"

#include <sstream>

namespace hybridndp::exec {

namespace {
bool CompareOrdered(int r, CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return r == 0;
    case CmpOp::kNe:
      return r != 0;
    case CmpOp::kLt:
      return r < 0;
    case CmpOp::kLe:
      return r <= 0;
    case CmpOp::kGt:
      return r > 0;
    case CmpOp::kGe:
      return r >= 0;
  }
  return false;
}

const char* OpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}
}  // namespace

bool LikeMatch(const Slice& value, const Slice& pattern) {
  // Iterative wildcard matching with backtracking over the last '%'.
  size_t v = 0, p = 0;
  size_t star_p = std::string::npos, star_v = 0;
  while (v < value.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Expr::Ptr> Expr::Bind(const Schema& schema) const {
  auto bound = std::make_shared<Expr>(*this);
  for (auto& child : bound->children) {
    HNDP_ASSIGN_OR_RETURN(child, child->Bind(schema));
  }
  if (!column.empty()) {
    bound->col_index = schema.Find(column);
    if (bound->col_index < 0) {
      return Status::InvalidArgument("unknown column: " + column);
    }
  }
  if (!column2.empty()) {
    bound->col_index2 = schema.Find(column2);
    if (bound->col_index2 < 0) {
      return Status::InvalidArgument("unknown column: " + column2);
    }
  }
  return bound;
}

bool Expr::Eval(const RowView& row, sim::AccessContext* ctx) const {
  switch (kind) {
    case ExprKind::kCmpInt: {
      if (ctx != nullptr) ctx->Charge(sim::CostKind::kMemcmp, 4);
      const int32_t v = row.GetInt(col_index);
      const int r = v < int_value ? -1 : (v > int_value ? 1 : 0);
      return CompareOrdered(r, op);
    }
    case ExprKind::kCmpStr: {
      const Slice v = row.GetString(col_index);
      if (ctx != nullptr) {
        ctx->Charge(sim::CostKind::kMemcmp,
                    std::min(v.size(), str_value.size()) + 1);
      }
      return CompareOrdered(v.compare(Slice(str_value)), op);
    }
    case ExprKind::kCmpCol: {
      const auto& col_a = row.schema().column(col_index);
      if (col_a.type == rel::ColType::kInt32) {
        if (ctx != nullptr) ctx->Charge(sim::CostKind::kMemcmp, 4);
        const int32_t a = row.GetInt(col_index);
        const int32_t b = row.GetInt(col_index2);
        const int r = a < b ? -1 : (a > b ? 1 : 0);
        return CompareOrdered(r, op);
      }
      const Slice a = row.GetString(col_index);
      const Slice b = row.GetString(col_index2);
      if (ctx != nullptr) {
        ctx->Charge(sim::CostKind::kMemcmp, std::min(a.size(), b.size()) + 1);
      }
      return CompareOrdered(a.compare(b), op);
    }
    case ExprKind::kLike: {
      const Slice v = row.GetString(col_index);
      if (ctx != nullptr) {
        // LIKE scans the value, possibly with backtracking; charge linear.
        ctx->Charge(sim::CostKind::kMemcmp, v.size() + str_value.size());
      }
      const bool m = LikeMatch(v, Slice(str_value));
      return negated ? !m : m;
    }
    case ExprKind::kInStr: {
      const Slice v = row.GetString(col_index);
      for (const auto& candidate : str_list) {
        if (ctx != nullptr) {
          ctx->Charge(sim::CostKind::kMemcmp,
                      std::min(v.size(), candidate.size()) + 1);
        }
        if (v == Slice(candidate)) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      if (ctx != nullptr) ctx->Charge(sim::CostKind::kMemcmp, 8);
      const int32_t v = row.GetInt(col_index);
      return v >= int_value && v <= int_value2;
    }
    case ExprKind::kAnd:
      for (const auto& child : children) {
        if (!child->Eval(row, ctx)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const auto& child : children) {
        if (child->Eval(row, ctx)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !children[0]->Eval(row, ctx);
    case ExprKind::kIsNotNull: {
      if (ctx != nullptr) ctx->Charge(sim::CostKind::kMemcmp, 4);
      if (row.schema().column(col_index).type == rel::ColType::kInt32) {
        return row.GetInt(col_index) != 0;
      }
      return !row.GetString(col_index).empty();
    }
  }
  return false;
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case ExprKind::kCmpInt:
      os << column << " " << OpName(op) << " " << int_value;
      break;
    case ExprKind::kCmpStr:
      os << column << " " << OpName(op) << " '" << str_value << "'";
      break;
    case ExprKind::kCmpCol:
      os << column << " " << OpName(op) << " " << column2;
      break;
    case ExprKind::kLike:
      os << column << (negated ? " NOT LIKE '" : " LIKE '") << str_value
         << "'";
      break;
    case ExprKind::kInStr: {
      os << column << " IN (";
      for (size_t i = 0; i < str_list.size(); ++i) {
        os << (i ? ", '" : "'") << str_list[i] << "'";
      }
      os << ")";
      break;
    }
    case ExprKind::kBetween:
      os << column << " BETWEEN " << int_value << " AND " << int_value2;
      break;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const char* sep = kind == ExprKind::kAnd ? " AND " : " OR ";
      os << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        os << (i ? sep : "") << children[i]->ToString();
      }
      os << ")";
      break;
    }
    case ExprKind::kNot:
      os << "NOT (" << children[0]->ToString() << ")";
      break;
    case ExprKind::kIsNotNull:
      os << column << " IS NOT NULL";
      break;
  }
  return os.str();
}

Expr::Ptr Expr::CmpInt(std::string col, CmpOp op, int64_t v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCmpInt;
  e->column = std::move(col);
  e->op = op;
  e->int_value = v;
  return e;
}

Expr::Ptr Expr::CmpStr(std::string col, CmpOp op, std::string v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCmpStr;
  e->column = std::move(col);
  e->op = op;
  e->str_value = std::move(v);
  return e;
}

Expr::Ptr Expr::CmpCol(std::string col, CmpOp op, std::string col2) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCmpCol;
  e->column = std::move(col);
  e->op = op;
  e->column2 = std::move(col2);
  return e;
}

Expr::Ptr Expr::Like(std::string col, std::string pattern, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLike;
  e->column = std::move(col);
  e->str_value = std::move(pattern);
  e->negated = negated;
  return e;
}

Expr::Ptr Expr::InStr(std::string col, std::vector<std::string> values) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kInStr;
  e->column = std::move(col);
  e->str_list = std::move(values);
  return e;
}

Expr::Ptr Expr::Between(std::string col, int64_t lo, int64_t hi) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBetween;
  e->column = std::move(col);
  e->int_value = lo;
  e->int_value2 = hi;
  return e;
}

Expr::Ptr Expr::And(std::vector<Ptr> children) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAnd;
  e->children = std::move(children);
  return e;
}

Expr::Ptr Expr::Or(std::vector<Ptr> children) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kOr;
  e->children = std::move(children);
  return e;
}

Expr::Ptr Expr::Not(Ptr child) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

Expr::Ptr Expr::IsNotNull(std::string col) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIsNotNull;
  e->column = std::move(col);
  return e;
}

void Expr::SplitConjuncts(const Ptr& expr, std::vector<Ptr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kAnd) {
    for (const auto& child : expr->children) SplitConjuncts(child, out);
  } else {
    out->push_back(expr);
  }
}

}  // namespace hybridndp::exec
