#include "exec/expr.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/coding.h"
#include "lsm/internal_key.h"

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

int CompareInt(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// Whether the `n` bytes at a and b are equal, a word at a time: the
/// values and literals compared here are a few bytes long, shorter than a
/// libc call is worth.
bool BytesEqual(const char* a, const char* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (DecodeFixed64(a + i) != DecodeFixed64(b + i)) return false;
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// First position >= `from` where `seg` starts and ends by `limit`, or
/// npos: a first-byte scan, then a compare of the rest.
size_t FindSegment(const char* v, size_t from, size_t limit,
                   const std::string& seg) {
  const char first = seg[0];
  for (size_t i = from; i + seg.size() <= limit; ++i) {
    if (v[i] == first &&
        BytesEqual(v + i + 1, seg.data() + 1, seg.size() - 1)) {
      return i;
    }
  }
  return std::string::npos;
}

/// LIKE with '%' as its only wildcard, against the `n` bytes at `v`: segs
/// holds the prefix, the suffix and then the non-empty middle segments.
/// Each middle goes at its leftmost place after the previous one, which
/// finds a match whenever one exists.
bool LikeSegments(const char* v, size_t n, const std::string* segs,
                  size_t count) {
  const std::string& prefix = segs[0];
  const std::string& suffix = segs[1];
  if (n < prefix.size() + suffix.size() ||
      !BytesEqual(v, prefix.data(), prefix.size()) ||
      !BytesEqual(v + n - suffix.size(), suffix.data(), suffix.size())) {
    return false;
  }
  size_t pos = prefix.size();
  const size_t limit = n - suffix.size();
  for (size_t i = 2; i < count; ++i) {
    const size_t at = FindSegment(v, pos, limit, segs[i]);
    if (at == std::string::npos) return false;
    pos = at + segs[i].size();
  }
  return true;
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
  // Iterative wildcard matching with backtracking over the last '%'. A '%'
  // in the pattern is always a wildcard, also where the value holds a '%'.
  size_t v = 0, p = 0;
  size_t star_p = std::string::npos, star_v = 0;
  while (v < value.size()) {
    if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (p < pattern.size() &&
               (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
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

// ----------------------------------------------------------------- Predicate

Result<Predicate> Predicate::Compile(const Expr& expr, const Schema& schema) {
  Predicate p;
  HNDP_RETURN_IF_ERROR(p.Emit(expr, schema));
  return p;
}

Status Predicate::Emit(const Expr& expr, const Schema& schema) {
  const uint32_t pc = static_cast<uint32_t>(code_.size());
  code_.push_back(Instr{});
  Instr in;
  in.cmp = expr.op;
  in.negated = expr.negated;
  in.lo = expr.int_value;
  in.hi = expr.int_value2;
  in.str_begin = static_cast<uint32_t>(strings_.size());
  bool is_int = false;
  if (!expr.column.empty()) {
    const int col = schema.Find(expr.column);
    if (col < 0) {
      return Status::InvalidArgument("unknown column: " + expr.column);
    }
    in.offset = schema.offset(col);
    in.width = schema.column(col).size;
    is_int = schema.column(col).type == rel::ColType::kInt32;
  }
  if (!expr.column2.empty()) {
    const int col = schema.Find(expr.column2);
    if (col < 0) {
      return Status::InvalidArgument("unknown column: " + expr.column2);
    }
    in.offset2 = schema.offset(col);
    in.width2 = schema.column(col).size;
  }
  switch (expr.kind) {
    case ExprKind::kCmpInt:
      in.op = Op::kCmpInt;
      break;
    case ExprKind::kCmpStr:
      in.op = Op::kCmpStr;
      strings_.push_back(expr.str_value);
      break;
    case ExprKind::kCmpCol:
      // The lhs column's type decides, as it always has.
      in.op = is_int ? Op::kCmpIntCol : Op::kCmpStrCol;
      break;
    case ExprKind::kLike: {
      const std::string& pattern = expr.str_value;
      in.pattern_size = static_cast<uint32_t>(pattern.size());
      if (pattern.find('_') != std::string::npos ||
          pattern.find('%') == std::string::npos) {
        in.op = Op::kLikeGeneral;
        strings_.push_back(pattern);
      } else {
        // Split at '%': prefix, suffix, then the non-empty middles.
        in.op = Op::kLikeSegments;
        const size_t first = pattern.find('%');
        const size_t last = pattern.rfind('%');
        strings_.push_back(pattern.substr(0, first));
        strings_.push_back(pattern.substr(last + 1));
        size_t pos = first + 1;
        while (pos < last) {
          const size_t next = pattern.find('%', pos);
          if (next > pos) strings_.push_back(pattern.substr(pos, next - pos));
          pos = next + 1;
        }
      }
      break;
    }
    case ExprKind::kInStr:
      in.op = Op::kInStr;
      strings_.insert(strings_.end(), expr.str_list.begin(),
                      expr.str_list.end());
      break;
    case ExprKind::kBetween:
      in.op = Op::kBetween;
      break;
    case ExprKind::kIsNotNull:
      in.op = is_int ? Op::kIntNotNull : Op::kStrNotNull;
      break;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      in.op = expr.kind == ExprKind::kAnd  ? Op::kAnd
              : expr.kind == ExprKind::kOr ? Op::kOr
                                           : Op::kNot;
      for (const auto& child : expr.children) {
        HNDP_RETURN_IF_ERROR(Emit(*child, schema));
      }
      break;
  }
  in.str_count = static_cast<uint32_t>(strings_.size()) - in.str_begin;
  in.end = static_cast<uint32_t>(code_.size());
  code_[pc] = in;
  return Status::OK();
}

bool Predicate::Run(uint32_t pc, const char* row,
                    sim::ChargeTally* tally) const {
  const Instr& in = code_[pc];
  const char* field = row + in.offset;
  switch (in.op) {
    case Op::kCmpInt:
      tally->Add(4);
      return CompareOrdered(
          CompareInt(static_cast<int32_t>(DecodeFixed32(field)), in.lo),
          in.cmp);
    case Op::kCmpStr: {
      const Slice v(field, rel::TrimmedSize(field, in.width));
      const std::string& lit = strings_[in.str_begin];
      tally->Add(std::min(v.size(), lit.size()) + 1);
      return CompareOrdered(lsm::CompareUserKey(v, Slice(lit)), in.cmp);
    }
    case Op::kCmpIntCol:
      tally->Add(4);
      return CompareOrdered(
          CompareInt(static_cast<int32_t>(DecodeFixed32(field)),
                     static_cast<int32_t>(DecodeFixed32(row + in.offset2))),
          in.cmp);
    case Op::kCmpStrCol: {
      const Slice a(field, rel::TrimmedSize(field, in.width));
      const char* field2 = row + in.offset2;
      const Slice b(field2, rel::TrimmedSize(field2, in.width2));
      tally->Add(std::min(a.size(), b.size()) + 1);
      return CompareOrdered(lsm::CompareUserKey(a, b), in.cmp);
    }
    case Op::kLikeSegments:
    case Op::kLikeGeneral: {
      const size_t n = rel::TrimmedSize(field, in.width);
      // LIKE scans the value, possibly with backtracking; charge linear.
      tally->Add(n + in.pattern_size);
      const bool match =
          in.op == Op::kLikeGeneral
              ? LikeMatch(Slice(field, n), Slice(strings_[in.str_begin]))
              : LikeSegments(field, n, &strings_[in.str_begin], in.str_count);
      return match != in.negated;
    }
    case Op::kInStr: {
      const size_t n = rel::TrimmedSize(field, in.width);
      for (uint32_t i = 0; i < in.str_count; ++i) {
        const std::string& candidate = strings_[in.str_begin + i];
        tally->Add(std::min(n, candidate.size()) + 1);
        if (n == candidate.size() && BytesEqual(field, candidate.data(), n)) {
          return true;
        }
      }
      return false;
    }
    case Op::kBetween: {
      tally->Add(8);
      const int32_t v = static_cast<int32_t>(DecodeFixed32(field));
      return v >= in.lo && v <= in.hi;
    }
    case Op::kIntNotNull:
      tally->Add(4);
      return DecodeFixed32(field) != 0;
    case Op::kStrNotNull:
      tally->Add(4);
      return rel::TrimmedSize(field, in.width) != 0;
    case Op::kAnd:
      for (uint32_t c = pc + 1; c < in.end; c = code_[c].end) {
        if (!Run(c, row, tally)) return false;
      }
      return true;
    case Op::kOr:
      for (uint32_t c = pc + 1; c < in.end; c = code_[c].end) {
        if (Run(c, row, tally)) return true;
      }
      return false;
    case Op::kNot:
      return !Run(pc + 1, row, tally);
  }
  return false;
}

}  // namespace hybridndp::exec
