// Differential test of predicate evaluation: random predicate trees over
// random rows, the engine's evaluator against a tree-walking oracle. Both
// must agree on every keep decision and charge the same units and
// picoseconds to every cost kind, on host and device contexts alike.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/expr.h"
#include "rel/schema.h"
#include "sim/cost.h"
#include "sim/hw_model.h"

namespace hybridndp::exec {
namespace {

using rel::ColType;
using rel::RowView;
using rel::Schema;
using sim::AccessContext;
using sim::CostKind;

// ------------------------------------------------------------- the oracle

bool OracleOrdered(int r, CmpOp op) {
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

/// SQL LIKE with '%' and '_', by backtracking over the last '%'.
bool OracleLike(const Slice& value, const Slice& pattern) {
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

/// A CHAR column with its trailing zero padding stripped, a byte at a time
/// (independent of the engine's word-at-a-time rel::TrimmedSize).
Slice OracleString(const RowView& row, int col) {
  const Slice raw = row.GetRaw(col);
  size_t n = raw.size();
  while (n > 0 && raw[n - 1] == '\0') --n;
  return Slice(raw.data(), n);
}

/// The reference semantics and charges: walk the tree row by row, resolve
/// every column by name, charge each compare to `ctx` as it happens.
bool OracleEval(const Expr& e, const RowView& row, AccessContext* ctx) {
  const Schema& schema = row.schema();
  const int col = e.column.empty() ? -1 : schema.Find(e.column);
  switch (e.kind) {
    case ExprKind::kCmpInt: {
      ctx->Charge(CostKind::kMemcmp, 4);
      const int32_t v = row.GetInt(col);
      const int r = v < e.int_value ? -1 : (v > e.int_value ? 1 : 0);
      return OracleOrdered(r, e.op);
    }
    case ExprKind::kCmpStr: {
      const Slice v = OracleString(row, col);
      ctx->Charge(CostKind::kMemcmp,
                  std::min(v.size(), e.str_value.size()) + 1);
      return OracleOrdered(v.compare(Slice(e.str_value)), e.op);
    }
    case ExprKind::kCmpCol: {
      const int col2 = schema.Find(e.column2);
      if (schema.column(col).type == ColType::kInt32) {
        ctx->Charge(CostKind::kMemcmp, 4);
        const int32_t a = row.GetInt(col);
        const int32_t b = row.GetInt(col2);
        return OracleOrdered(a < b ? -1 : (a > b ? 1 : 0), e.op);
      }
      const Slice a = OracleString(row, col);
      const Slice b = OracleString(row, col2);
      ctx->Charge(CostKind::kMemcmp, std::min(a.size(), b.size()) + 1);
      return OracleOrdered(a.compare(b), e.op);
    }
    case ExprKind::kLike: {
      const Slice v = OracleString(row, col);
      ctx->Charge(CostKind::kMemcmp, v.size() + e.str_value.size());
      return OracleLike(v, Slice(e.str_value)) != e.negated;
    }
    case ExprKind::kInStr: {
      const Slice v = OracleString(row, col);
      for (const auto& candidate : e.str_list) {
        ctx->Charge(CostKind::kMemcmp,
                    std::min(v.size(), candidate.size()) + 1);
        if (v == Slice(candidate)) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      ctx->Charge(CostKind::kMemcmp, 8);
      const int32_t v = row.GetInt(col);
      return v >= e.int_value && v <= e.int_value2;
    }
    case ExprKind::kAnd:
      for (const auto& child : e.children) {
        if (!OracleEval(*child, row, ctx)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const auto& child : e.children) {
        if (OracleEval(*child, row, ctx)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !OracleEval(*e.children[0], row, ctx);
    case ExprKind::kIsNotNull: {
      ctx->Charge(CostKind::kMemcmp, 4);
      if (schema.column(col).type == ColType::kInt32) {
        return row.GetInt(col) != 0;
      }
      return !OracleString(row, col).empty();
    }
  }
  return false;
}

// ------------------------------------------------------- the code under test

/// The engine's evaluator for one predicate over one schema: the compiled
/// program, its compares tallied and paid before Keep returns, as the
/// engine's operators pay theirs.
class Subject {
 public:
  Subject(const Expr::Ptr& expr, const Schema& schema) {
    auto program = Predicate::Compile(*expr, schema);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (program.ok()) program_ = std::move(program).value();
  }
  bool Keep(const char* row, AccessContext* ctx) const {
    sim::ChargeTally tally(ctx, CostKind::kMemcmp);
    const bool keep = program_.Eval(row, &tally);
    tally.Pay();
    return keep;
  }

 private:
  Predicate program_;
};

// ---------------------------------------------------------- the generator

/// Columns: three ints and CHAR columns of several widths, so CHAR compares
/// meet both shorter and longer neighbours.
Schema TestSchema() {
  return Schema({rel::IntCol("i0"), rel::IntCol("i1"), rel::IntCol("i2"),
                 rel::CharCol("c4", 4), rel::CharCol("c8", 8),
                 rel::CharCol("c12", 12), rel::CharCol("c20", 20),
                 rel::CharCol("d8", 8)});
}

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  /// A short string over a tiny alphabet, so equalities, prefixes and
  /// LIKE segments hit often. '%' and '_' appear as literal bytes too, and
  /// 0xff checks that compares are unsigned.
  std::string Word(size_t max_len) {
    static const char kAlphabet[] = {'a', 'b', 'a', 'b', 'c', '%', '_', '\xff'};
    const size_t n = rng_.Uniform(max_len + 1);
    std::string s;
    for (size_t i = 0; i < n; ++i) {
      s.push_back(kAlphabet[rng_.Uniform(rng_.Bernoulli(0.8) ? 4 : 8)]);
    }
    return s;
  }

  std::string Row(const Schema& schema) {
    rel::RowBuilder rb(&schema);
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const auto& col = schema.column(c);
      if (col.type == ColType::kInt32) {
        const int32_t v = rng_.Bernoulli(0.1)
                              ? static_cast<int32_t>(rng_.Next())
                              : static_cast<int32_t>(rng_.UniformInt(-3, 3));
        rb.SetInt(static_cast<int>(c), v);
      } else {
        // Some values fill the full width (no zero padding to trim).
        std::string v = rng_.Bernoulli(0.2) ? FullWidth(col.size)
                                            : Word(col.size);
        rb.SetString(static_cast<int>(c), v);
      }
    }
    return rb.row();
  }

  std::string FullWidth(size_t width) {
    std::string s;
    while (s.size() < width) s.push_back(rng_.Bernoulli(0.5) ? 'a' : 'b');
    return s;
  }

  std::string Pattern() {
    switch (rng_.Uniform(12)) {
      case 0:
        return "";  // matches only the empty value
      case 1:
        return "%";
      case 2:
        return "%%";
      case 3:
        return "ab%ba";  // prefix and suffix overlap on "aba"
      case 4:
        return "%" + Word(3);
      case 5:
        return Word(3) + "%";
      case 6:
        return "%" + Word(2) + "%" + Word(2) + "%";
      case 7:
        return Word(2) + "_%" + Word(1);  // '_' mixed with '%'
      case 8:
        return FullWidth(24) + "%";  // longer than any value
      case 9:
        return Word(4);  // no wildcard: an equality
      case 10:
        return Word(2) + "%%" + Word(2);
      default: {
        std::string p;
        const size_t n = rng_.Uniform(7);
        for (size_t i = 0; i < n; ++i) {
          const uint64_t r = rng_.Uniform(6);
          p.push_back(r == 0 ? '%' : r == 1 ? '_' : (r % 2 ? 'a' : 'b'));
        }
        return p;
      }
    }
  }

  CmpOp Op() { return static_cast<CmpOp>(rng_.Uniform(6)); }
  std::string IntCol() { return "i" + std::to_string(rng_.Uniform(3)); }
  std::string CharCol() {
    static const char* kNames[] = {"c4", "c8", "c12", "c20", "d8"};
    return kNames[rng_.Uniform(5)];
  }
  int64_t IntLiteral() {
    switch (rng_.Uniform(8)) {
      case 0:
        return int64_t{INT32_MAX} + 1;  // outside int32
      case 1:
        return int64_t{INT32_MIN} - 1;
      default:
        return rng_.UniformInt(-4, 4);
    }
  }

  Expr::Ptr Leaf() {
    switch (rng_.Uniform(9)) {
      case 0:
        return Expr::CmpInt(IntCol(), Op(), IntLiteral());
      case 1:
        return Expr::CmpStr(CharCol(), Op(), Word(10));
      case 2:
        return Expr::CmpCol(IntCol(), Op(), IntCol());
      case 3:
        return Expr::CmpCol(CharCol(), Op(), CharCol());
      case 4:
        return Expr::Like(CharCol(), Pattern(), rng_.Bernoulli(0.3));
      case 5: {
        std::vector<std::string> list;
        const size_t n = rng_.Uniform(5);
        for (size_t i = 0; i < n; ++i) list.push_back(Word(6));
        return Expr::InStr(CharCol(), std::move(list));
      }
      case 6: {
        const int64_t lo = IntLiteral();
        return Expr::Between(IntCol(), lo, lo + rng_.UniformInt(-1, 4));
      }
      case 7:
        return Expr::IsNotNull(IntCol());
      default:
        return Expr::IsNotNull(CharCol());
    }
  }

  Expr::Ptr Tree(int depth) {
    if (depth == 0 || rng_.Bernoulli(0.35)) return Leaf();
    switch (rng_.Uniform(3)) {
      case 0:
        return Expr::Not(Tree(depth - 1));
      default: {
        std::vector<Expr::Ptr> children;
        const size_t n = 1 + rng_.Uniform(4);
        for (size_t i = 0; i < n; ++i) children.push_back(Tree(depth - 1));
        return rng_.Bernoulli(0.5) ? Expr::And(std::move(children))
                                   : Expr::Or(std::move(children));
      }
    }
  }

 private:
  Rng rng_;
};

// ---------------------------------------------------------------- the test

struct ContextSpec {
  const char* name;
  sim::Actor actor;
  sim::IoPath path;
  double copy_factor;
};

constexpr ContextSpec kContexts[] = {
    {"host", sim::Actor::kHost, sim::IoPath::kNative, 1.0},
    {"device", sim::Actor::kDevice, sim::IoPath::kInternal, 1.0},
    {"device copy 0.15", sim::Actor::kDevice, sim::IoPath::kInternal, 0.15},
};

TEST(PredicateDiffTest, AgreesWithTheTreeOracle) {
  const sim::HwParams hw = sim::HwParams::PaperDefaults();
  const Schema schema = TestSchema();
  Gen gen(20241020);
  std::vector<std::string> rows;
  for (int i = 0; i < 96; ++i) rows.push_back(gen.Row(schema));

  uint64_t kept = 0, evaluated = 0;
  for (int t = 0; t < 600; ++t) {
    const Expr::Ptr expr = gen.Tree(3);
    const Subject subject(expr, schema);
    for (const ContextSpec& spec : kContexts) {
      AccessContext want(&hw, spec.actor, spec.path);
      AccessContext got(&hw, spec.actor, spec.path);
      want.SetCopyFactor(spec.copy_factor);
      got.SetCopyFactor(spec.copy_factor);
      for (size_t r = 0; r < rows.size(); ++r) {
        const bool w = OracleEval(*expr, RowView(rows[r].data(), &schema),
                                  &want);
        const bool g = subject.Keep(rows[r].data(), &got);
        ASSERT_EQ(g, w) << expr->ToString() << " on row " << r << " ("
                        << spec.name << ")";
        // Cumulative equality after every row pins each row's charges.
        ASSERT_EQ(got.counters().units, want.counters().units)
            << expr->ToString() << " on row " << r << " (" << spec.name
            << ")";
        ASSERT_EQ(got.counters().time_ps, want.counters().time_ps)
            << expr->ToString() << " on row " << r << " (" << spec.name
            << ")";
        ASSERT_EQ(got.clock().now_ps(), want.clock().now_ps());
        kept += g;
        ++evaluated;
      }
    }
  }
  // The generator must exercise both outcomes substantially.
  EXPECT_GT(kept, evaluated / 10);
  EXPECT_LT(kept, evaluated * 9 / 10);
}

TEST(PredicateDiffTest, LikeEdgeCases) {
  const sim::HwParams hw = sim::HwParams::PaperDefaults();
  const Schema schema({rel::CharCol("s", 8)});
  const std::vector<std::string> values = {"",     "a",     "ab",   "aba",
                                           "abba", "%",     "a_b",  "abab",
                                           "ba",   "aaaab", "abcdefgh"};
  const std::vector<std::string> patterns = {
      "",    "%",     "%%",   "%%%",  "_",     "ab%ba", "ab%",  "%ba",
      "a%b", "%b%",   "a_%",  "%_",   "_%_",   "a%%b",  "aba",  "abab%",
      "%ab", "%a%b%", "abcdefghi%", "%abcdefghi", "ab%b%ab", "a%a%a"};
  for (const std::string& v : values) {
    rel::RowBuilder rb(&schema);
    rb.SetString(0, v);
    for (const std::string& p : patterns) {
      for (bool negated : {false, true}) {
        const Expr::Ptr expr = Expr::Like("s", p, negated);
        const Subject subject(expr, schema);
        AccessContext want(&hw, sim::Actor::kHost, sim::IoPath::kNative);
        AccessContext got(&hw, sim::Actor::kHost, sim::IoPath::kNative);
        EXPECT_EQ(subject.Keep(rb.row().data(), &got),
                  OracleEval(*expr, RowView(rb.row().data(), &schema), &want))
            << "'" << v << "' LIKE '" << p << "'";
        EXPECT_EQ(got.counters().time_ps, want.counters().time_ps);
      }
    }
  }
}

}  // namespace
}  // namespace hybridndp::exec
