#include "hybrid/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace hybridndp::hybrid {

namespace {

/// usr_rec (paper Table 1): row evaluation cost, abstract cycles.
constexpr double kUsrRecCycles = 170;
/// Index access is preferred when the predicate keeps less than this
/// fraction of the table (the access-path selectivity threshold).
constexpr double kIndexSelectivityThreshold = 0.15;
/// Preconditions (Sect. 3.3): minimum tables for a split.
constexpr int kMinTablesForSplit = 2;

/// Strip an "alias." prefix from a column reference.
std::string Unalias(const std::string& name, const std::string& alias) {
  const std::string prefix = alias + ".";
  if (name.rfind(prefix, 0) == 0) return name.substr(prefix.size());
  return name;
}

}  // namespace

double EstimateSelectivity(const exec::Expr* expr,
                           const rel::TableStats& stats,
                           const rel::Schema& schema,
                           const std::string& alias) {
  using exec::CmpOp;
  using exec::ExprKind;
  if (expr == nullptr || stats.empty()) return 1.0;

  auto col_stats = [&](const std::string& name) -> const rel::ColumnStats* {
    const int idx = schema.Find(Unalias(name, alias));
    if (idx < 0) return nullptr;
    return &stats.col(idx);
  };

  switch (expr->kind) {
    case ExprKind::kCmpInt: {
      const rel::ColumnStats* cs = col_stats(expr->column);
      if (cs == nullptr) return 0.3;
      const int64_t v = expr->int_value;
      switch (expr->op) {
        case CmpOp::kEq:
          return cs->EqSelectivity(v);
        case CmpOp::kNe:
          return 1.0 - cs->EqSelectivity(v);
        case CmpOp::kLt:
          return cs->LeSelectivity(v - 1);
        case CmpOp::kLe:
          return cs->LeSelectivity(v);
        case CmpOp::kGt:
          return 1.0 - cs->LeSelectivity(v);
        case CmpOp::kGe:
          return 1.0 - cs->LeSelectivity(v - 1);
      }
      return 0.3;
    }
    case ExprKind::kCmpStr: {
      const rel::ColumnStats* cs = col_stats(expr->column);
      if (cs == nullptr || cs->ndv == 0) return 0.1;
      const double eq = 1.0 / static_cast<double>(cs->ndv);
      return expr->op == CmpOp::kEq ? eq
             : expr->op == CmpOp::kNe ? 1.0 - eq
                                      : 0.3;
    }
    case ExprKind::kCmpCol:
      return 0.1;  // same-row column comparison: heuristic
    case ExprKind::kLike: {
      // MySQL-style heuristics: prefix patterns are more selective than
      // contains patterns.
      double s = expr->str_value.rfind('%', 0) == 0 ? 0.08 : 0.03;
      return expr->negated ? 1.0 - s : s;
    }
    case ExprKind::kInStr: {
      const rel::ColumnStats* cs = col_stats(expr->column);
      if (cs == nullptr || cs->ndv == 0) return 0.2;
      return std::min(1.0, static_cast<double>(expr->str_list.size()) /
                               static_cast<double>(cs->ndv));
    }
    case ExprKind::kBetween: {
      const rel::ColumnStats* cs = col_stats(expr->column);
      if (cs == nullptr) return 0.25;
      return cs->RangeSelectivity(expr->int_value, expr->int_value2);
    }
    case ExprKind::kAnd: {
      double s = 1.0;
      for (const auto& child : expr->children) {
        s *= EstimateSelectivity(child.get(), stats, schema, alias);
      }
      return s;
    }
    case ExprKind::kOr: {
      double s = 1.0;
      for (const auto& child : expr->children) {
        s *= 1.0 - EstimateSelectivity(child.get(), stats, schema, alias);
      }
      return 1.0 - s;
    }
    case ExprKind::kNot:
      return 1.0 -
             EstimateSelectivity(expr->children[0].get(), stats, schema, alias);
    case ExprKind::kIsNotNull: {
      const rel::ColumnStats* cs = col_stats(expr->column);
      return cs == nullptr ? 0.95 : 1.0 - cs->null_fraction;
    }
  }
  return 1.0;
}

void Planner::ChooseAccessPath(PlannedTable* pt) const {
  const rel::Table& table = *pt->table;
  nkv::TableAccess& access = pt->access;
  const exec::Expr::Ptr& predicate = access.predicate;
  const std::string& alias = access.alias;
  pt->est.selectivity = EstimateSelectivity(predicate.get(), table.stats(),
                                            table.schema(), alias);
  pt->est.est_rows_out = std::max<uint64_t>(
      1, static_cast<uint64_t>(pt->est.selectivity *
                               static_cast<double>(table.row_count())));

  // Look for an index-usable range conjunct on an indexed int column.
  if (predicate == nullptr) return;
  std::vector<exec::Expr::Ptr> conjuncts;
  exec::Expr::SplitConjuncts(predicate, &conjuncts);
  double best_sel = kIndexSelectivityThreshold;
  for (const auto& c : conjuncts) {
    if (c->column.empty()) continue;
    const int col = table.schema().Find(Unalias(c->column, alias));
    if (col < 0) continue;
    const int index_no = table.FindIndexOn(col);
    if (index_no < 0) continue;
    if (table.schema().column(col).type != rel::ColType::kInt32) continue;

    int64_t lo = std::numeric_limits<int32_t>::min();
    int64_t hi = std::numeric_limits<int32_t>::max();
    bool usable = true;
    switch (c->kind) {
      case exec::ExprKind::kCmpInt:
        switch (c->op) {
          case exec::CmpOp::kEq:
            lo = hi = c->int_value;
            break;
          case exec::CmpOp::kLe:
            hi = c->int_value;
            break;
          case exec::CmpOp::kLt:
            hi = c->int_value - 1;
            break;
          case exec::CmpOp::kGe:
            lo = c->int_value;
            break;
          case exec::CmpOp::kGt:
            lo = c->int_value + 1;
            break;
          default:
            usable = false;
        }
        break;
      case exec::ExprKind::kBetween:
        lo = c->int_value;
        hi = c->int_value2;
        break;
      default:
        usable = false;
    }
    if (!usable) continue;
    const double sel = EstimateSelectivity(c.get(), table.stats(),
                                           table.schema(), alias);
    if (sel < best_sel) {
      best_sel = sel;
      access.use_index_scan = true;
      access.index_no = static_cast<size_t>(index_no);
      access.index_lo = lo;
      access.index_hi = hi;
    }
  }
}

uint64_t Planner::EstimateJoinRows(uint64_t prefix_rows, const PlannedTable& pt,
                                   int inner_key_col) const {
  // |P join T| ~= |P| * |T_sel| / ndv(T.key)  (System-R style).
  const rel::TableStats& stats = pt.table->stats();
  uint64_t ndv = 1;
  if (inner_key_col >= 0 && !stats.empty()) {
    ndv = std::max<uint64_t>(1, stats.col(inner_key_col).ndv);
  }
  const double rows = static_cast<double>(prefix_rows) *
                      static_cast<double>(pt.est.est_rows_out) /
                      static_cast<double>(ndv);
  return std::max<uint64_t>(1, static_cast<uint64_t>(rows));
}

Result<Plan> Planner::PlanQuery(const Query& query) const {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query without tables");
  }
  HNDP_RETURN_IF_ERROR(nkv::CheckBufferConfig(config_.buffers));
  if (config_.host_join_buffer_bytes == 0) {
    return Status::InvalidArgument("zero-byte host join buffer");
  }
  Plan plan;
  plan.query = query;
  const auto& hw = *hw_;

  // ---- Columns each table must contribute upstream (early projection).
  std::set<std::string> needed;
  for (const auto& e : query.joins) {
    needed.insert(e.LeftName());
    needed.insert(e.RightName());
  }
  for (const auto& c : query.select_columns) needed.insert(c);
  for (const auto& c : query.group_cols) needed.insert(c);
  for (const auto& a : query.aggs) {
    if (!a.column.empty()) needed.insert(a.column);
  }

  // ---- Per-table access paths: one candidate position per query table.
  std::vector<PlannedTable> cands;
  for (const auto& ref : query.tables) {
    const rel::Table* table = catalog_->Get(ref.table);
    if (table == nullptr) {
      return Status::InvalidArgument("unknown table: " + ref.table);
    }
    PlannedTable c;
    c.table = table;
    c.access.alias = ref.alias;
    c.access.predicate = ref.predicate;
    // Projection: needed columns of this alias, in schema order.
    for (size_t col = 0; col < table->schema().num_columns(); ++col) {
      const std::string aliased =
          ref.alias + "." + table->schema().column(col).name;
      if (needed.count(aliased)) {
        c.access.projection.push_back(aliased);
        c.est.proj_bytes += table->schema().column(col).size;
      }
    }
    if (c.access.projection.empty()) {
      // A table must contribute at least its pk to stay joinable.
      const auto& pk = table->schema().column(table->def().pk_col);
      c.access.projection.push_back(ref.alias + "." + pk.name);
      c.est.proj_bytes += pk.size;
    }
    ChooseAccessPath(&c);
    cands.push_back(std::move(c));
  }

  // ---- Greedy left-deep join order: start at the cheapest table, then
  // repeatedly add the connected table with the smallest estimated result
  // (paper Sect. 3.3: cumulative addition in ascending cost order).
  std::vector<bool> used(cands.size(), false);
  std::set<std::string> prefix_aliases;

  auto edges_to_prefix = [&](const PlannedTable& cand) {
    std::vector<JoinEdge> out;
    const std::string& alias = cand.access.alias;
    for (const auto& e : query.joins) {
      if (e.left_alias == alias && prefix_aliases.count(e.right_alias)) {
        // Normalize: prefix side left.
        out.push_back(JoinEdge{e.right_alias, e.right_col, e.left_alias,
                               e.left_col});
      } else if (e.right_alias == alias && prefix_aliases.count(e.left_alias)) {
        out.push_back(e);
      }
    }
    return out;
  };

  // First table: smallest estimated post-selection cardinality.
  size_t first = 0;
  for (size_t i = 1; i < cands.size(); ++i) {
    if (cands[i].est.est_rows_out < cands[first].est.est_rows_out) {
      first = i;
    }
  }

  uint64_t prefix_rows = cands[first].est.est_rows_out;
  used[first] = true;
  prefix_aliases.insert(cands[first].access.alias);
  plan.order.push_back(std::move(cands[first]));
  plan.order.back().est_prefix_rows = prefix_rows;

  while (plan.order.size() < cands.size()) {
    int best = -1;
    uint64_t best_rows = 0;
    std::vector<JoinEdge> best_edges;
    bool best_connected = false;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (used[i]) continue;
      auto edges = edges_to_prefix(cands[i]);
      const bool connected = !edges.empty();
      uint64_t rows;
      if (connected) {
        const int key_col = cands[i].table->schema().Find(edges[0].right_col);
        rows = EstimateJoinRows(prefix_rows, cands[i], key_col);
      } else {
        rows = prefix_rows * cands[i].est.est_rows_out;  // cross product
      }
      // Prefer connected tables; among them the smallest result.
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected && rows < best_rows)) {
        best = static_cast<int>(i);
        best_rows = rows;
        best_edges = std::move(edges);
        best_connected = connected;
      }
    }

    PlannedTable pt = std::move(cands[best]);
    pt.est_prefix_rows = best_rows;
    nkv::NdpJoinStage& join = pt.join;
    if (!best_edges.empty()) {
      // Record all equi-edges; the final BNLJ-vs-BNLJI decision is made by
      // the cost pass below (MySQL-style access-path costing).
      for (const auto& e : best_edges) {
        join.keys.push_back(exec::JoinKey{e.LeftName(), e.RightName()});
      }
      const int inner_col = pt.table->schema().Find(best_edges[0].right_col);
      const bool indexed = inner_col >= 0 &&
                           (inner_col == pt.table->def().pk_col ||
                            pt.table->FindIndexOn(inner_col) >= 0);
      if (indexed) {
        // BNLJI joins on the first edge and filters the others afterwards.
        join.outer_key_col = best_edges[0].LeftName();
        join.inner_join_col = best_edges[0].right_col;
        std::vector<exec::Expr::Ptr> extra;
        for (size_t e = 1; e < best_edges.size(); ++e) {
          extra.push_back(exec::Expr::CmpCol(best_edges[e].LeftName(),
                                             exec::CmpOp::kEq,
                                             best_edges[e].RightName()));
        }
        if (extra.size() == 1) {
          join.residual = extra[0];
        } else if (extra.size() > 1) {
          join.residual = exec::Expr::And(std::move(extra));
        }
      }
      join.algo = nkv::JoinAlgo::kBNLJ;  // provisional; cost pass may switch
    } else {
      // Cross product: BNLJ with no keys degenerates; use NLJ.
      join.algo = nkv::JoinAlgo::kNLJ;
    }

    used[best] = true;
    prefix_aliases.insert(pt.access.alias);
    plan.order.push_back(std::move(pt));
    prefix_rows = best_rows;
  }

  // ---- Cost model (eqs. 1-8), all values in simulated nanoseconds.
  const double host_hz =
      hw.host_cpu.effective_hz / hw.host_cpu.engine_cycle_factor;
  const double dev_hz =
      hw.device_cpu.effective_hz / hw.device_cpu.engine_cycle_factor;
  const double usr_rec = kUsrRecCycles;

  auto scan_cost = [&](uint64_t bytes, bool device) {
    const double fcf = device ? hw.ndp_flash_clock : hw.host_flash_clock;
    double t = hw.flash.InternalReadTime(bytes) / fcf;  // calc_frt
    if (!device) t += hw.pcie.TransferTime(bytes);      // tbl_sea via stack
    return t;
  };
  auto cpu_cost = [&](uint64_t records, uint64_t pbn, bool device) {
    // eq (3): tbl_ren * usr_rec * node_pbn * calc_pcf.
    const double cycles =
        static_cast<double>(records) * (usr_rec + static_cast<double>(pbn));
    return cycles / (device ? dev_hz : host_hz) * kNanosPerSec;
  };
  auto trans_cost = [&](uint64_t records, uint64_t pbn) {
    // eq (4)/(7): result volume over the interconnect, in slot blocks.
    const uint64_t bytes = records * pbn;
    const uint64_t blocks =
        std::max<uint64_t>(1, bytes / config_.buffers.shared_slot_bytes);
    return hw.pcie.TransferTime(bytes) +
           static_cast<double>(blocks - 1) * hw.pcie.command_latency_ns;
  };
  // Index-lookup cost: CPU seek work per lookup plus flash misses. Misses
  // are cache-aware: while the inner table fits the actor's block cache,
  // only cold misses (bounded by the table's page count) hit flash; a table
  // larger than the cache misses on every lookup.
  auto random_read_cost = [&](uint64_t lookups, uint64_t inner_bytes,
                              bool device) {
    const double fcf = device ? hw.ndp_flash_clock : hw.host_flash_clock;
    double page_t = hw.flash.RandomPageReadTime() / fcf * 2;  // idx + data
    if (!device) {
      page_t += hw.pcie.command_latency_ns +
                hw.pcie.TransferTime(hw.flash.page_bytes);
    }
    const uint64_t cache_bytes =
        device ? hw.mem.device_ndp_budget_bytes / 4 : hw.mem.host_bytes / 4;
    const uint64_t inner_pages =
        inner_bytes / std::max<uint64_t>(1, hw.flash.page_bytes) + 2;
    const double flash_reads =
        inner_bytes <= cache_bytes
            ? static_cast<double>(std::min(lookups, inner_pages))
            : static_cast<double>(lookups);
    const double seek_cycles = 1000;  // seek index block + data block
    const double cpu_t =
        seek_cycles / (device ? dev_hz : host_hz) * kNanosPerSec;
    return flash_reads * page_t + static_cast<double>(lookups) * cpu_t;
  };

  double cum_host = 0, cum_dev = 0;
  uint64_t run_prefix_rows = 0;
  uint64_t run_prefix_bytes = 0;
  plan.c_h0_dev = 0;
  double h0_host_extra = 0;

  for (size_t i = 0; i < plan.order.size(); ++i) {
    PlannedTable& pt = plan.order[i];
    const rel::Table& t = *pt.table;
    const uint64_t table_bytes = t.stored_bytes();

    if (pt.access.use_index_scan) {
      pt.c_scan_host =
          random_read_cost(pt.est.est_rows_out, table_bytes, false);
      pt.c_scan_dev =
          random_read_cost(pt.est.est_rows_out, table_bytes, true);
      pt.c_cpu_host = cpu_cost(pt.est.est_rows_out, pt.est.proj_bytes,
                               false);
      pt.c_cpu_dev = cpu_cost(pt.est.est_rows_out, pt.est.proj_bytes,
                              true);
    } else {
      pt.c_scan_host = scan_cost(table_bytes, false);
      pt.c_scan_dev = scan_cost(table_bytes, true);
      pt.c_cpu_host = cpu_cost(t.row_count(), pt.est.proj_bytes, false);
      pt.c_cpu_dev = cpu_cost(t.row_count(), pt.est.proj_bytes, true);
    }
    pt.c_trans = trans_cost(pt.est.est_rows_out, pt.est.proj_bytes);
    plan.c_h0_dev += pt.c_scan_dev + pt.c_cpu_dev + pt.c_trans;
    // With H0 the host re-evaluates nothing but must join everything: the
    // join costs below on the host side apply, minus its own scans.

    if (i == 0) {
      cum_host = pt.c_scan_host + pt.c_cpu_host;
      cum_dev = pt.c_scan_dev + pt.c_cpu_dev;
      run_prefix_rows = pt.est.est_rows_out;
      run_prefix_bytes = pt.est.proj_bytes;
    } else {
      // Join-stage cost, eq (8): previous node + per-record evaluation +
      // buffer management + transfer (pending at the end for NDP).
      // Cost both algorithms; the cheaper host-side plan decides (MySQL
      // picks the access path; the device reuses the chosen plan).
      const uint64_t dev_passes = std::max<uint64_t>(
          1, run_prefix_rows * run_prefix_bytes /
                 config_.buffers.join_buffer_bytes);
      const uint64_t host_passes = std::max<uint64_t>(
          1, run_prefix_rows * run_prefix_bytes /
                 config_.host_join_buffer_bytes);
      const uint64_t inner_bytes =
          pt.access.use_index_scan
              ? pt.est.est_rows_out * t.schema().row_size()
              : t.stored_bytes();
      const double bnlj_host =
          static_cast<double>(host_passes) * scan_cost(inner_bytes, false) +
          cpu_cost(host_passes * t.row_count(), 4, false);
      const double bnlj_dev =
          static_cast<double>(dev_passes) * scan_cost(inner_bytes, true) +
          cpu_cost(dev_passes * t.row_count(), 4, true);
      const bool bnlji_possible =
          pt.join.algo != nkv::JoinAlgo::kNLJ && !pt.join.outer_key_col.empty();
      // BNLJI pays one secondary-index seek per outer row plus one
      // primary-key seek per *match* (the Fig. 9 two-step path), so the
      // estimated output cardinality is part of the lookup count.
      const uint64_t bnlji_seeks = run_prefix_rows + pt.est_prefix_rows;
      const double bnlji_host =
          bnlji_possible
              ? random_read_cost(bnlji_seeks, t.stored_bytes(), false)
              : std::numeric_limits<double>::infinity();
      const double bnlji_dev =
          bnlji_possible
              ? random_read_cost(bnlji_seeks, t.stored_bytes(), true)
              : std::numeric_limits<double>::infinity();

      double join_host, join_dev;
      if (pt.join.algo != nkv::JoinAlgo::kNLJ) {
        if (bnlji_host < bnlj_host) {
          pt.join.algo = nkv::JoinAlgo::kBNLJI;
          join_host = bnlji_host;
          join_dev = bnlji_dev;
        } else {
          pt.join.algo = nkv::JoinAlgo::kBNLJ;
          join_host = bnlj_host;
          join_dev = bnlj_dev;
        }
      } else {
        join_host = bnlj_host;
        join_dev = bnlj_dev;
      }
      const uint64_t out_rows = pt.est_prefix_rows;
      join_host += cpu_cost(run_prefix_rows + out_rows, 8, false);
      join_dev += cpu_cost(run_prefix_rows + out_rows, 8, true);
      pt.c_join_host = join_host;
      pt.c_join_dev = join_dev;
      h0_host_extra += join_host - (pt.join.algo == nkv::JoinAlgo::kBNLJ
                                        ? scan_cost(t.data_bytes(), false)
                                        : 0.0);

      cum_host += join_host;
      cum_dev += join_dev;
      run_prefix_rows = out_rows;
      run_prefix_bytes += pt.est.proj_bytes;
    }
    pt.cum_host = cum_host;
    pt.cum_dev = cum_dev;
  }

  plan.c_total_host = cum_host * hw.blk_stack_overhead;  // BLK baseline
  plan.c_total_dev =
      cum_dev + trans_cost(run_prefix_rows, run_prefix_bytes);

  // ---- Split target, eqs. (9)-(12).
  const int n = plan.num_tables();
  // Eq. (9): the host-to-device performance ratio. We read the paper's
  // *_FCF inputs as the profiled effective clock frequencies of the two
  // compute elements (CoreMark-calibrated); taking the flash clocks instead
  // would place c_target beyond the deepest feasible split for every query.
  plan.split_cpu = 100.0 * (dev_hz * hw.flash_weight) /
                   (host_hz * hw.flash_weight);
  const double split_dev_bytes =
      static_cast<double>(n) * hw.mem.device_selection_bytes +
      static_cast<double>(n - 1) * hw.mem.device_join_bytes;
  plan.split_mem = 100.0 * (split_dev_bytes * hw.mem.mem_weight) /
                   (static_cast<double>(hw.mem.host_bytes) * hw.mem.mem_weight);
  plan.c_target =
      plan.c_total_dev * (plan.split_cpu + plan.split_mem) / (2.0 * 100.0);

  // ---- Feasibility: a device-assisted choice is a candidate only if its
  // buffer reservation (the rule CheckResources enforces) fits the device
  // NDP budget. Hk ships tables [0..k] and k joins, H0 every table and no
  // joins, full NDP every table and n-1 joins.
  auto fits = [&](size_t num_tables, size_t num_joins) {
    size_t index_scans = 0;
    for (size_t i = 0; i < num_tables; ++i) {
      if (plan.order[i].access.use_index_scan) ++index_scans;
    }
    return nkv::ReservedBufferBytes(config_.buffers, num_tables, index_scans,
                                    num_joins) <=
           hw.mem.device_ndp_budget_bytes;
  };
  plan.max_feasible_split = 0;  // the reservation grows with k
  for (int k = 1; k <= n - 1 && fits(k + 1, k); ++k) {
    plan.max_feasible_split = k;
  }

  // ---- Candidate distances: H0 plus H1..H(n-2) prefixes (Fig. 5: the
  // full-depth point is the NDP-only execution, not a split). Infeasible
  // candidates are infinitely far.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  plan.split_distance.assign(static_cast<size_t>(std::max(1, n - 1)), kInf);
  if (fits(plan.order.size(), 0)) {
    plan.split_distance[0] = std::abs(plan.c_h0_dev - plan.c_target);
  }
  int best_k = 0;
  for (int k = 1; k <= std::min(n - 2, plan.max_feasible_split); ++k) {
    plan.split_distance[k] =
        std::abs(plan.order[k].cum_dev - plan.c_target);
    if (plan.split_distance[k] < plan.split_distance[best_k]) best_k = k;
  }

  // ---- Strategy estimates.
  plan.est_host = plan.c_total_host;
  plan.est_ndp = plan.c_total_dev;
  double dev_part, host_part;
  if (best_k == 0) {
    dev_part = plan.c_h0_dev;
    host_part = h0_host_extra;
  } else {
    dev_part = plan.order[best_k].cum_dev +
               trans_cost(plan.order[best_k].est_prefix_rows,
                          plan.order[best_k].est.proj_bytes * (best_k + 1));
    host_part = 0;
    for (int i = best_k + 1; i < n; ++i) host_part += plan.order[i].c_join_host;
  }
  // Cooperative overlap: total ~ max of both sides plus the initial
  // on-device latency before the first intermediate result arrives.
  plan.est_hybrid = std::max(dev_part, host_part) + 0.1 * dev_part;
  // An estimate is infinite when its choice does not fit the device, so the
  // comparisons below never recommend it.
  if (std::isinf(plan.split_distance[best_k])) plan.est_hybrid = kInf;
  if (!fits(plan.order.size(), plan.order.size() - 1)) plan.est_ndp = kInf;

  plan.recommended.split_joins = best_k;
  if (n < kMinTablesForSplit) {
    plan.recommended.strategy = plan.est_ndp < plan.est_host
                                    ? Strategy::kFullNdp
                                    : Strategy::kHostBlk;
  } else if (plan.est_hybrid <= plan.est_host &&
             plan.est_hybrid <= plan.est_ndp) {
    plan.recommended.strategy = Strategy::kHybrid;
  } else if (plan.est_ndp < plan.est_host) {
    plan.recommended.strategy = Strategy::kFullNdp;
  } else {
    plan.recommended.strategy = Strategy::kHostBlk;
  }
  return plan;
}

}  // namespace hybridndp::hybrid
