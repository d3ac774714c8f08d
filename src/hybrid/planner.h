// The hybridNDP planner (paper Sect. 3): selectivity estimation from table
// statistics, greedy left-deep join ordering, access-path and join-algorithm
// selection, the cost model of eqs. (1)-(8), and the split-point
// computation of eqs. (9)-(12) / Fig. 5.

#pragma once

#include "hybrid/plan.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp::hybrid {

/// Planner tuning (paper Table 1, "User / Configuration Variables"; the
/// single-valued ones are constants in planner.cc).
struct PlannerConfig {
  /// Join buffer / selection buffer / shared slots deployed per NDP command.
  nkv::NdpBufferConfig buffers;
  /// Host-side join buffer bytes.
  uint64_t host_join_buffer_bytes = 64ull << 20;
  /// Rows per host-pipeline batch pull (DESIGN.md §10), at least 1.
  /// Simulated metrics do not depend on it; only the wall clock does.
  size_t exec_batch_rows = 1024;
};

/// Estimate the selectivity of a (bound or unbound) predicate against one
/// table's statistics. Column names may carry an "alias." prefix.
double EstimateSelectivity(const exec::Expr* expr, const rel::TableStats& stats,
                           const rel::Schema& schema,
                           const std::string& alias);

/// The query planner + cost model.
class Planner {
 public:
  Planner(const rel::Catalog* catalog, const sim::HwParams* hw,
          PlannerConfig config = {})
      : catalog_(catalog), hw_(hw), config_(config) {}

  /// Produce the full plan: join order, access paths, costs, split choice.
  /// InvalidArgument when a configured buffer is empty (nkv::
  /// CheckBufferConfig, or a zero host join buffer).
  Result<Plan> PlanQuery(const Query& query) const;

  const PlannerConfig& config() const { return config_; }

 private:
  /// Estimate `pt`'s selectivity and output rows from its predicate and
  /// write the index choice into `pt->access` (alias, predicate and
  /// `est.proj_bytes` already set).
  void ChooseAccessPath(PlannedTable* pt) const;

  /// Estimated |prefix join table| given estimated inputs.
  uint64_t EstimateJoinRows(uint64_t prefix_rows, const PlannedTable& pt,
                            int inner_key_col) const;

  const rel::Catalog* catalog_;
  const sim::HwParams* hw_;
  PlannerConfig config_;
};

}  // namespace hybridndp::hybrid
