// Physical plan representation produced by the hybridNDP planner: a
// left-deep join order with per-table access paths, join algorithms,
// cost-model values (paper eqs. 1-8), and the split-point decision
// (paper eqs. 9-12, Fig. 5).

#pragma once

#include <string>
#include <vector>

#include "hybrid/query.h"
#include "nkv/ndp_command.h"
#include "rel/table.h"

namespace hybridndp::hybrid {

/// Execution strategy of a query (paper Fig. 10 stacks + hybrid splits).
enum class Strategy : uint8_t {
  kHostBlk = 0,   ///< host-only over the file-system stack (BLK baseline)
  kHostNative,    ///< host-only over native NVMe (NATIVE baseline)
  kFullNdp,       ///< entire QEP on-device (NDP)
  kHybrid,        ///< split execution (hybridNDP)
};

const char* StrategyName(Strategy s);

/// A concrete run choice: strategy and, for kHybrid, the split position.
/// split_joins = 0 is H0 (offload every leaf scan, all joins on the host);
/// split_joins = k >= 1 is Hk (tables[0..k] and k joins on-device).
struct ExecChoice {
  Strategy strategy = Strategy::kHostNative;
  int split_joins = 0;
  /// On-device cache-format override (0 auto / 1 row / 2 pointer) — see
  /// nkv::NdpCommand::force_cache_format.
  int cache_format = 0;

  std::string ToString() const;
};

/// Planner estimates for one table's access path.
struct TableEstimate {
  double selectivity = 1.0;     ///< calc_sel of the pushed-down predicate
  uint64_t est_rows_out = 0;    ///< tbl_ren * calc_sel
  uint64_t proj_bytes = 0;      ///< node_pbn: bytes/row after early projection
};

/// One position of the left-deep join order: the PQEP descriptors both
/// sides of a split build this position's operators from, next to the
/// planner's estimates and costs.
struct PlannedTable {
  const rel::Table* table = nullptr;
  /// Alias, pushed-down predicate, early projection and index choice.
  nkv::TableAccess access;
  TableEstimate est;
  /// Join with the prefix (positions > 0): every equi-edge in `keys`; when
  /// the first edge is indexed, BNLJI's key columns and the other edges as
  /// `residual`. The cost pass picks `algo`; callers may override it.
  nkv::NdpJoinStage join;

  uint64_t est_prefix_rows = 0;  ///< node_ren after joining this table

  // Cost-model components (paper Table 1), in model cost units.
  double c_scan_host = 0, c_scan_dev = 0;   ///< eq. (2) per side
  double c_cpu_host = 0, c_cpu_dev = 0;     ///< eq. (3)
  double c_trans = 0;                       ///< eq. (4)/(7)
  double c_join_host = 0, c_join_dev = 0;   ///< join-stage costs, eq. (8)
  double cum_host = 0, cum_dev = 0;         ///< cumulative c_node
};

/// Planner output.
struct Plan {
  Query query;
  std::vector<PlannedTable> order;

  // Totals and split computation (paper Sect. 3.3).
  double c_total_host = 0;   ///< host-only QEP cost
  double c_total_dev = 0;    ///< full on-device QEP cost
  double split_cpu = 0;      ///< eq. (9)
  double split_mem = 0;      ///< eq. (11)
  double c_target = 0;       ///< eq. (12)
  double c_h0_dev = 0;       ///< device cost of offloading all leaves (H0)

  /// |c_node(Hk) - c_target| per candidate k (index 0 = H0); infinite for
  /// a candidate whose buffer reservation exceeds the device NDP budget.
  std::vector<double> split_distance;
  /// Deepest split Hk (k >= 1) that fits the device NDP budget, else 0.
  int max_feasible_split = 0;

  /// The optimizer's pick.
  ExecChoice recommended;
  /// Estimated total cost of the recommended hybrid split / host / NDP;
  /// infinite for a device-assisted choice that does not fit the device.
  double est_hybrid = 0, est_host = 0, est_ndp = 0;

  int num_tables() const { return static_cast<int>(order.size()); }
  double cum_dev_ms(size_t i) const { return order[i].cum_dev / 1e6; }
  double cum_host_ms(size_t i) const { return order[i].cum_host / 1e6; }
  std::string Explain() const;
};

}  // namespace hybridndp::hybrid
