// Per-table statistics in the spirit of MyRocks index samples: row counts,
// per-column min/max, distinct-value estimates, and equi-width histograms
// for integer columns. The planner derives calc_sel (paper Table 1) from
// these — never from injected true selectivities, matching the paper's
// explicitly conservative setup.

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "rel/schema.h"

namespace hybridndp::rel {

/// Statistics of one column.
struct ColumnStats {
  bool is_int = false;
  int32_t min_int = 0;
  int32_t max_int = 0;
  uint64_t ndv = 0;  ///< estimated number of distinct values
  /// Equi-width histogram over [min_int, max_int] (int columns only).
  std::vector<uint64_t> histogram;
  /// Fraction of rows with an empty/zero value.
  double null_fraction = 0;

  // Values are int64 so that bounds past int32 (query literals, v - 1 at
  // INT32_MIN) compare without wrapping.

  /// Estimated fraction of rows with value == v.
  double EqSelectivity(int64_t v) const;
  /// Estimated fraction of rows with value <= v (int columns).
  double LeSelectivity(int64_t v) const;
  /// Estimated fraction with value in [lo, hi].
  double RangeSelectivity(int64_t lo, int64_t hi) const;
};

/// Statistics of one table.
struct TableStats {
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;

  const ColumnStats& col(int i) const { return columns[i]; }
  bool empty() const { return columns.empty(); }
};

/// Streaming stats collector (single pass over rows).
class StatsCollector {
 public:
  explicit StatsCollector(const Schema* schema);

  void AddRow(const RowView& row);
  TableStats Finish();

 private:
  static constexpr int kHistogramBuckets = 64;
  static constexpr int kSampleDistinct = 4096;

  const Schema* schema_;
  TableStats stats_;
  /// KMV sketch per column: the k smallest *distinct* hashes.
  std::vector<std::set<uint64_t>> distinct_samples_;
  std::vector<std::vector<int32_t>> int_values_;  ///< for histogram build
};

}  // namespace hybridndp::rel
