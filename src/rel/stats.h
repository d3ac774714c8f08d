// Per-table statistics in the spirit of MyRocks index samples: row counts,
// per-column min/max, distinct-value estimates, and equi-width histograms
// for integer columns. The planner derives calc_sel (paper Table 1) from
// these — never from injected true selectivities, matching the paper's
// explicitly conservative setup.

#pragma once

#include <cstdint>
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

/// KMV distinct-value sketch: the k smallest distinct hashes of a stream,
/// kept in a flat buffer. Hashes below the current kth smallest are
/// appended; when the buffer reaches 2k it is sorted, deduplicated and cut
/// back to the k smallest. The sample is the same as a sorted set's.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k) : k_(k) {
    // No hash matches its slot's initial value: their low bits differ.
    for (size_t i = 0; i < kRecent; ++i) {
      recent_[i] = ~static_cast<uint64_t>(i);
    }
  }

  void Add(uint64_t h) {
    if (full_ && h >= bound_) return;  // not below the kth smallest
    // A hash appended before is in the buffer or was cut as too large, so
    // a repeat changes nothing: low-NDV columns skip most of their rows.
    uint64_t& seen = recent_[h % kRecent];
    if (seen == h) return;
    seen = h;
    buf_.push_back(h);
    if (buf_.size() >= 2 * k_) Compact();
  }

  /// The k smallest distinct hashes (all of them when fewer), ascending.
  const std::vector<uint64_t>& Sample() {
    Compact();
    return buf_;
  }

 private:
  void Compact();

  static constexpr size_t kRecent = 256;

  size_t k_;
  /// Direct-mapped memory of appended hashes, by their low bits.
  uint64_t recent_[kRecent];
  /// Once k distinct hashes were seen: the kth smallest of them.
  bool full_ = false;
  uint64_t bound_ = 0;
  size_t sorted_ = 0;  ///< leading run of buf_ that is sorted and distinct
  std::vector<uint64_t> buf_;
};

/// Streaming stats collector (single pass over rows).
class StatsCollector {
 public:
  static constexpr int kSampleDistinct = 4096;

  explicit StatsCollector(const Schema* schema);

  void AddRow(const RowView& row);
  TableStats Finish();

 private:
  static constexpr int kHistogramBuckets = 64;

  const Schema* schema_;
  TableStats stats_;
  std::vector<KmvSketch> distinct_samples_;       ///< one per column
  std::vector<std::vector<int32_t>> int_values_;  ///< for histogram build
};

}  // namespace hybridndp::rel
