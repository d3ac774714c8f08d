#include "rel/stats.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace hybridndp::rel {

double ColumnStats::EqSelectivity(int64_t v) const {
  if (ndv == 0) return 0.0;
  if (is_int && !histogram.empty() && max_int > min_int) {
    // Histogram bucket frequency spread over the bucket's distinct share.
    uint64_t total = 0;
    for (uint64_t b : histogram) total += b;
    if (total == 0) return 0.0;
    if (v < min_int || v > max_int) return 0.0;
    const double width =
        (static_cast<double>(max_int) - min_int + 1) / histogram.size();
    size_t bucket = static_cast<size_t>((v - min_int) / width);
    if (bucket >= histogram.size()) bucket = histogram.size() - 1;
    const double bucket_fraction =
        static_cast<double>(histogram[bucket]) / total;
    const double distinct_per_bucket =
        std::max(1.0, static_cast<double>(ndv) / histogram.size());
    return bucket_fraction / distinct_per_bucket;
  }
  return 1.0 / static_cast<double>(ndv);
}

double ColumnStats::LeSelectivity(int64_t v) const {
  if (!is_int) return 0.3;  // heuristic fallback
  if (v >= max_int) return 1.0;
  if (v < min_int) return 0.0;
  if (histogram.empty() || max_int == min_int) {
    return (static_cast<double>(v) - min_int + 1) /
           (static_cast<double>(max_int) - min_int + 1);
  }
  uint64_t total = 0;
  for (uint64_t b : histogram) total += b;
  if (total == 0) return 0.0;
  const double width =
      (static_cast<double>(max_int) - min_int + 1) / histogram.size();
  const double pos = (static_cast<double>(v) - min_int + 1) / width;
  const size_t full = static_cast<size_t>(pos);
  double count = 0;
  for (size_t i = 0; i < full && i < histogram.size(); ++i) {
    count += static_cast<double>(histogram[i]);
  }
  if (full < histogram.size()) {
    count += (pos - full) * static_cast<double>(histogram[full]);
  }
  return count / total;
}

double ColumnStats::RangeSelectivity(int64_t lo, int64_t hi) const {
  if (hi < lo) return 0.0;
  double s = LeSelectivity(hi) - (lo > min_int ? LeSelectivity(lo - 1) : 0.0);
  return std::clamp(s, 0.0, 1.0);
}

void KmvSketch::Compact() {
  // buf_[0, sorted_) is sorted and distinct from the last compaction: sort
  // and deduplicate only what came since, then merge the two runs.
  const auto tail = buf_.begin() + sorted_;
  std::sort(tail, buf_.end());
  buf_.erase(std::unique(tail, buf_.end()), buf_.end());
  std::inplace_merge(buf_.begin(), buf_.begin() + sorted_, buf_.end());
  buf_.erase(std::unique(buf_.begin(), buf_.end()), buf_.end());
  sorted_ = buf_.size();
  if (buf_.size() >= k_) {
    buf_.resize(k_);
    full_ = true;
    bound_ = buf_.back();
    sorted_ = k_;
  }
}

StatsCollector::StatsCollector(const Schema* schema) : schema_(schema) {
  stats_.columns.resize(schema->num_columns());
  distinct_samples_.assign(schema->num_columns(), KmvSketch(kSampleDistinct));
  int_values_.resize(schema->num_columns());
  for (size_t i = 0; i < schema->num_columns(); ++i) {
    stats_.columns[i].is_int = schema->column(i).type == ColType::kInt32;
  }
}

void StatsCollector::AddRow(const RowView& row) {
  ++stats_.row_count;
  for (size_t i = 0; i < schema_->num_columns(); ++i) {
    ColumnStats& cs = stats_.columns[i];
    uint64_t h;
    if (cs.is_int) {
      const int32_t v = row.GetInt(static_cast<int>(i));
      if (stats_.row_count == 1) {
        cs.min_int = cs.max_int = v;
      } else {
        cs.min_int = std::min(cs.min_int, v);
        cs.max_int = std::max(cs.max_int, v);
      }
      if (v == 0) cs.null_fraction += 1;
      int_values_[i].push_back(v);
      h = Hash64(reinterpret_cast<const char*>(&v), 4);
    } else {
      const Slice s = row.GetString(static_cast<int>(i));
      if (s.empty()) cs.null_fraction += 1;
      h = Hash64(s);
    }
    distinct_samples_[i].Add(h);
  }
}

TableStats StatsCollector::Finish() {
  for (size_t i = 0; i < stats_.columns.size(); ++i) {
    ColumnStats& cs = stats_.columns[i];
    const std::vector<uint64_t>& sample = distinct_samples_[i].Sample();
    if (sample.size() < kSampleDistinct) {
      cs.ndv = sample.size();
    } else {
      // KMV estimator: (k-1) / kth_smallest_normalized.
      const double kth = static_cast<double>(sample.back()) /
                         static_cast<double>(UINT64_MAX);
      cs.ndv = kth > 0 ? static_cast<uint64_t>((sample.size() - 1) / kth)
                       : sample.size();
    }
    if (stats_.row_count > 0) cs.null_fraction /= stats_.row_count;

    if (cs.is_int && !int_values_[i].empty() && cs.max_int > cs.min_int) {
      cs.histogram.assign(kHistogramBuckets, 0);
      const double width =
          (static_cast<double>(cs.max_int) - cs.min_int + 1) /
          kHistogramBuckets;
      for (int32_t v : int_values_[i]) {
        size_t bucket = static_cast<size_t>((v - cs.min_int) / width);
        if (bucket >= cs.histogram.size()) bucket = cs.histogram.size() - 1;
        ++cs.histogram[bucket];
      }
    }
    int_values_[i].clear();
    int_values_[i].shrink_to_fit();
  }
  return std::move(stats_);
}

}  // namespace hybridndp::rel
