// Relational schema with the paper's storage format restrictions (Sect. 5,
// Workloads): fixed-size byte lengths for character values (padding/
// trimming) and 4-byte integers, 4-byte aligned — rows are fixed-size byte
// strings, which is what the on-device engine parses.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace hybridndp::rel {

enum class ColType : uint8_t {
  kInt32 = 0,  ///< 4-byte signed integer
  kChar = 1,   ///< fixed-size CHAR(n), zero-padded
};

/// One column of a table.
struct Column {
  std::string name;
  ColType type = ColType::kInt32;
  uint32_t size = 4;  ///< bytes in the row (4 for kInt32; n for kChar)
};

inline Column IntCol(std::string name) {
  return Column{std::move(name), ColType::kInt32, 4};
}
inline Column CharCol(std::string name, uint32_t n) {
  // 4-byte alignment of the COSMOS+ board (paper Sect. 5).
  n = (n + 3u) & ~3u;
  return Column{std::move(name), ColType::kChar, n};
}

/// Fixed-size row layout: column byte offsets are precomputed.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }
  uint32_t offset(size_t i) const { return offsets_[i]; }
  uint32_t row_size() const { return row_size_; }

  /// Index of a column by name, or -1.
  int Find(const std::string& name) const;

  /// Concatenate two schemas (join output), prefixing column names with
  /// `left_prefix`/`right_prefix` when non-empty to avoid collisions.
  static Schema Concat(const Schema& left, const Schema& right);

  /// Schema of a projection (subset of columns, by index).
  Schema Project(const std::vector<int>& cols) const;

 private:
  std::vector<Column> columns_;
  std::vector<uint32_t> offsets_;
  uint32_t row_size_ = 0;
};

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "TrimmedSize reads the last byte of a word as its top byte");

/// Size of the `n` CHAR bytes at `p` with their trailing zero padding
/// stripped, a word at a time from the end.
inline size_t TrimmedSize(const char* p, size_t n) {
  while (n >= 8) {
    uint64_t w;
    memcpy(&w, p + n - 8, 8);
    if (w != 0) return n - (static_cast<size_t>(__builtin_clzll(w)) >> 3);
    n -= 8;
  }
  while (n > 0 && p[n - 1] == '\0') --n;
  return n;
}

/// Read-only view over one fixed-size row.
class RowView {
 public:
  RowView() = default;
  RowView(const char* data, const Schema* schema)
      : data_(data), schema_(schema) {}

  bool valid() const { return data_ != nullptr; }
  const char* data() const { return data_; }
  const Schema& schema() const { return *schema_; }

  int32_t GetInt(int col) const {
    return static_cast<int32_t>(DecodeFixed32(data_ + schema_->offset(col)));
  }
  /// CHAR column bytes including padding.
  Slice GetRaw(int col) const {
    return Slice(data_ + schema_->offset(col), schema_->column(col).size);
  }
  /// CHAR column with trailing zero padding stripped.
  Slice GetString(int col) const {
    const Slice raw = GetRaw(col);
    return Slice(raw.data(), TrimmedSize(raw.data(), raw.size()));
  }

 private:
  const char* data_ = nullptr;
  const Schema* schema_ = nullptr;
};

/// Builds one fixed-size row.
class RowBuilder {
 public:
  explicit RowBuilder(const Schema* schema)
      : schema_(schema), buf_(schema->row_size(), '\0') {}

  RowBuilder& SetInt(int col, int32_t v) {
    EncodeFixed32(&buf_[schema_->offset(col)], static_cast<uint32_t>(v));
    return *this;
  }
  /// Pads or trims `s` to the column's fixed size (paper's JOB adaptation).
  RowBuilder& SetString(int col, const Slice& s) {
    const uint32_t size = schema_->column(col).size;
    const size_t n = s.size() < size ? s.size() : size;
    memcpy(&buf_[schema_->offset(col)], s.data(), n);
    memset(&buf_[schema_->offset(col)] + n, 0, size - n);
    return *this;
  }

  const std::string& row() const { return buf_; }
  RowView view() const { return RowView(buf_.data(), schema_); }

 private:
  const Schema* schema_;
  std::string buf_;
};

}  // namespace hybridndp::rel
