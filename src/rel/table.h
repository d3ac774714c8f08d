// Tables over the LSM store: each table's rows live in one column family
// keyed by the order-preserving encoding of the primary key; each secondary
// index is a separate column family whose key combines the secondary-key
// bytes with the primary key (paper Sect. 2.2, Secondary Indices).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "rel/schema.h"
#include "rel/stats.h"

namespace hybridndp::rel {

/// Single-column secondary index definition.
struct IndexDef {
  std::string name;
  int col = -1;  ///< indexed column (schema index)
};

/// Table definition: schema + primary key column + secondary indexes.
struct TableDef {
  std::string name;
  Schema schema;
  int pk_col = 0;  ///< must be an Int32 column
  std::vector<IndexDef> indexes;

  /// Number of the first index on column `col`, or -1 if it has none.
  int FindIndexOn(int col) const {
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (indexes[i].col == col) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Encode the secondary-index key prefix for a column value.
std::string EncodeIndexPrefix(const Schema& schema, int col, const RowView& row);
/// Same, from a raw value (int or padded char bytes).
std::string EncodeIndexPrefixInt(int32_t v);
std::string EncodeIndexPrefixStr(const Slice& s, uint32_t col_size);

/// An entry key of an int secondary index: the indexed value and the
/// primary key of its row.
struct IntIndexKey {
  int32_t value = 0;
  int32_t pk = 0;
};
/// Decode an int index entry key (EncodeIndexPrefixInt of the value, then
/// the ordered pk bytes). False for any key that is not 4 + 4 bytes.
bool DecodeIntIndexKey(const Slice& key, IntIndexKey* out);

/// Abstract read access to one table's primary and index data. The host
/// engine reads through the DB (Table); the NDP engine reads through a
/// shipped snapshot with device-side readers (nkv::DeviceTableAccessor).
/// Physical operators only depend on this interface, so the same operator
/// code runs on both sides of a QEP split.
class TableAccessor {
 public:
  virtual ~TableAccessor() = default;

  virtual const TableDef& def() const = 0;
  const Schema& schema() const { return def().schema; }
  const std::string& name() const { return def().name; }

  /// Point lookup by primary key. *row views the stored row, valid as long
  /// as the table's files and MemTable are (until the next write).
  virtual Status GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                         Slice* row) const = 0;
  /// GetByPk into an owned copy.
  Status GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                 std::string* row) const {
    Slice view;
    HNDP_RETURN_IF_ERROR(GetByPk(opts, pk, &view));
    row->assign(view.data(), view.size());
    return Status::OK();
  }
  /// Iterator over the primary data (values are rows).
  virtual lsm::IteratorPtr NewScanIterator(
      const lsm::ReadOptions& opts) const = 0;
  /// Iterator over a secondary index. Keys are secondary_bytes | pk_bytes.
  virtual lsm::IteratorPtr NewIndexIterator(const lsm::ReadOptions& opts,
                                            size_t index_no) const = 0;

  /// Index number for a column, or -1 if the column has no index.
  int FindIndexOn(int col) const { return def().FindIndexOn(col); }
};

/// A relational table bound to a DB (the host-side accessor).
class Table : public TableAccessor {
 public:
  Table(lsm::DB* db, TableDef def);

  /// Insert one row (built against schema()); maintains all indexes.
  Status Insert(const std::string& row);

  using TableAccessor::GetByPk;
  /// Point lookup by primary key.
  Status GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                 Slice* row) const override;

  /// Iterator over the primary column family (values are rows).
  lsm::IteratorPtr NewScanIterator(
      const lsm::ReadOptions& opts) const override;

  /// Iterator over a secondary index CF. Keys are
  /// secondary_bytes | pk_bytes, values empty.
  lsm::IteratorPtr NewIndexIterator(const lsm::ReadOptions& opts,
                                    size_t index_no) const override;

  const TableDef& def() const override { return def_; }
  lsm::ColumnFamilyId primary_cf() const { return primary_cf_; }
  lsm::ColumnFamilyId index_cf(size_t index_no) const {
    return index_cfs_[index_no];
  }
  lsm::DB* db() const { return db_; }

  uint64_t row_count() const { return row_count_; }
  /// Total row bytes (tbl_tbn * rows).
  uint64_t data_bytes() const { return row_count_ * def_.schema.row_size(); }
  /// Physical bytes of the primary column family on flash (SST overhead
  /// included) — what a full scan actually reads.
  uint64_t stored_bytes() const;

  const TableStats& stats() const { return stats_; }

  /// Scan the table and (re)build statistics.
  Status AnalyzeStats();

 private:
  lsm::DB* db_;
  TableDef def_;
  lsm::ColumnFamilyId primary_cf_;
  std::vector<lsm::ColumnFamilyId> index_cfs_;
  uint64_t row_count_ = 0;
  TableStats stats_;
};

/// Named collection of tables sharing a DB.
class Catalog {
 public:
  explicit Catalog(lsm::DB* db) : db_(db) {}

  Table* CreateTable(TableDef def);
  Table* Get(const std::string& name) const;
  std::vector<Table*> tables() const;
  lsm::DB* db() const { return db_; }

 private:
  lsm::DB* db_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace hybridndp::rel
