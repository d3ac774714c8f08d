#include "rel/table.h"

namespace hybridndp::rel {

std::string EncodeIndexPrefixInt(int32_t v) {
  std::string s;
  PutOrderedInt32(&s, v);
  return s;
}

bool DecodeIntIndexKey(const Slice& key, IntIndexKey* out) {
  if (key.size() != 8) return false;
  out->value = GetOrderedInt32(key.data());
  out->pk = GetOrderedInt32(key.data() + 4);
  return true;
}

std::string EncodeIndexPrefixStr(const Slice& s, uint32_t col_size) {
  // Fixed-size padded bytes compare like the column value.
  std::string out(s.data(), s.size() < col_size ? s.size() : col_size);
  out.resize(col_size, '\0');
  return out;
}

std::string EncodeIndexPrefix(const Schema& schema, int col,
                              const RowView& row) {
  if (schema.column(col).type == ColType::kInt32) {
    return EncodeIndexPrefixInt(row.GetInt(col));
  }
  return EncodeIndexPrefixStr(row.GetRaw(col), schema.column(col).size);
}

Table::Table(lsm::DB* db, TableDef def) : db_(db), def_(std::move(def)) {
  primary_cf_ = db_->CreateColumnFamily("t_" + def_.name);
  for (const auto& idx : def_.indexes) {
    index_cfs_.push_back(db_->CreateColumnFamily("i_" + def_.name + "_" +
                                                 idx.name));
  }
}

Status Table::Insert(const std::string& row) {
  if (row.size() != def_.schema.row_size()) {
    return Status::InvalidArgument("row size mismatch for " + def_.name);
  }
  const RowView view(row.data(), &def_.schema);
  const int32_t pk = view.GetInt(def_.pk_col);
  std::string pk_key;
  PutOrderedInt32(&pk_key, pk);
  HNDP_RETURN_IF_ERROR(db_->Put(primary_cf_, pk_key, row));

  // Secondary index entry: key = secondary bytes | pk bytes (paper Sect 2.2);
  // the value stays empty (reserved for metadata).
  for (size_t i = 0; i < def_.indexes.size(); ++i) {
    std::string ikey =
        EncodeIndexPrefix(def_.schema, def_.indexes[i].col, view);
    ikey += pk_key;
    HNDP_RETURN_IF_ERROR(db_->Put(index_cfs_[i], ikey, Slice()));
  }
  ++row_count_;
  return Status::OK();
}

uint64_t Table::stored_bytes() const {
  const uint64_t physical = db_->GetVersion(primary_cf_).TotalBytes();
  // Unflushed data has no SST form yet; approximate with logical bytes.
  return physical > 0 ? physical : data_bytes();
}

Status Table::GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                      Slice* row) const {
  char pk_key[4];
  EncodeOrderedInt32To(pk_key, pk);
  return db_->Get(opts, primary_cf_, Slice(pk_key, sizeof(pk_key)), row);
}

lsm::IteratorPtr Table::NewScanIterator(const lsm::ReadOptions& opts) const {
  return db_->NewIterator(opts, primary_cf_);
}

lsm::IteratorPtr Table::NewIndexIterator(const lsm::ReadOptions& opts,
                                         size_t index_no) const {
  return db_->NewIterator(opts, index_cfs_[index_no]);
}

Status Table::AnalyzeStats() {
  StatsCollector collector(&def_.schema);
  auto iter = NewScanIterator(lsm::ReadOptions{});
  uint64_t rows = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    collector.AddRow(RowView(iter->value().data(), &def_.schema));
    ++rows;
  }
  stats_ = collector.Finish();
  row_count_ = rows;
  return Status::OK();
}

Table* Catalog::CreateTable(TableDef def) {
  const std::string name = def.name;
  auto table = std::make_unique<Table>(db_, std::move(def));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Table* Catalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<Table*> Catalog::tables() const {
  std::vector<Table*> out;
  for (const auto& [_, t] : tables_) out.push_back(t.get());
  return out;
}

}  // namespace hybridndp::rel
