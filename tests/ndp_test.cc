// Tests for the NDP stack: the command/shared-state snapshot (nkv), the
// on-device executor (ndp), and the cooperative batch schedule (hybrid).

#include <gtest/gtest.h>

#include "hybrid/coop.h"
#include "lsm/db.h"
#include "ndp/device_executor.h"
#include "nkv/ndp_command.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp {
namespace {

using exec::CmpOp;
using exec::Expr;
using rel::CharCol;
using rel::IntCol;
using rel::RowBuilder;
using rel::RowView;
using sim::HwParams;

class NdpTest : public ::testing::Test {
 protected:
  NdpTest() : hw_(MakeHw()), storage_(&hw_), db_(&storage_, MakeDbOptions()),
              catalog_(&db_) {
    rel::TableDef orders;
    orders.name = "orders";
    orders.schema = rel::Schema({IntCol("id"), IntCol("item_id"),
                                 IntCol("qty"), CharCol("note", 12)});
    orders.pk_col = 0;
    orders.indexes.push_back({"item_id", 1});
    orders_ = catalog_.CreateTable(std::move(orders));

    rel::TableDef items;
    items.name = "items";
    items.schema = rel::Schema({IntCol("id"), IntCol("price")});
    items.pk_col = 0;
    items_ = catalog_.CreateTable(std::move(items));

    for (int i = 1; i <= 3000; ++i) {
      RowBuilder rb(&orders_->schema());
      rb.SetInt(0, i)
          .SetInt(1, 1 + i % 100)
          .SetInt(2, i % 7)
          .SetString(3, i % 3 == 0 ? "rush" : "normal");
      EXPECT_TRUE(orders_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= 100; ++i) {
      RowBuilder rb(&items_->schema());
      rb.SetInt(0, i).SetInt(1, i * 10);
      EXPECT_TRUE(items_->Insert(rb.row()).ok());
    }
    EXPECT_TRUE(db_.FlushAll().ok());
  }

  static HwParams MakeHw() {
    HwParams hw = HwParams::PaperDefaults();
    hw.mem.device_ndp_budget_bytes = 2 << 20;
    return hw;
  }
  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 64 << 10;
    return o;
  }

  nkv::NdpBufferConfig SmallBuffers() {
    nkv::NdpBufferConfig b;
    b.selection_buffer_bytes = 64 << 10;
    b.join_buffer_bytes = 32 << 10;
    b.shared_slot_bytes = 4 << 10;
    b.shared_slots = 4;
    return b;
  }

  /// Ship `table` under `alias`: full scan, no selection or projection.
  static nkv::NdpTableAccess Ship(const rel::Table& table, std::string alias) {
    nkv::TableAccess access;
    access.alias = std::move(alias);
    return nkv::SnapshotTable(table, std::move(access));
  }

  /// Scan-only command over orders with an early selection + projection.
  nkv::NdpCommand ScanCommand() {
    nkv::NdpCommand cmd;
    cmd.buffers = SmallBuffers();
    cmd.scans_only = true;
    nkv::NdpTableAccess access = Ship(*orders_, "o");
    access.predicate = Expr::CmpStr("o.note", CmpOp::kEq, "rush");
    access.projection = {"o.id", "o.item_id"};
    cmd.tables.push_back(std::move(access));
    return cmd;
  }

  HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
  rel::Table* orders_ = nullptr;
  rel::Table* items_ = nullptr;
};

TEST_F(NdpTest, DeviceAccessorMatchesHostReads) {
  // Layer deletions and overwrites so that tombstones and newer versions
  // sit in a compacted level (C2), in C1 and in the MemTable, each
  // shadowing older versions further down.
  auto overwrite = [&](int32_t pk, int32_t qty) {
    RowBuilder rb(&orders_->schema());
    rb.SetInt(0, pk).SetInt(1, 1 + pk % 100).SetInt(2, qty).SetString(3, "v");
    ASSERT_TRUE(orders_->Insert(rb.row()).ok());
  };
  auto erase = [&](int32_t pk) {
    std::string key;
    PutOrderedInt32(&key, pk);
    ASSERT_TRUE(db_.Delete(orders_->primary_cf(), key).ok());
  };
  for (int32_t pk = 1; pk <= 50; ++pk) erase(pk);
  for (int32_t pk = 51; pk <= 100; ++pk) overwrite(pk, 100);
  ASSERT_TRUE(db_.CompactAll(orders_->primary_cf()).ok());
  // Over a C2 tombstone and a C2 newer version, then flushed to C1.
  for (int32_t pk = 1; pk <= 10; ++pk) overwrite(pk, 200);
  for (int32_t pk = 51; pk <= 60; ++pk) erase(pk);
  for (int32_t pk = 101; pk <= 150; ++pk) erase(pk);
  for (int32_t pk = 151; pk <= 200; ++pk) overwrite(pk, 200);
  ASSERT_TRUE(db_.FlushAll().ok());
  // Over a C1 tombstone and a C1 newer version, left in the MemTable.
  for (int32_t pk = 101; pk <= 110; ++pk) overwrite(pk, 300);
  for (int32_t pk = 151; pk <= 160; ++pk) erase(pk);
  for (int32_t pk = 201; pk <= 250; ++pk) erase(pk);
  for (int32_t pk = 251; pk <= 300; ++pk) overwrite(pk, 300);

  nkv::NdpTableAccess access = Ship(*orders_, "o");
  const lsm::Version& version = access.primary.version;
  ASSERT_FALSE(version.levels[0].empty());
  ASSERT_FALSE(version.levels[1].empty());
  ASSERT_GT(access.primary.mem->num_entries(), 0u);
  nkv::DeviceTableAccessor accessor(&storage_, &access, {});

  // Point lookups agree with the host path for every key, including
  // NotFound for deleted rows and the newest version for overwritten ones.
  int not_found = 0;
  for (int32_t pk = 1; pk <= 3001; ++pk) {
    std::string host_row, dev_row;
    const Status host = orders_->GetByPk(lsm::ReadOptions{}, pk, &host_row);
    const Status dev = accessor.GetByPk(lsm::ReadOptions{}, pk, &dev_row);
    ASSERT_EQ(host.ToString(), dev.ToString()) << "pk " << pk;
    if (host.IsNotFound()) {
      ++not_found;
      continue;
    }
    ASSERT_TRUE(host.ok()) << host.ToString();
    EXPECT_EQ(host_row, dev_row) << "pk " << pk;
  }
  // 40 + 10 + 40 + 10 + 50 deleted rows, plus pk 3001 which never existed.
  EXPECT_EQ(not_found, 151);
  std::string row;
  ASSERT_TRUE(accessor.GetByPk(lsm::ReadOptions{}, 5, &row).ok());
  EXPECT_EQ(RowView(row.data(), &orders_->schema()).GetInt(2), 200);
  ASSERT_TRUE(accessor.GetByPk(lsm::ReadOptions{}, 105, &row).ok());
  EXPECT_EQ(RowView(row.data(), &orders_->schema()).GetInt(2), 300);
  ASSERT_TRUE(accessor.GetByPk(lsm::ReadOptions{}, 70, &row).ok());
  EXPECT_EQ(RowView(row.data(), &orders_->schema()).GetInt(2), 100);
}

TEST_F(NdpTest, DeviceAccessorSeesSharedStateMemTable) {
  // An unflushed write must be visible through the shipped snapshot
  // (update-aware NDP, paper Sect. 2.1).
  RowBuilder rb(&orders_->schema());
  rb.SetInt(0, 7777).SetInt(1, 1).SetInt(2, 1).SetString(3, "hot");
  ASSERT_TRUE(orders_->Insert(rb.row()).ok());

  nkv::NdpTableAccess access = Ship(*orders_, "o");
  nkv::DeviceTableAccessor accessor(&storage_, &access, {});
  std::string row;
  ASSERT_TRUE(accessor.GetByPk(lsm::ReadOptions{}, 7777, &row).ok());
  EXPECT_EQ(RowView(row.data(), &orders_->schema()).GetString(3).ToString(),
            "hot");
}

TEST_F(NdpTest, DeviceAccessorReadsOnlyTheIndexesItWasGiven) {
  // The executor hands each accessor the indexes its command reads; an
  // iterator over any other index fails instead of reading no rows.
  nkv::NdpTableAccess access = Ship(*orders_, "o");
  ASSERT_EQ(access.indexes.size(), 1u);
  nkv::DeviceTableAccessor without(&storage_, &access, {});
  lsm::IteratorPtr it = without.NewIndexIterator(lsm::ReadOptions{}, 0);
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsInvalidArgument()) << it->status().ToString();
  EXPECT_TRUE(without.NewIndexIterator(lsm::ReadOptions{}, 1)
                  ->status()
                  .IsInvalidArgument());

  nkv::DeviceTableAccessor with(&storage_, &access, {0});
  size_t entries = 0;
  it = with.NewIndexIterator(lsm::ReadOptions{}, 0);
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++entries;
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(entries, orders_->row_count());
}

TEST_F(NdpTest, ScanCommandFiltersAndProjects) {
  ndp::DeviceExecutor executor(&storage_, &hw_);
  auto result = executor.Execute(ScanCommand());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stream_rows.size(), 1u);
  EXPECT_EQ(result->rows().size(), 1000u);  // i % 3 == 0
  EXPECT_EQ(result->schema().row_size(), 8u);  // two ints
  EXPECT_GT(result->batches.size(), 1u);       // multiple slots filled
  EXPECT_GT(result->total_work_ns, 0);
  EXPECT_FALSE(result->pointer_cache);  // single table -> row cache
  // Batch row counts sum to the result size.
  uint64_t rows = 0;
  for (const auto& b : result->batches) rows += b.rows;
  EXPECT_EQ(rows, result->rows().size());
}

TEST_F(NdpTest, PipelinedJoinCommandProducesJoinedRows) {
  nkv::NdpCommand cmd;
  cmd.buffers = SmallBuffers();
  nkv::NdpTableAccess orders_access = Ship(*orders_, "o");
  orders_access.predicate = Expr::CmpInt("o.qty", CmpOp::kGe, 5);
  orders_access.projection = {"o.id", "o.item_id"};
  cmd.tables.push_back(std::move(orders_access));
  nkv::NdpTableAccess items_access = Ship(*items_, "i");
  items_access.projection = {"i.id", "i.price"};
  cmd.tables.push_back(std::move(items_access));
  nkv::NdpJoinStage stage;
  stage.algo = nkv::JoinAlgo::kBNLJI;
  stage.outer_key_col = "o.item_id";
  stage.inner_join_col = "id";
  cmd.joins.push_back(std::move(stage));

  ndp::DeviceExecutor executor(&storage_, &hw_);
  auto result = executor.Execute(cmd);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // qty in {5,6}: 2/7 of 3000 rows, each joining exactly one item.
  EXPECT_EQ(result->rows().size(), 856u);
  const rel::Schema& schema = result->schema();
  const int price = schema.Find("i.price");
  const int item = schema.Find("o.item_id");
  ASSERT_GE(price, 0);
  for (size_t r = 0; r < result->rows().size(); ++r) {
    RowView v(result->rows().row(r), &schema);
    EXPECT_EQ(v.GetInt(price), v.GetInt(item) * 10);
  }
}

TEST_F(NdpTest, PipelinedIndexJoinProbesTheInnerSecondaryIndex) {
  // BNLJI on a non-key inner column walks the inner table's secondary
  // index on the device, so its accessor must be given that index.
  nkv::NdpCommand cmd;
  cmd.buffers = SmallBuffers();
  nkv::NdpTableAccess items_access = Ship(*items_, "i");
  items_access.predicate = Expr::CmpInt("i.price", CmpOp::kLe, 50);
  cmd.tables.push_back(std::move(items_access));
  nkv::NdpTableAccess orders_access = Ship(*orders_, "o");
  orders_access.projection = {"o.id", "o.item_id"};
  cmd.tables.push_back(std::move(orders_access));
  nkv::NdpJoinStage stage;
  stage.algo = nkv::JoinAlgo::kBNLJI;
  stage.outer_key_col = "i.id";
  stage.inner_join_col = "item_id";
  cmd.joins.push_back(std::move(stage));

  ndp::DeviceExecutor executor(&storage_, &hw_);
  auto result = executor.Execute(cmd);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->device_status.ok()) << result->device_status.ToString();
  // Items 1..5, each the item of 30 of the 3000 orders.
  EXPECT_EQ(result->rows().size(), 150u);
  const rel::Schema& schema = result->schema();
  const int item = schema.Find("i.id");
  const int order_item = schema.Find("o.item_id");
  ASSERT_GE(order_item, 0);
  for (size_t r = 0; r < result->rows().size(); ++r) {
    RowView v(result->rows().row(r), &schema);
    EXPECT_EQ(v.GetInt(order_item), v.GetInt(item));
  }
}

TEST_F(NdpTest, ResourceCheckRejectsOverBudget) {
  nkv::NdpCommand cmd = ScanCommand();
  cmd.buffers.selection_buffer_bytes = 64ull << 20;  // > 2 MiB budget
  ndp::DeviceExecutor executor(&storage_, &hw_);
  EXPECT_TRUE(executor.Execute(cmd).status().IsResourceExhausted());
}

TEST_F(NdpTest, MalformedCommandsRejected) {
  ndp::DeviceExecutor executor(&storage_, &hw_);
  nkv::NdpCommand empty;
  empty.buffers = SmallBuffers();
  EXPECT_TRUE(executor.Execute(empty).status().IsInvalidArgument());

  nkv::NdpCommand mismatched = ScanCommand();
  mismatched.scans_only = false;  // 1 table but no joins is fine...
  mismatched.joins.emplace_back();  // ...but a join without a second table is not
  EXPECT_TRUE(executor.Execute(mismatched).status().IsInvalidArgument());

  // An index scan naming an index the table does not have is rejected at
  // admission, and the operator itself refuses it instead of reading past
  // the index list.
  nkv::NdpCommand bad_index = ScanCommand();
  bad_index.tables[0].use_index_scan = true;
  bad_index.tables[0].index_no = 99;
  EXPECT_TRUE(executor.Execute(bad_index).status().IsInvalidArgument());
  exec::IndexScanOp scan(orders_, "o", /*index_no=*/99, lsm::ReadOptions{}, 0,
                         10, nullptr, {});
  EXPECT_TRUE(scan.Open().IsInvalidArgument());
}

TEST_F(NdpTest, BufferReservationArithmetic) {
  nkv::NdpCommand cmd = ScanCommand();
  const auto& b = cmd.buffers;
  EXPECT_EQ(cmd.ReservedBufferBytes(),
            b.selection_buffer_bytes +
                static_cast<uint64_t>(b.shared_slots) * b.shared_slot_bytes);
  // Index-scan tables reserve a second (secondary) selection buffer.
  cmd.tables[0].use_index_scan = true;
  EXPECT_EQ(cmd.ReservedBufferBytes(),
            2 * b.selection_buffer_bytes +
                static_cast<uint64_t>(b.shared_slots) * b.shared_slot_bytes);
}

TEST_F(NdpTest, BnljDrainCutsBatchesAtSlotBoundaries) {
  // BNLJ pipeline whose outer block holds duplicate join keys (item_id
  // repeats), so one probe emits several rows, drained into 1 KiB slots of
  // 64 rows. Every DeviceBatch — rows, bytes and the device work behind
  // them — is pinned to the row-at-a-time drain's values: the batch drain
  // must attribute exactly the same work to each shared-buffer slot.
  nkv::NdpCommand cmd;
  cmd.buffers = SmallBuffers();
  cmd.buffers.join_buffer_bytes = 1 << 10;
  cmd.buffers.shared_slot_bytes = 1 << 10;
  nkv::NdpTableAccess orders_access = Ship(*orders_, "o");
  orders_access.predicate = Expr::CmpInt("o.qty", CmpOp::kGe, 5);
  orders_access.projection = {"o.id", "o.item_id"};
  cmd.tables.push_back(std::move(orders_access));
  nkv::NdpTableAccess items_access = Ship(*items_, "i");
  items_access.projection = {"i.id", "i.price"};
  cmd.tables.push_back(std::move(items_access));
  nkv::NdpJoinStage stage;
  stage.algo = nkv::JoinAlgo::kBNLJ;
  stage.keys = {{"o.item_id", "i.id"}};
  cmd.joins.push_back(std::move(stage));

  ndp::DeviceExecutor executor(&storage_, &hw_);
  auto result = executor.Execute(cmd);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows().size(), 856u);
  struct Pinned {
    uint64_t rows;
    uint64_t bytes;
    SimNanos work_ns;
  };
  const std::vector<Pinned> expected = {
      {64, 1024, 132225.39899999998}, {64, 1024, 14557.666000000027},
      {64, 1024, 134459.405},         {64, 1024, 12551.556999999972},
      {64, 1024, 123576.23499999999}, {64, 1024, 15003.467999999993},
      {64, 1024, 123712.98700000008}, {64, 1024, 12551.556999999913},
      {64, 1024, 117731.66900000011}, {64, 1024, 14557.665999999968},
      {64, 1024, 112520.35499999998}, {64, 1024, 12997.358999999939},
      {64, 1024, 87118.900000000023}, {24, 384, 6493.5370000000112},
  };
  ASSERT_EQ(result->batches.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_EQ(result->batches[i].stream, 0u);
    EXPECT_EQ(result->batches[i].rows, expected[i].rows);
    EXPECT_EQ(result->batches[i].bytes, expected[i].bytes);
    EXPECT_DOUBLE_EQ(result->batches[i].work_ns, expected[i].work_ns);
  }
  EXPECT_DOUBLE_EQ(result->total_work_ns, 1031128.821);
}

// ---- cooperative batch schedule ----

std::vector<ndp::DeviceBatch> MakeBatches(int n, SimNanos work,
                                          uint64_t bytes) {
  std::vector<ndp::DeviceBatch> out;
  for (int i = 0; i < n; ++i) out.push_back({0, 10, bytes, work});
  return out;
}

TEST(BatchScheduleTest, HostWaitsForProduction) {
  HwParams hw = HwParams::PaperDefaults();
  // 1 ms of device work per batch (far above the PCIe transfer latency).
  hybrid::BatchSchedule sched(MakeBatches(3, 1'000'000.0, 100), 4, &hw, 0.0,
                              /*eager=*/false);
  hybrid::StageTimes stages;
  // Host asks immediately: must wait the full production time of batch 0.
  SimNanos t0 = sched.Fetch(0, 0.0, &stages);
  EXPECT_GE(t0, 1'000'000.0);
  EXPECT_NEAR(stages.initial_wait, 1'000'000.0, 1.0);
  // Later batches attribute to later_waits (host is faster than the device).
  SimNanos t1 = sched.Fetch(1, t0, &stages);
  EXPECT_GE(t1, 2'000'000.0);
  EXPECT_GT(stages.later_waits, 0.0);
  EXPECT_GT(stages.result_transfer, 0.0);
}

TEST(BatchScheduleTest, SlotBackPressureStallsDevice) {
  HwParams hw = HwParams::PaperDefaults();
  // 1 slot: the device cannot produce batch i+1 before batch i is fetched.
  hybrid::BatchSchedule sched(MakeBatches(4, 1000.0, 100), 1, &hw, 0.0,
                              /*eager=*/false);
  hybrid::StageTimes stages;
  SimNanos host = 0;
  for (int i = 0; i < 4; ++i) {
    // Slow host: fetches every 10000 ns.
    host = std::max(host + 10000.0, sched.Fetch(i, host + 10000.0, &stages));
  }
  EXPECT_GT(sched.device_stall(), 0.0);  // device halted on full slots
}

TEST(BatchScheduleTest, EagerModeHasNoBackPressure) {
  HwParams hw = HwParams::PaperDefaults();
  hybrid::BatchSchedule sched(MakeBatches(4, 1000.0, 100), 1, &hw, 0.0,
                              /*eager=*/true);
  hybrid::StageTimes stages;
  SimNanos host = 0;
  for (int i = 0; i < 4; ++i) {
    host = sched.Fetch(i, host + 10000.0, &stages);
  }
  EXPECT_EQ(sched.device_stall(), 0.0);
}

TEST(BatchScheduleTest, ReplayedFetchesAreFree) {
  HwParams hw = HwParams::PaperDefaults();
  hybrid::BatchSchedule sched(MakeBatches(2, 1000.0, 100), 4, &hw, 0.0, false);
  hybrid::StageTimes stages;
  SimNanos t = sched.Fetch(0, 0.0, &stages);
  const SimNanos wait_once = stages.initial_wait;
  // Re-open: same batch again — already in host memory, no new wait.
  SimNanos t2 = sched.Fetch(0, t, &stages);
  EXPECT_EQ(t2, t);
  EXPECT_EQ(stages.initial_wait, wait_once);
}

}  // namespace
}  // namespace hybridndp
