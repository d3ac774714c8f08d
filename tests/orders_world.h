// The orders test world: a small star schema (orders -> customer, product)
// on a device whose memory is scaled down to the data. The strategy,
// RunAll and fault tests check over it that every strategy returns the
// host-only rows. The fault tests and CI's fault-smoke specs hit fixed
// operation numbers in this data, so its tables, rows and insertion order
// must not change.

#pragma once

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.h"
#include "exec/expr.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "lsm/db.h"
#include "rel/table.h"
#include "sim/hw_model.h"

namespace hybridndp {

/// Row counts of the three tables.
struct OrdersWorldSize {
  int customers = 200;
  int products = 100;
  int orders = 5000;
};

class OrdersWorld : public ::testing::Test {
 protected:
  explicit OrdersWorld(OrdersWorldSize size = {})
      : hw_(MakeHw()), storage_(&hw_), db_(&storage_, MakeDbOptions()),
        catalog_(&db_) {
    using rel::CharCol;
    using rel::IntCol;
    using rel::RowBuilder;
    rel::TableDef cust;
    cust.name = "customer";
    cust.schema =
        rel::Schema({IntCol("id"), CharCol("name", 16), CharCol("city", 12)});
    cust.pk_col = 0;
    cust_ = catalog_.CreateTable(std::move(cust));

    rel::TableDef prod;
    prod.name = "product";
    prod.schema =
        rel::Schema({IntCol("id"), IntCol("price"), CharCol("category", 12)});
    prod.pk_col = 0;
    prod_ = catalog_.CreateTable(std::move(prod));

    rel::TableDef orders;
    orders.name = "orders";
    orders.schema = rel::Schema({IntCol("id"), IntCol("customer_id"),
                                 IntCol("product_id"), IntCol("quantity")});
    orders.pk_col = 0;
    orders.indexes.push_back({"customer_id", 1});
    orders.indexes.push_back({"product_id", 2});
    orders_ = catalog_.CreateTable(std::move(orders));

    Rng rng(7);
    for (int i = 1; i <= size.customers; ++i) {
      RowBuilder rb(&cust_->schema());
      rb.SetInt(0, i)
          .SetString(1, "cust" + std::to_string(i))
          .SetString(2, i % 5 == 0 ? "berlin" : "city" + std::to_string(i % 9));
      EXPECT_TRUE(cust_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= size.products; ++i) {
      RowBuilder rb(&prod_->schema());
      rb.SetInt(0, i)
          .SetInt(1, 10 + (i * 13) % 500)
          .SetString(2, i % 4 == 0 ? "book" : "tool");
      EXPECT_TRUE(prod_->Insert(rb.row()).ok());
    }
    for (int i = 1; i <= size.orders; ++i) {
      RowBuilder rb(&orders_->schema());
      rb.SetInt(0, i)
          .SetInt(1, static_cast<int32_t>(rng.Zipf(size.customers, 0.5) + 1))
          .SetInt(2, static_cast<int32_t>(rng.Zipf(size.products, 0.5) + 1))
          .SetInt(3, static_cast<int32_t>(1 + rng.Uniform(20)));
      EXPECT_TRUE(orders_->Insert(rb.row()).ok());
    }
    EXPECT_TRUE(db_.FlushAll().ok());
    for (auto* t : catalog_.tables()) {
      EXPECT_TRUE(t->AnalyzeStats().ok());
    }
  }

  static sim::HwParams MakeHw() {
    sim::HwParams hw = sim::HwParams::PaperDefaults();
    // Scale device memory knobs down to the test data volume.
    hw.mem.device_selection_bytes = 64 << 10;
    hw.mem.device_join_bytes = 32 << 10;
    hw.mem.device_ndp_budget_bytes = 4 << 20;
    return hw;
  }
  static lsm::DBOptions MakeDbOptions() {
    lsm::DBOptions o;
    o.memtable_bytes = 64 << 10;
    return o;
  }

  static hybrid::PlannerConfig MakePlannerConfig() {
    hybrid::PlannerConfig cfg;
    cfg.buffers.selection_buffer_bytes = 64 << 10;
    cfg.buffers.join_buffer_bytes = 32 << 10;
    cfg.buffers.shared_slot_bytes = 4 << 10;
    cfg.buffers.shared_slots = 4;
    return cfg;
  }

  /// Three-table join query with selections on two tables.
  static hybrid::Query MakeQuery(int min_price = 400) {
    using exec::CmpOp;
    using exec::Expr;
    hybrid::Query q;
    q.name = "orders_join";
    q.tables.push_back({"orders", "o", nullptr});
    q.tables.push_back(
        {"customer", "c", Expr::CmpStr("c.city", CmpOp::kEq, "berlin")});
    q.tables.push_back(
        {"product", "p", Expr::CmpInt("p.price", CmpOp::kGe, min_price)});
    q.joins.push_back({"o", "customer_id", "c", "id"});
    q.joins.push_back({"o", "product_id", "p", "id"});
    q.select_columns = {"o.id", "c.name", "p.price"};
    return q;
  }

  /// MakeQuery() planned with MakePlannerConfig().
  Result<hybrid::Plan> MakePlan() {
    hybrid::Planner planner(&catalog_, &hw_, MakePlannerConfig());
    return planner.PlanQuery(MakeQuery());
  }

  hybrid::HybridExecutor MakeExecutor() {
    return hybrid::HybridExecutor(&catalog_, &storage_, &hw_,
                                  MakePlannerConfig());
  }

  sim::HwParams hw_;
  lsm::VirtualStorage storage_;
  lsm::DB db_;
  rel::Catalog catalog_;
  rel::Table* cust_ = nullptr;
  rel::Table* prod_ = nullptr;
  rel::Table* orders_ = nullptr;
};

/// Canonical multiset of result rows for comparison across strategies.
inline std::multiset<std::string> Canon(const hybrid::RunResult& r) {
  return std::multiset<std::string>(r.rows.begin(), r.rows.end());
}

/// Assert every simulated metric of two runs is bit-identical.
inline void ExpectIdentical(const hybrid::RunResult& a,
                            const hybrid::RunResult& b) {
  EXPECT_EQ(a.rows, b.rows);  // exact vector equality, including order
  EXPECT_EQ(a.total_ns, b.total_ns);
  EXPECT_EQ(a.host_counters.units, b.host_counters.units);
  EXPECT_EQ(a.host_counters.time_ps, b.host_counters.time_ps);
  EXPECT_EQ(a.device_counters.units, b.device_counters.units);
  EXPECT_EQ(a.device_counters.time_ps, b.device_counters.time_ps);
  EXPECT_EQ(a.host_stages.ndp_setup, b.host_stages.ndp_setup);
  EXPECT_EQ(a.host_stages.initial_wait, b.host_stages.initial_wait);
  EXPECT_EQ(a.host_stages.later_waits, b.host_stages.later_waits);
  EXPECT_EQ(a.host_stages.result_transfer, b.host_stages.result_transfer);
  EXPECT_EQ(a.host_stages.processing, b.host_stages.processing);
  EXPECT_EQ(a.device_busy_ns, b.device_busy_ns);
  EXPECT_EQ(a.device_stall_ns, b.device_stall_ns);
  EXPECT_EQ(a.device_rows, b.device_rows);
  EXPECT_EQ(a.transferred_bytes, b.transferred_bytes);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.fell_back, b.fell_back);
  EXPECT_EQ(a.fault_wasted_ns, b.fault_wasted_ns);
  EXPECT_EQ(a.fault_status.ToString(), b.fault_status.ToString());
}

}  // namespace hybridndp
