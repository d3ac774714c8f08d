// The NDP invocation (paper Sect. 2.1, 4.1, Fig. 7.A): everything the smart
// storage device needs to execute a partial QEP autonomously and
// intervention-free — the shared state (the unflushed MemTable), the file
// list of every involved SST (its placement info), index metadata,
// the PQEP descriptor, predicates, and the buffer configuration.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "lsm/db.h"
#include "rel/table.h"

namespace hybridndp::nkv {

/// Which on-device join algorithm a pipeline stage uses (paper Sect. 2.1).
enum class JoinAlgo : uint8_t {
  kNLJ = 0,
  kBNLJ = 1,   ///< block nested loop (hash table in the join buffer)
  kBNLJI = 2,  ///< indexed block nested loop (primary or secondary index)
  kGHJ = 3,    ///< grace hash join (partitions persisted on-device)
};

const char* JoinAlgoName(JoinAlgo algo);

/// The PQEP leaf descriptor of one plan position (paper Sect. 3.3): the
/// early selection / projection pushed into the table's scan and the
/// access path. The planner emits it; both sides of a split build from it.
struct TableAccess {
  std::string alias;
  /// Early selection on this table (aliased column names).
  exec::Expr::Ptr predicate;
  /// Early projection: columns (aliased) this table contributes upstream.
  std::vector<std::string> projection;

  /// Optional index-driven access instead of a full scan.
  bool use_index_scan = false;
  size_t index_no = 0;
  int64_t index_lo = 0;
  int64_t index_hi = 0;
};

/// One table of an NDP command: its access plus the shipped state, i.e.
/// snapshots of the primary and secondary column families.
struct NdpTableAccess : TableAccess {
  rel::TableDef def;
  lsm::CfSnapshot primary;                 ///< shared state + placements
  std::vector<lsm::CfSnapshot> indexes;    ///< one per secondary index
};

/// One join stage of a left-deep PQEP; joins the running intermediate
/// result with the next table.
struct NdpJoinStage {
  JoinAlgo algo = JoinAlgo::kBNLJ;
  std::vector<exec::JoinKey> keys;  ///< every equi-edge to the prefix
  /// BNLJI only: the edges past the indexed one, filtered after the join.
  exec::Expr::Ptr residual;
  /// BNLJI: outer stream key column and inner (unaliased) join column.
  std::string outer_key_col;
  std::string inner_join_col;
};

/// Buffer configuration of the on-device pipeline (paper Sect. 4.2 + 5).
struct NdpBufferConfig {
  uint64_t selection_buffer_bytes = 17ull << 20;  ///< per selection stage
  uint64_t join_buffer_bytes = 7ull << 20;        ///< per join stage
  uint64_t shared_slot_bytes = 256ull << 10;      ///< one result-buffer slot
  int shared_slots = 4;                           ///< round-robin slots
};

/// A complete NDP command.
struct NdpCommand {
  std::vector<NdpTableAccess> tables;  ///< in join order
  std::vector<NdpJoinStage> joins;     ///< joins.size() <= tables.size()-1

  /// When true the device executes each table as an independent NDP
  /// selection (split H0: offload all leaves, keep every join on the host);
  /// joins above must be empty.
  bool scans_only = false;

  /// Optional pipeline-terminal GROUP BY / aggregation (full-NDP plans).
  bool has_agg = false;
  std::vector<std::string> group_cols;
  std::vector<exec::AggSpec> aggs;

  /// Final projection of the device result (empty = full width; ignored
  /// under has_agg, whose output is the aggregate row).
  std::vector<std::string> output_projection;

  NdpBufferConfig buffers;

  /// Intermediate cache format override (paper Sect. 4.2): 0 = automatic
  /// (pointer format beyond 2 tables), 1 = force row cache, 2 = force
  /// pointer cache. Used by the cache-format ablation.
  int force_cache_format = 0;

  /// Device memory the configured pipeline reserves (checked against the
  /// NDP budget before deployment).
  uint64_t ReservedBufferBytes() const;
};

/// The device-buffer reservation rule (paper Sect. 4.2): one selection
/// buffer per table plus one per index scan (secondary selection), one join
/// buffer per join, and the shared slots. Both the device's admission check
/// and the planner's feasibility test apply it.
uint64_t ReservedBufferBytes(const NdpBufferConfig& buffers, size_t num_tables,
                             size_t num_index_scans, size_t num_joins);

/// InvalidArgument unless every buffer holds something: each byte size is
/// positive and there is at least one shared slot. The planner and the
/// device's admission check both apply it.
Status CheckBufferConfig(const NdpBufferConfig& buffers);

// ---- The PQEP builder both sides of a split use (paper Sect. 3.3, 4). The
// caller passes its accessor (host Table or DeviceTableAccessor) and the
// read options whose context is charged.

/// Leaf scan: index range scan or full scan with early selection/projection.
exec::OperatorPtr BuildScan(const TableAccess& access,
                            const rel::TableAccessor* accessor,
                            const lsm::ReadOptions& opts);

/// Join two operator inputs on `keys` with NLJ, BNLJ or GHJ; kBNLJI probes
/// an index instead of an input, so it builds BNLJ here. The one place these
/// three operators are built.
exec::OperatorPtr JoinInputs(exec::OperatorPtr outer, exec::OperatorPtr inner,
                             JoinAlgo algo,
                             const std::vector<exec::JoinKey>& keys,
                             uint64_t join_buffer_bytes,
                             sim::AccessContext* ctx);

/// Join `outer` with `inner_access` under `stage.algo`. BNLJI joins on one
/// edge and applies `stage.residual` as a post-join filter; the other
/// algorithms join on every edge in `stage.keys`.
exec::OperatorPtr BuildJoin(exec::OperatorPtr outer, const NdpJoinStage& stage,
                            const TableAccess& inner_access,
                            const rel::TableAccessor* accessor,
                            const lsm::ReadOptions& opts,
                            uint64_t join_buffer_bytes);

/// Pipeline root: GROUP BY / aggregation when `has_agg`, otherwise the
/// projection (none when empty).
exec::OperatorPtr BuildRoot(exec::OperatorPtr acc, bool has_agg,
                            const std::vector<std::string>& group_cols,
                            const std::vector<exec::AggSpec>& aggs,
                            const std::vector<std::string>& projection,
                            sim::AccessContext* ctx);

/// Device-side table accessor: reads the shipped CfSnapshots through its
/// own reader table, charging the *internal* flash path. This is the
/// device's own view of the LSM-trees — it never touches host reader state.
/// The table holds, from construction, a reader of every file of the
/// primary snapshot and of the index snapshots in `indexes_read`, the ones
/// the command reads; each opens on first use and charges its index load to
/// that read. An iterator over any other index fails with InvalidArgument.
/// A read at kMaxSequenceNumber reads at the shipped snapshot's sequence.
class DeviceTableAccessor final : public rel::TableAccessor {
 public:
  DeviceTableAccessor(const lsm::VirtualStorage* storage,
                      const NdpTableAccess* access,
                      const std::vector<size_t>& indexes_read);

  const rel::TableDef& def() const override { return access_->def; }
  using TableAccessor::GetByPk;
  Status GetByPk(const lsm::ReadOptions& opts, int32_t pk,
                 Slice* row) const override;
  lsm::IteratorPtr NewScanIterator(
      const lsm::ReadOptions& opts) const override;
  lsm::IteratorPtr NewIndexIterator(const lsm::ReadOptions& opts,
                                    size_t index_no) const override;

 private:
  const NdpTableAccess* access_;
  std::vector<bool> index_readable_;  ///< by index_no
  lsm::ReaderTable readers_;
};

/// Ship `access` for a live table: its definition and the shared-state
/// snapshots of its primary and secondary column families.
NdpTableAccess SnapshotTable(const rel::Table& table, TableAccess access);

}  // namespace hybridndp::nkv
