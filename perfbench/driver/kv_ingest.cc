// kv-ingest: one closed-loop client reading and writing cast_info through
// the relational layer while the store stays live. 70% primary-key gets
// (Zipf 0.9 over all keys, the most recent keys hottest), 25% inserts (each
// also writes the table's 4 secondary indexes), 5% short movie_id index
// range scans. The host cache holds 1/8 of the stored bytes, so the working
// set does not fit; inline flushes and compactions stall the writes. The
// planner, executor and device are idle: this workload bypasses them.
//
// The phase runs in rounds of kKvRoundOps operations, each on a freshly
// built store, so every round covers the same growth of the store (several
// flush and compaction cycles) instead of the store growing with the run
// length. Throughput is the median over complete rounds; latencies pool
// every operation. Round 0 always completes: its first kKvSimOps
// operations are the simulated sequence, and its final store shape gives
// the flush, compaction and space figures.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "job/schema.h"
#include "job_store.h"
#include "obs/metrics.h"

namespace hybridndp::perfbench {

namespace {

constexpr uint64_t kKvRoundOps = 400000;
constexpr uint64_t kKvSimOps = 20000;
constexpr double kGetShare = 0.70;
constexpr double kInsertShare = 0.25;  // the rest are scans
constexpr double kKeyTheta = 0.9;
constexpr int32_t kScanMovies = 2;  ///< movie_id values per range scan

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "perfbench: %s\n", what.c_str());
  exit(1);
}

uint64_t ScaledRowsOf(const char* table) {
  for (const job::JobTableSpec& spec : job::JobTables()) {
    if (std::string(spec.name) == table) return job::ScaledRows(spec, kJobScale);
  }
  Die(std::string("unknown JOB table ") + table);
}

/// What the client has written so far: every cast_info row by primary key
/// (keys are dense, 1..n) and, per movie_id, its keys in ascending order.
/// Rows lie back to back in one buffer and movies index a vector, so the
/// check adds little memory traffic of its own to the operations it checks.
struct Shadow {
  std::string bytes;
  std::vector<size_t> ends{0};  ///< row pk is bytes[ends[pk - 1], ends[pk])
  std::vector<std::vector<int32_t>> by_movie;  ///< indexed by movie_id

  int32_t max_pk() const { return static_cast<int32_t>(ends.size() - 1); }
  Slice Row(int32_t pk) const {
    return Slice(bytes.data() + ends[pk - 1], ends[pk] - ends[pk - 1]);
  }
  const std::vector<int32_t>* Movie(int32_t movie) const {
    return static_cast<size_t>(movie) < by_movie.size() ? &by_movie[movie]
                                                        : nullptr;
  }
  void Add(int32_t pk, int32_t movie, const Slice& row) {
    if (pk != static_cast<int32_t>(ends.size())) {
      Die("cast_info keys are not dense");
    }
    if (movie < 0) Die("negative cast_info movie_id");
    bytes.append(row.data(), row.size());
    ends.push_back(bytes.size());
    if (static_cast<size_t>(movie) >= by_movie.size()) {
      by_movie.resize(static_cast<size_t>(movie) + 1);
    }
    by_movie[movie].push_back(pk);
  }
};

/// Wall-clock samples pooled over all rounds.
struct KvSamples {
  Reservoir wall_ms, get_us, insert_us, scan_us;
  std::vector<double> round_rates;
};

/// Runs round `round` on a fresh store until kKvRoundOps operations are
/// done or, unless it is round 0, `deadline` passes. Round 0 also exports
/// the simulated and store-shape values into `out`.
void RunRound(const Config& cfg, uint64_t round,
              WallClock::time_point deadline, SpanLog* log, KvSamples* s,
              PhaseResult* out) {
  const bool first = round == 0;
  std::unique_ptr<JobStore> store = BuildJobStore(log);
  out->setup_samples.push_back(store->build_s + store->open_readers_s);
  rel::Table* table = store->catalog->Get("cast_info");
  if (table == nullptr) Die("cast_info missing");
  const rel::Schema& schema = table->schema();
  const int movie_col = schema.Find("movie_id");
  const int movie_index = table->FindIndexOn(movie_col);
  if (movie_index < 0) Die("cast_info has no movie_id index");

  Shadow shadow;
  {
    lsm::IteratorPtr it = table->NewScanIterator(lsm::ReadOptions{});
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const rel::RowView row(it->value().data(), &schema);
      shadow.Add(row.GetInt(0), row.GetInt(movie_col), it->value());
    }
    if (!it->status().ok()) Die("scanning cast_info failed");
  }
  const uint64_t n_title = ScaledRowsOf("title");
  const uint64_t n_name = ScaledRowsOf("name");
  const uint64_t n_char = ScaledRowsOf("char_name");

  lsm::BlockCache cache(store->storage->TotalBytes() / 8);
  if (first) {
    printf("# config host_cache_bytes=%llu\n",
           static_cast<unsigned long long>(store->storage->TotalBytes() / 8));
  }
  Rng rng(cfg.seed * 1000003 + round);
  std::vector<double> sim_ms, sim_get_us;
  sim::CostCounters sim_host;
  uint64_t inserted = 0;
  std::string row;
  std::vector<int32_t> got, want;
  const WallClock::time_point start = WallClock::now();
  uint64_t op = 0;
  for (; op < kKvRoundOps && (first || WallClock::now() < deadline); ++op) {
    const uint64_t op_id = (round << 40) | op;
    const bool in_sim = first && op < kKvSimOps;
    ++out->attempted;
    const double pick = rng.NextDouble();
    ScopedSpan op_span(log, "perfbench.op", op_id);
    sim::AccessContext ctx(&store->hw, sim::Actor::kHost, sim::IoPath::kNative);
    lsm::ReadOptions ro;
    ro.ctx = &ctx;
    ro.cache = &cache;
    bool ok = false;
    bool read = true;
    const WallClock::time_point t0 = WallClock::now();
    WallClock::time_point t1;
    if (pick < kGetShare) {
      const int32_t pk =
          shadow.max_pk() -
          static_cast<int32_t>(rng.Zipf(static_cast<uint64_t>(shadow.max_pk()),
                                        kKeyTheta));
      Status st;
      {
        ScopedSpan span(log, "lsm.get", op_id);
        st = table->GetByPk(ro, pk, &row);
      }
      t1 = WallClock::now();
      s->get_us.Add(SecondsBetween(t0, t1) * 1e6);
      ok = st.ok() && Slice(row) == shadow.Row(pk);
      if (in_sim) sim_get_us.push_back(ctx.now() / kNanosPerMicro);
    } else if (pick < kGetShare + kInsertShare) {
      read = false;
      const int32_t pk = shadow.max_pk() + 1;
      const int32_t movie = static_cast<int32_t>(rng.Zipf(n_title, 0.45) + 1);
      rel::RowBuilder rb(&schema);
      rb.SetInt(0, pk);
      rb.SetInt(1, static_cast<int32_t>(rng.Zipf(n_name, 0.5) + 1));
      rb.SetInt(movie_col, movie);
      rb.SetInt(3, static_cast<int32_t>(rng.Zipf(n_char, 0.5) + 1));
      rb.SetInt(4, static_cast<int32_t>(rng.Zipf(12, 0.8) + 1));
      rb.SetString(5, rng.Bernoulli(0.5) ? "(voice)" : "");
      Status st;
      {
        ScopedSpan span(log, "lsm.insert", op_id);
        st = table->Insert(rb.row());
      }
      t1 = WallClock::now();
      s->insert_us.Add(SecondsBetween(t0, t1) * 1e6);
      ok = st.ok();
      if (ok) {
        shadow.Add(pk, movie, Slice(rb.row()));
        ++inserted;
      }
    } else {
      const int32_t movie = static_cast<int32_t>(rng.Zipf(n_title, 0.45) + 1);
      const std::string lo = rel::EncodeIndexPrefixInt(movie);
      const std::string hi = rel::EncodeIndexPrefixInt(movie + kScanMovies);
      got.clear();
      Status st;
      {
        ScopedSpan span(log, "lsm.scan", op_id);
        lsm::IteratorPtr it = table->NewIndexIterator(ro, movie_index);
        for (it->Seek(lo); it->Valid() && it->key() < Slice(hi); it->Next()) {
          const Slice key = it->key();
          got.push_back(GetOrderedInt32(key.data() + key.size() - 4));
        }
        st = it->status();
      }
      t1 = WallClock::now();
      s->scan_us.Add(SecondsBetween(t0, t1) * 1e6);
      want.clear();
      for (int32_t m = movie; m < movie + kScanMovies; ++m) {
        const std::vector<int32_t>* keys = shadow.Movie(m);
        if (keys != nullptr) want.insert(want.end(), keys->begin(), keys->end());
      }
      ok = st.ok() && got == want;
    }
    s->wall_ms.Add(SecondsBetween(t0, t1) * 1e3);
    if (!ok) ++out->failed;
    if (in_sim && read) {
      sim_ms.push_back(ctx.now() / kNanosPerMilli);
      sim_host.Merge(ctx.counters());
    }
  }
  if (op == kKvRoundOps) {
    s->round_rates.push_back(static_cast<double>(op) /
                             SecondsBetween(start, WallClock::now()));
  }
  if (!first) return;

  auto& v = out->values;
  double sim_sum_ms = 0;
  for (double ms : sim_ms) sim_sum_ms += ms;
  v["sim_mean_ms"] = sim_ms.empty() ? 0 : sim_sum_ms / sim_ms.size();
  v["sim_p99_ms"] = Quantile(sim_ms, 0.99);
  v["sim.p50_ms"] = Quantile(sim_ms, 0.50);
  v["lsm.sim_get_us_p50"] = Quantile(sim_get_us, 0.50);
  using sim::CostKind;
  v["sim.host.flash_load_bytes"] = sim_host.Units(CostKind::kFlashLoad);
  v["sim.host.hash_probe"] = sim_host.Units(CostKind::kHashProbe);
  v["sim.host.record_eval"] = sim_host.Units(CostKind::kRecordEval);
  v["sim.host.copy_bytes"] = sim_host.Units(CostKind::kCopy);
  v["samples.sim"] = static_cast<double>(sim_ms.size());

  // Store shape after the round: a function of the seed alone.
  const lsm::DB::Stats& db = store->db->stats();
  v["space_amp"] = store->SpaceAmp();
  v["job.build_s"] = store->build_s;
  v["lsm.open_readers_ms"] = store->open_readers_s * 1e3;
  v["lsm.flushes"] = static_cast<double>(db.flushes);
  v["lsm.compactions"] = static_cast<double>(db.compactions);
  const double inserted_bytes =
      static_cast<double>(inserted) * schema.row_size();
  v["lsm.write_amp"] =
      inserted_bytes > 0 ? static_cast<double>(db.compacted_bytes) /
                               inserted_bytes
                         : 0;
  v["lsm.live_files"] = static_cast<double>(store->storage->NumFiles());
  const uint64_t lookups = cache.hits() + cache.misses();
  v["lsm.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0;
  // Readers retired by compaction take their counts with them, so these
  // cover the files alive at the end of the round.
  ExportSstDelta(SstStats{}, SstStats::Of(*store->db), out);
  if (log != nullptr) {
    obs::MetricsRegistry metrics;
    store->db->ExportMetrics(&metrics);
    cache.ExportMetrics(&metrics, "perfbench.kv.cache");
    out->obs_metrics_json = metrics.ToJson();
  }
}

}  // namespace

PhaseResult RunKvIngest(const Config& cfg, double seconds, bool traced) {
  PhaseResult out;
  if (traced) out.span_logs.emplace_back(0);
  SpanLog* log = traced ? &out.span_logs[0] : nullptr;
  KvSamples s;
  const ProcCounters proc0 = ProcCounters::Now();
  const WallClock::time_point deadline =
      WallClock::now() + std::chrono::duration_cast<WallClock::duration>(
                             std::chrono::duration<double>(seconds));
  for (uint64_t round = 0; round == 0 || WallClock::now() < deadline;
       ++round) {
    RunRound(cfg, round, deadline, log, &s, &out);
  }
  const ProcCounters proc1 = ProcCounters::Now();

  auto& v = out.values;
  v["ops_per_s"] = Quantile(s.round_rates, 0.5);
  for (double r : s.round_rates) {
    if (!out.windows.empty()) out.windows += ' ';
    out.windows += std::to_string(static_cast<uint64_t>(r));
  }
  v["wall_p50_ms"] = Quantile(s.wall_ms.values(), 0.50);
  v["wall_p99_ms"] = Quantile(s.wall_ms.values(), 0.99);
  v["lsm.get_us_p50"] = Quantile(s.get_us.values(), 0.50);
  v["lsm.get_us_p99"] = Quantile(s.get_us.values(), 0.99);
  v["lsm.insert_us_p50"] = Quantile(s.insert_us.values(), 0.50);
  v["lsm.insert_us_p99"] = Quantile(s.insert_us.values(), 0.99);
  v["lsm.scan_us_p50"] = Quantile(s.scan_us.values(), 0.50);
  v["proc.cpu_s"] = proc1.cpu_s - proc0.cpu_s;
  v["proc.minor_faults"] = proc1.minor_faults - proc0.minor_faults;
  v["samples.wall"] = static_cast<double>(out.attempted);
  return out;
}

}  // namespace hybridndp::perfbench
