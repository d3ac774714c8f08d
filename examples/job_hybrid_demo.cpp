// JOB demo: build the scaled Join-Order-Benchmark database, pick a query
// (default: the paper's Q8c), explain the hybridNDP plan, and execute it
// under every strategy.
//
//   ./build/examples/job_hybrid_demo [group] [variant] [scale]
//   ./build/examples/job_hybrid_demo 17 b 0.001
//
// HNDP_THREADS sets the thread budget the strategies run on (default: the
// hardware's thread count), read and clamped to [1, 1024] as the benches
// read it; the output is the same at any size.

#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "common/parse.h"
#include "common/thread_pool.h"
#include "hybrid/executor.h"
#include "hybrid/planner.h"
#include "job/generator.h"
#include "job/queries.h"

using namespace hybridndp;

int main(int argc, char** argv) {
  uint64_t group = 8;
  const char variant = argc > 2 ? argv[2][0] : 'c';
  double scale = 0.0005;
  if ((argc > 1 && (!common::ParseUint64(argv[1], &group) ||
                    group > std::numeric_limits<int>::max())) ||
      (argc > 3 && (!common::ParseDouble(argv[3], &scale) || !(scale > 0) ||
                    scale > 1))) {
    fprintf(stderr, "usage: %s [group] [variant] [scale in (0, 1]]\n",
            argv[0]);
    return 2;
  }

  sim::HwParams hw = sim::HwParams::PaperDefaults();
  hw.mem.device_ndp_budget_bytes = 3 << 20;
  hw.mem.device_selection_bytes = 96 << 10;
  hw.mem.device_join_bytes = 48 << 10;

  lsm::VirtualStorage storage(&hw);
  lsm::DBOptions db_opts;
  db_opts.memtable_bytes = 512 << 10;
  lsm::DB db(&storage, db_opts);
  rel::Catalog catalog(&db);

  printf("Building JOB database at scale %g ...\n", scale);
  job::JobDataOptions data_opts;
  data_opts.scale = scale;
  Status st = job::BuildJobDatabase(&catalog, data_opts);
  if (!st.ok()) {
    fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const job::JobQueryId id{static_cast<int>(group), variant};
  auto query = job::MakeJobQuery(id);
  if (!query.ok()) {
    fprintf(stderr, "unknown query %s\n", id.ToString().c_str());
    return 1;
  }

  hybrid::PlannerConfig cfg;
  cfg.buffers.selection_buffer_bytes = 96 << 10;
  cfg.buffers.join_buffer_bytes = 48 << 10;
  cfg.buffers.shared_slot_bytes = 16 << 10;
  cfg.buffers.shared_slots = 4;

  hybrid::Planner planner(&catalog, &hw, cfg);
  auto plan = planner.PlanQuery(*query);
  if (!plan.ok()) {
    fprintf(stderr, "planning failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  printf("\n%s\n", plan->Explain().c_str());

  hybrid::HybridExecutor executor(&catalog, &storage, &hw, cfg);
  printf("%-14s %12s %12s %14s %12s\n", "strategy", "total ms", "waits ms",
         "interm. rows", "batches");
  // All strategies are independent cold-start runs; fan them over the
  // thread budget (each with its own fresh cache) and print in choice order.
  common::ThreadPool pool(bench::EnvThreads(
      "HNDP_THREADS", common::ThreadPool::DefaultThreads()));
  const uint64_t cache_bytes = storage.TotalBytes() * 2 / 5;
  const auto choices = hybrid::HybridExecutor::AllChoices(*plan);
  auto results = executor.RunAll(*plan, choices, &pool, [cache_bytes] {
    return std::make_unique<lsm::BlockCache>(cache_bytes);
  });
  for (size_t i = 0; i < choices.size(); ++i) {
    const auto& r = results[i];
    if (!r.ok()) {
      printf("%-14s (%s)\n", choices[i].ToString().c_str(),
             r.status().ToString().c_str());
      continue;
    }
    printf("%-14s %12.3f %12.3f %14llu %12d\n", choices[i].ToString().c_str(),
           r->total_ms(),
           (r->host_stages.initial_wait + r->host_stages.later_waits) /
               kNanosPerMilli,
           static_cast<unsigned long long>(r->device_rows), r->num_batches);
  }
  return 0;
}
