// A1: on-device join-buffer sizing ablation (paper Sect. 5, Baselines:
// "smaller buffer sizes affect the on-device performance, due to more
// frequent buffer refreshes ... a buffer size of >= 512 KB [is] reasonable
// for a BNL-join, whereas a BNLI-join is less affected").
// Sweeps the join buffer for an on-device 2-table join under both
// algorithms. Buffer sizes are scaled with the dataset like all other
// memory knobs.

#include <cstdio>

#include "bench/bench_common.h"

using namespace hybridndp;
using namespace hybridndp::bench;
using hybrid::ExecChoice;
using hybrid::Query;
using hybrid::Strategy;

int main() {
  auto env = MakeJobEnv();

  // Join with a mid-size outer so the buffer actually matters: keyword-
  // filtered movie_keyword joined with title.
  Query q;
  q.name = "buffer_ablation";
  q.tables.push_back({"movie_keyword", "mk", nullptr});
  q.tables.push_back({"title", "t", nullptr});
  q.joins.push_back({"mk", "movie_id", "t", "id"});
  q.select_columns = {"mk.id", "t.title"};

  printf("\n=== A1: on-device join buffer sweep [sim ms] ===\n");
  printf("%12s %14s %14s\n", "buffer KiB", "NDP BNL", "NDP BNLI");
  PrintRule();

  for (uint64_t kib : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    double times[2] = {-1, -1};
    int idx = 0;
    for (auto algo : {nkv::JoinAlgo::kBNLJ, nkv::JoinAlgo::kBNLJI}) {
      hybrid::PlannerConfig cfg = env->planner_config;
      cfg.buffers.join_buffer_bytes = kib << 10;
      hybrid::Planner planner(env->catalog.get(), &env->hw, cfg);
      hybrid::HybridExecutor executor(env->catalog.get(), env->storage.get(),
                                      &env->hw, cfg);
      auto plan = planner.PlanQuery(q);
      if (!plan.ok()) continue;
      for (size_t i = 1; i < plan->order.size(); ++i) {
        plan->order[i].join.algo = algo;
      }
      lsm::BlockCache cache(env->storage->TotalBytes() * 2 / 5);
      auto r = executor.Run(*plan, {Strategy::kFullNdp, 0}, &cache);
      times[idx++] = r.ok() ? r->total_ms() : -1;
    }
    printf("%12llu %14.3f %14.3f\n", static_cast<unsigned long long>(kib),
           times[0], times[1]);
  }
  PrintRule();
  printf("paper shape: BNL improves steeply with larger buffers (fewer\n"
         "inner re-scans) and flattens once the outer fits; BNLI is nearly\n"
         "insensitive to the buffer size.\n");
  return 0;
}
