// E4 / Fig. 14 (paper Listing 2): a 2-table join on non-indexed columns —
//   SELECT * FROM movie_keyword, movie_link
//   WHERE movie_link.id <= K AND movie_keyword.movie_id = movie_link.movie_id
// executed on BLK, NATIVE and the NDP stack with an on-device BNL join,
// for (A) limited projection and (B) full projection.
// Expected shape: NDP outperforms both baselines in both cases thanks to
// early selection + early projection despite the non-size-reducing join.

#include <cstdio>

#include "bench/bench_common.h"

using namespace hybridndp;
using namespace hybridndp::bench;
using hybrid::ExecChoice;
using hybrid::Query;
using hybrid::Strategy;

namespace {

/// Listing 2, scaled: id <= 1/3 of movie_link (paper: 10000 of 30000).
Query MakeListing2(BenchEnv* env, bool full_projection) {
  const int64_t hi = static_cast<int64_t>(
      env->catalog->Get("movie_link")->row_count() / 3);
  Query q;
  q.name = full_projection ? "listing2_full" : "listing2_limited";
  q.tables.push_back({"movie_keyword", "mk", nullptr});
  q.tables.push_back({"movie_link", "ml",
                      exec::Expr::CmpInt("ml.id", exec::CmpOp::kLe, hi)});
  q.joins.push_back({"mk", "movie_id", "ml", "movie_id"});
  if (full_projection) {
    q.select_columns = {"mk.id", "mk.movie_id", "mk.keyword_id",
                        "ml.id", "ml.movie_id", "ml.linked_movie_id",
                        "ml.link_type_id"};
  } else {
    q.select_columns = {"mk.id", "ml.id"};
  }
  return q;
}

/// Force a non-indexed block-nested-loop join in the plan.
void ForceBnl(hybrid::Plan* plan) {
  for (size_t i = 1; i < plan->order.size(); ++i) {
    plan->order[i].join.algo = nkv::JoinAlgo::kBNLJ;
  }
}

}  // namespace

int main() {
  auto env = MakeJobEnv();

  printf("\n=== Fig. 14: non-indexed 2-table join (Listing 2) [sim ms] ===\n");
  printf("%-22s %10s %10s %10s %14s\n", "variant", "BLK", "NATIVE", "NDP",
         "result rows");
  PrintRule();

  for (bool full : {false, true}) {
    Query q = MakeListing2(env.get(), full);
    auto plan = env->planner->PlanQuery(q);
    if (!plan.ok()) {
      fprintf(stderr, "plan failed\n");
      return 1;
    }
    ForceBnl(&*plan);

    uint64_t rows = 0;
    auto run = [&](ExecChoice choice) -> double {
      auto r = RunChoice(env.get(), *plan, choice);
      if (!r.ok()) return -1;
      rows = r->result_rows();
      return r->total_ms();
    };
    const double blk = run({Strategy::kHostBlk, 0});
    const double native = run({Strategy::kHostNative, 0});
    const double ndp = run({Strategy::kFullNdp, 0});
    printf("%-22s %10.3f %10.3f %10.3f %14llu\n",
           full ? "(B) full projection" : "(A) limited projection", blk,
           native, ndp, static_cast<unsigned long long>(rows));
  }
  PrintRule();
  printf("paper shape: the NDP stack outperforms both baselines for limited\n"
         "and full projection; in-situ filtering avoids moving non-matching\n"
         "records across the interconnect.\n");
  return 0;
}
