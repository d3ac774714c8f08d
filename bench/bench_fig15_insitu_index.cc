// E5 / Fig. 15: impact of in-situ (on-device) secondary-index processing on
// NDP join performance. The Listing-2 query runs on-device once with a
// block-nested-loop join (NDP BNL, no index use) and once with an indexed
// block-nested-loop join through movie_keyword's secondary index on
// movie_id (NDP BNLI, the paper's Fig. 9 path), against host baselines,
// for (A) small projection and (B) full projection.
// Expected shape: BNL is the on-device bottleneck; BNLI is on par with or
// beats the host despite the host's ~31x compute advantage.

#include <cstdio>

#include "bench/bench_common.h"

using namespace hybridndp;
using namespace hybridndp::bench;
using hybrid::ExecChoice;
using hybrid::Query;
using hybrid::Strategy;

namespace {

Query MakeQuery(BenchEnv* env, bool full_projection) {
  const int64_t hi = static_cast<int64_t>(
      env->catalog->Get("movie_link")->row_count() / 3);
  Query q;
  q.name = "fig15";
  // movie_link (filtered, small) drives; movie_keyword is the inner side
  // with a secondary index on movie_id.
  q.tables.push_back({"movie_link", "ml",
                      exec::Expr::CmpInt("ml.id", exec::CmpOp::kLe, hi)});
  q.tables.push_back({"movie_keyword", "mk", nullptr});
  q.joins.push_back({"ml", "movie_id", "mk", "movie_id"});
  if (full_projection) {
    q.select_columns = {"ml.id", "ml.movie_id", "ml.linked_movie_id",
                        "ml.link_type_id", "mk.id", "mk.movie_id",
                        "mk.keyword_id"};
  } else {
    q.select_columns = {"ml.id", "mk.id"};
  }
  return q;
}

void ForceAlgo(hybrid::Plan* plan, nkv::JoinAlgo algo) {
  for (size_t i = 1; i < plan->order.size(); ++i) {
    plan->order[i].join.algo = algo;
  }
}

}  // namespace

int main() {
  auto env = MakeJobEnv();

  printf("\n=== Fig. 15: in-situ index processing (Listing 2) [sim ms] ===\n");
  printf("%-22s %10s %10s %12s %12s\n", "variant", "BLK", "NATIVE",
         "NDP BNL", "NDP BNLI");
  PrintRule();

  for (bool full : {false, true}) {
    Query q = MakeQuery(env.get(), full);
    auto plan = env->planner->PlanQuery(q);
    if (!plan.ok()) {
      fprintf(stderr, "plan failed: %s\n",
              plan.status().ToString().c_str());
      return 1;
    }
    // Make sure the driving table stays movie_link (the filtered one).
    auto run = [&](ExecChoice choice, nkv::JoinAlgo algo) -> double {
      hybrid::Plan p = *plan;
      ForceAlgo(&p, algo);
      auto r = RunChoice(env.get(), p, choice);
      return r.ok() ? r->total_ms() : -1;
    };
    const double blk = run({Strategy::kHostBlk, 0}, nkv::JoinAlgo::kBNLJI);
    const double native = run({Strategy::kHostNative, 0},
                              nkv::JoinAlgo::kBNLJI);
    const double ndp_bnl = run({Strategy::kFullNdp, 0}, nkv::JoinAlgo::kBNLJ);
    const double ndp_bnli =
        run({Strategy::kFullNdp, 0}, nkv::JoinAlgo::kBNLJI);
    printf("%-22s %10.3f %10.3f %12.3f %12.3f\n",
           full ? "(B) full projection" : "(A) small projection", blk, native,
           ndp_bnl, ndp_bnli);
  }
  PrintRule();
  printf("paper shape: without in-situ index use (NDP BNL) the device falls\n"
         "behind; with BNLI it competes with or outperforms the host.\n");
  return 0;
}
