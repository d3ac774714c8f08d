// E6 / Fig. 16: the split-position sweep for JOB Q8c (paper Listing 3).
// Seven tables yield nine execution strategies: block-only, H0 through H6
// (hybrid splits at every position) and NDP-only. The cost model is forced
// to split at each position in turn.
// Expected shape: early splits (H0-H2) keep most compute on the host, late
// splits (H4+) overload the device; a middle split (paper: H3) is optimal.

#include <cstdio>

#include "bench/bench_common.h"

using namespace hybridndp;
using namespace hybridndp::bench;
using hybrid::ExecChoice;
using hybrid::Strategy;

int main() {
  auto env = MakeJobEnv();
  auto plan = PlanJob(env.get(), 8, 'c');
  if (!plan.ok()) {
    fprintf(stderr, "plan failed\n");
    return 1;
  }
  printf("\n%s\n", plan->Explain().c_str());

  printf("=== Fig. 16: Q8c execution time per split position [sim ms] ===\n");
  printf("%-12s %12s %14s %14s %14s\n", "strategy", "total ms", "host wait ms",
         "dev stall ms", "interm. rows");
  PrintRule();

  // All split positions are independent cold-start runs: execute the whole
  // sweep over RunAll's claimers and print in position order.
  std::vector<ExecChoice> choices = {{Strategy::kHostBlk, 0}};
  std::vector<std::string> names = {"block-only"};
  for (int k = 0; k <= plan->num_tables() - 2; ++k) {
    choices.push_back({Strategy::kHybrid, k});
    names.push_back("H" + std::to_string(k));
  }
  choices.push_back({Strategy::kFullNdp, 0});
  names.push_back("NDP-only");

  auto results = RunAllChoices(env.get(), *plan, choices);
  for (size_t i = 0; i < choices.size(); ++i) {
    const auto& r = results[i];
    if (!r.ok()) {
      printf("%-12s (%s)\n", names[i].c_str(),
             r.status().ToString().c_str());
      continue;
    }
    printf("%-12s %12.2f %14.2f %14.2f %14llu\n", names[i].c_str(),
           r->total_ms(),
           (r->host_stages.initial_wait + r->host_stages.later_waits) /
               kNanosPerMilli,
           r->device_stall_ns / kNanosPerMilli,
           static_cast<unsigned long long>(r->device_rows));
  }
  PrintRule();
  printf("optimizer's pick for this query: %s\n",
         plan->recommended.ToString().c_str());
  return 0;
}
