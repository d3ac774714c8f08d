// E3 / Fig. 13: quality of the optimizer's automated offloading decision.
// For every JOB query, the planner's recommended strategy/split is compared
// against the measured oracle best over {host, H0..Hx, NDP}:
//   green  = the optimizer picked the best strategy,
//   yellow = within 25% of the best (a "nearly optimal" pick),
//   gray   = miss.
// Paper: best pick in 20.35%, acceptable in 11.50% -> suitable in ~31.8%.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace hybridndp;
using namespace hybridndp::bench;
using hybrid::ExecChoice;
using hybrid::Strategy;

namespace {

std::string ChoiceKey(const ExecChoice& c) { return c.ToString(); }

}  // namespace

int main() {
  auto env = MakeJobEnv(0.0005);

  int total = 0, green = 0, yellow = 0, gray = 0;
  printf("\n=== Fig. 13: optimizer decision vs oracle best ===\n");
  printf("%-6s %-12s %-12s %10s %10s  %s\n", "query", "picked", "oracle",
         "t_pick", "t_best", "class");
  PrintRule();

  for (const auto& id : job::AllJobQueries()) {
    auto plan = PlanJob(env.get(), id.group, id.variant);
    if (!plan.ok()) continue;

    // Oracle sweep: every candidate is an independent cold-start run, so
    // fan them all over RunAll's claimer threads at once.
    std::vector<ExecChoice> candidates = {{Strategy::kHostBlk, 0},
                                          {Strategy::kFullNdp, 0}};
    for (int k = 0; k <= plan->num_tables() - 2; ++k) {
      candidates.push_back({Strategy::kHybrid, k});
    }
    auto results = RunAllChoices(env.get(), *plan, candidates);
    double best_t = -1;
    ExecChoice best_choice;
    double picked_t = -1;
    double host_t = -1;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!results[i].ok()) continue;
      const double t = results[i]->total_ms();
      if (best_t < 0 || t < best_t) {
        best_t = t;
        best_choice = candidates[i];
      }
      if (i == 0) host_t = t;  // candidates[0] is the host baseline
      if (ChoiceKey(candidates[i]) == ChoiceKey(plan->recommended)) {
        picked_t = t;
      }
    }
    if (best_t < 0) continue;
    if (picked_t < 0) {
      // Recommended choice not executable (e.g. over budget): treat as host.
      picked_t = host_t >= 0 ? host_t : best_t * 10;
    }
    ++total;

    const char* cls;
    if (ChoiceKey(plan->recommended) == ChoiceKey(best_choice)) {
      cls = "green";
      ++green;
    } else if (picked_t <= best_t * 1.25) {
      cls = "yellow";
      ++yellow;
    } else {
      cls = "gray";
      ++gray;
    }
    printf("%-6s %-12s %-12s %10.2f %10.2f  %s\n", id.ToString().c_str(),
           plan->recommended.ToString().c_str(),
           best_choice.ToString().c_str(), picked_t, best_t, cls);
  }

  PrintRule();
  printf("queries:                 %d\n", total);
  printf("best pick (green):       %d (%.2f%%)  (paper: 20.35%%)\n", green,
         100.0 * green / total);
  printf("acceptable (yellow):     %d (%.2f%%)  (paper: 11.50%%)\n", yellow,
         100.0 * yellow / total);
  printf("suitable total:          %.1f%%        (paper: ~31.8%%)\n",
         100.0 * (green + yellow) / total);
  printf("miss (gray):             %d (%.2f%%)\n", gray, 100.0 * gray / total);
  return 0;
}
