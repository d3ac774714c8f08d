// E2 / Fig. 12: all 113 JOB queries on the host-only (BLK) stack, leaf-node
// offloading (H0), every hybrid split H1..Hx, and full NDP. Reports the
// per-query winner and improvement over host-only, plus the aggregate
// fractions the paper states: hybridNDP outperforms or matches host-only in
// ~47% of queries; full NDP is best in ~1.7%; H0 alone in ~7%.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace hybridndp;
using namespace hybridndp::bench;
using hybrid::ExecChoice;
using hybrid::Strategy;

int main() {
  auto env = MakeJobEnv(0.0005);

  int total = 0;
  int hybrid_wins = 0;     // some hybrid/NDP strictly better than host-only
  int hybrid_par = 0;      // within 5% of host-only
  int wins_native = 0;     // ... and better than the NATIVE stack too
  int h0_best = 0;         // H0 is the single best strategy
  int full_ndp_best = 0;   // full NDP is the single best strategy
  int host_best = 0;

  printf("\n=== Fig. 12: per-query best strategy vs host-only [sim ms] ===\n");
  printf("%-6s %10s %10s %10s %10s  %-10s %9s\n", "query", "host", "H0",
         "bestHk", "NDP", "winner", "gain");
  PrintRule();

  for (const auto& id : job::AllJobQueries()) {
    auto plan = PlanJob(env.get(), id.group, id.variant);
    if (!plan.ok()) {
      printf("%-6s plan error: %s\n", id.ToString().c_str(),
             plan.status().ToString().c_str());
      continue;
    }
    // All strategies of one query are independent cold-start runs: fan them
    // over RunAll's claimers (choice order: BLK, NATIVE, H0..H(n-2), NDP).
    const std::vector<ExecChoice> choices =
        hybrid::HybridExecutor::AllChoices(*plan);
    auto results = RunAllChoices(env.get(), *plan, choices);
    auto ms_of = [&](size_t i) -> double {
      return i < results.size() && results[i].ok() ? results[i]->total_ms()
                                                   : -1.0;
    };

    const double host = ms_of(0);
    const double native = ms_of(1);
    const double h0 = ms_of(2);
    double best_hk = -1;
    int best_k = -1;
    for (int k = 1; k <= plan->num_tables() - 2; ++k) {
      const double t = ms_of(2 + static_cast<size_t>(k));
      if (t >= 0 && (best_hk < 0 || t < best_hk)) {
        best_hk = t;
        best_k = k;
      }
    }
    const double ndp = ms_of(results.size() - 1);

    // Winner classification.
    struct Entry {
      const char* name;
      double t;
    };
    std::vector<Entry> entries = {{"host", host}, {"H0", h0}, {"NDP", ndp}};
    std::string hk_name = "H" + std::to_string(best_k);
    if (best_hk >= 0) entries.push_back({hk_name.c_str(), best_hk});
    const Entry* best = nullptr;
    for (const auto& e : entries) {
      if (e.t >= 0 && (best == nullptr || e.t < best->t)) best = &e;
    }
    if (best == nullptr) continue;
    ++total;

    double best_offload = -1;
    for (const auto& e : entries) {
      if (e.t >= 0 && std::string(e.name) != "host" &&
          (best_offload < 0 || e.t < best_offload)) {
        best_offload = e.t;
      }
    }
    const bool wins = best_offload >= 0 && best_offload < host;
    const bool par = best_offload >= 0 && !wins && best_offload <= host * 1.05;
    if (wins) ++hybrid_wins;
    if (par) ++hybrid_par;
    if (best_offload >= 0 && native >= 0 && best_offload < native) {
      ++wins_native;
    }
    if (std::string(best->name) == "host") ++host_best;
    else if (std::string(best->name) == "H0") ++h0_best;
    else if (std::string(best->name) == "NDP") ++full_ndp_best;

    printf("%-6s %10.2f %10.2f %10.2f %10.2f  %-10s %+8.1f%%\n",
           id.ToString().c_str(), host, h0, best_hk, ndp, best->name,
           best_offload >= 0 && host > 0
               ? (host - best_offload) / host * 100.0
               : 0.0);
  }

  PrintRule();
  printf("queries evaluated:        %d\n", total);
  printf("offloading wins:          %d (%.1f%%)\n", hybrid_wins,
         100.0 * hybrid_wins / total);
  printf("offloading on par (5%%):   %d (%.1f%%)\n", hybrid_par,
         100.0 * hybrid_par / total);
  printf("wins or on par:           %.1f%%   (paper: ~47%%)\n",
         100.0 * (hybrid_wins + hybrid_par) / total);
  printf("wins vs NATIVE stack:     %d (%.1f%%)  (stricter baseline)\n",
         wins_native, 100.0 * wins_native / total);
  printf("H0 (leaf-only) best:      %d (%.1f%%)  (paper: ~7%%)\n", h0_best,
         100.0 * h0_best / total);
  printf("full NDP best:            %d (%.1f%%)  (paper: ~1.7%%)\n",
         full_ndp_best, 100.0 * full_ndp_best / total);
  printf("host-only best:           %d (%.1f%%)\n", host_best,
         100.0 * host_best / total);
  return 0;
}
