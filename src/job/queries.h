// The 113 queries of the Join-Order Benchmark (33 groups, variants a-f),
// expressed against our engine. Join graphs follow the original JOB
// queries; predicates target the synthetic generator's vocabularies so the
// selectivity structure (highly selective dimension filters, LIKE patterns
// on notes/titles, FK fan-outs) carries over. Groups 1 and 8 follow the
// paper's Listings 1 and 3 verbatim.

#pragma once

#include <string>
#include <vector>

#include "hybrid/query.h"

namespace hybridndp::job {

/// Identifier of one JOB query, e.g. {8, 'c'}.
struct JobQueryId {
  int group = 1;
  char variant = 'a';

  std::string ToString() const {
    return std::to_string(group) + std::string(1, variant);
  }
};

/// All 113 query ids in benchmark order (1a..33c).
std::vector<JobQueryId> AllJobQueries();

/// Build one JOB query. Fails for unknown group/variant.
Result<hybrid::Query> MakeJobQuery(const JobQueryId& id);

}  // namespace hybridndp::job
