#include "hybrid/plan.h"

#include <sstream>

namespace hybridndp::hybrid {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kHostBlk:
      return "BLK";
    case Strategy::kHostNative:
      return "NATIVE";
    case Strategy::kFullNdp:
      return "NDP";
    case Strategy::kHybrid:
      return "HYBRID";
  }
  return "?";
}

std::string ExecChoice::ToString() const {
  std::string s = StrategyName(strategy);
  if (strategy == Strategy::kHybrid) {
    s += "(H" + std::to_string(split_joins) + ")";
  }
  return s;
}

std::string Plan::Explain() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "Plan for " << query.name << " (" << order.size() << " tables)\n";
  for (size_t i = 0; i < order.size(); ++i) {
    const auto& p = order[i];
    os << "  [" << i << "] " << p.table->name() << " AS " << p.access.alias;
    if (p.access.use_index_scan) {
      os << " idx[" << p.access.index_lo << "," << p.access.index_hi << "]";
    }
    os << " sel=" << p.est.selectivity << " rows=" << p.est.est_rows_out;
    if (i > 0) {
      os << " " << nkv::JoinAlgoName(p.join.algo)
         << " -> prefix_rows=" << p.est_prefix_rows;
    }
    os << " cum_dev=" << cum_dev_ms(i) << "ms cum_host=" << cum_host_ms(i)
       << "ms\n";
  }
  os << "  c_total_host=" << c_total_host / 1e6
     << "ms c_total_dev=" << c_total_dev / 1e6 << "ms c_target="
     << c_target / 1e6 << "ms split_cpu=" << split_cpu
     << " split_mem=" << split_mem << "\n";
  os << "  recommended: " << recommended.ToString()
     << " (est host=" << est_host / 1e6 << "ms ndp=" << est_ndp / 1e6
     << "ms hybrid=" << est_hybrid / 1e6 << "ms)\n";
  return os.str();
}

}  // namespace hybridndp::hybrid
