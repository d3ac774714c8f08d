#include "sim/fault.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/parse.h"
#include "obs/metrics.h"

namespace hybridndp::sim {

namespace {

constexpr const char* kSiteNames[kNumFaultSites] = {
    "storage.read", "storage.write", "sst.read", "device.exec", "coop.slot",
};

/// splitmix64 — deterministic, statistically solid for per-op coin flips.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// number + optional ns/us/ms suffix -> simulated nanoseconds.
bool ParseDuration(std::string_view s, SimNanos* out) {
  double scale = 1.0;
  if (s.size() >= 2) {
    const std::string_view suffix = s.substr(s.size() - 2);
    if (suffix == "ns") {
      s.remove_suffix(2);
    } else if (suffix == "us") {
      scale = 1e3;
      s.remove_suffix(2);
    } else if (suffix == "ms") {
      scale = 1e6;
      s.remove_suffix(2);
    }
  }
  double v = 0;
  if (!common::ParseDouble(s, &v) || v < 0 || !std::isfinite(v * scale)) {
    return false;
  }
  *out = v * scale;
  return true;
}

Status BadSpec(std::string_view what, std::string_view token) {
  return Status::InvalidArgument("HNDP_FAULTS: " + std::string(what) + " '" +
                                 std::string(token) + "'");
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  return kSiteNames[static_cast<int>(site)];
}

bool ParseFaultSite(std::string_view name, FaultSite* out) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (name == kSiteNames[i]) {
      *out = static_cast<FaultSite>(i);
      return true;
    }
  }
  return false;
}

Result<FaultConfig> FaultConfig::Parse(std::string_view spec) {
  FaultConfig cfg;
  for (std::string_view clause : Split(spec, ';')) {
    clause = Trim(clause);
    if (clause.empty()) continue;
    const size_t colon = clause.find(':');
    if (colon == std::string_view::npos) {
      return BadSpec("clause missing ':'", clause);
    }
    const std::string_view site_name = Trim(clause.substr(0, colon));
    const std::string_view items = clause.substr(colon + 1);

    if (site_name == "retry") {
      for (std::string_view item : Split(items, ',')) {
        item = Trim(item);
        if (item.empty()) continue;
        if (item.substr(0, 7) == "budget=") {
          uint64_t v = 0;
          if (!common::ParseUint64(item.substr(7), &v) || v > 1000) {
            return BadSpec("bad retry budget", item);
          }
          cfg.retry_budget = static_cast<int>(v);
        } else if (item.substr(0, 8) == "backoff=") {
          if (!ParseDuration(item.substr(8), &cfg.backoff_ns)) {
            return BadSpec("bad retry backoff", item);
          }
        } else {
          return BadSpec("unknown retry item", item);
        }
      }
      continue;
    }

    FaultSite site;
    if (!ParseFaultSite(site_name, &site)) {
      return BadSpec("unknown fault site", site_name);
    }
    FaultPolicy& p = cfg.sites[static_cast<int>(site)];
    for (std::string_view item : Split(items, ',')) {
      item = Trim(item);
      if (item.empty()) continue;
      if (item == "always") {
        if (p.armed()) return BadSpec("conflicting triggers", clause);
        p.trigger = FaultPolicy::Trigger::kAlways;
      } else if (item.substr(0, 4) == "nth=") {
        if (p.armed()) return BadSpec("conflicting triggers", clause);
        if (!common::ParseUint64(item.substr(4), &p.nth) || p.nth == 0) {
          return BadSpec("bad nth", item);
        }
        p.trigger = FaultPolicy::Trigger::kNth;
      } else if (item.substr(0, 5) == "prob=") {
        if (p.armed()) return BadSpec("conflicting triggers", clause);
        if (!common::ParseDouble(item.substr(5), &p.prob) || p.prob < 0 ||
            p.prob > 1) {
          return BadSpec("bad prob", item);
        }
        p.trigger = FaultPolicy::Trigger::kProb;
      } else if (item.substr(0, 6) == "stall=") {
        if (!ParseDuration(item.substr(6), &p.stall_ns) || p.stall_ns <= 0) {
          return BadSpec("bad stall", item);
        }
      } else if (item.substr(0, 5) == "seed=") {
        if (!common::ParseUint64(item.substr(5), &p.seed)) {
          return BadSpec("bad seed", item);
        }
      } else {
        return BadSpec("unknown policy item", item);
      }
    }
    if (!p.armed()) {
      return BadSpec("clause has no trigger (nth=/prob=/always)", clause);
    }
    if (p.stall_ns > kMaxCheckDelayNs) {
      return BadSpec("stall above one simulated hour", clause);
    }
  }
  // After every clause: `retry:` may come before or after the sites.
  if (cfg.backoff_ns * (std::ldexp(1.0, cfg.retry_budget) - 1) >
      kMaxCheckDelayNs) {
    return BadSpec("retry backoff x (2^budget - 1) above one simulated hour",
                   spec);
  }
  return cfg;
}

std::atomic<bool> FaultInjector::enabled_{false};

FaultInjector& FaultInjector::Global() {
  // hndp-lint: allow(raw-new) leak-on-purpose process singleton
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Configure(const FaultConfig& cfg) {
  {
    common::MutexLock lock(mu_);
    config_ = cfg;
  }
  ResetCounters();
  enabled_.store(cfg.any_armed(), std::memory_order_relaxed);
}

FaultConfig FaultInjector::config() const {
  common::MutexLock lock(mu_);
  return config_;
}

FaultInjector::SiteStats FaultInjector::Stats(FaultSite site) const {
  const AtomicSiteStats& a = stats_[static_cast<int>(site)];
  SiteStats s;
  s.ops = a.ops.load(std::memory_order_relaxed);
  s.injected = a.injected.load(std::memory_order_relaxed);
  s.stalls = a.stalls.load(std::memory_order_relaxed);
  s.retries = a.retries.load(std::memory_order_relaxed);
  s.exhausted = a.exhausted.load(std::memory_order_relaxed);
  return s;
}

void FaultInjector::ResetCounters() {
  for (auto& s : stats_) {
    s.ops.store(0, std::memory_order_relaxed);
    s.injected.store(0, std::memory_order_relaxed);
    s.stalls.store(0, std::memory_order_relaxed);
    s.retries.store(0, std::memory_order_relaxed);
    s.exhausted.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::Fires(const FaultPolicy& policy, FaultSite site) {
  AtomicSiteStats& s = stats_[static_cast<int>(site)];
  const uint64_t op = s.ops.fetch_add(1, std::memory_order_relaxed) + 1;
  switch (policy.trigger) {
    case FaultPolicy::Trigger::kNever:
      return false;
    case FaultPolicy::Trigger::kNth:
      return op == policy.nth;
    case FaultPolicy::Trigger::kProb: {
      const uint64_t h =
          Mix64(policy.seed ^ (static_cast<uint64_t>(site) << 56) ^ op);
      // Top 53 bits -> uniform double in [0, 1).
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      return u < policy.prob;
    }
    case FaultPolicy::Trigger::kAlways:
      return true;
  }
  return false;
}

Status FaultInjector::Check(FaultSite site, AccessContext* ctx) {
  FaultPolicy policy;
  int retry_budget;
  SimNanos backoff;
  {
    // One short critical section to snapshot the (small) policy + retry
    // knobs; the retry loop below then runs lock-free. Only armed runs pay
    // this — the disarmed fast path never reaches Check.
    common::MutexLock lock(mu_);
    policy = config_.sites[static_cast<int>(site)];
    retry_budget = config_.retry_budget;
    backoff = config_.backoff_ns;
  }
  if (!policy.armed()) return Status::OK();
  AtomicSiteStats& s = stats_[static_cast<int>(site)];
  if (!Fires(policy, site)) return Status::OK();

  if (policy.stall_ns > 0) {
    // Latency spike: the operation succeeds, just late.
    s.stalls.fetch_add(1, std::memory_order_relaxed);
    if (ctx != nullptr) ctx->ChargeLatency(policy.stall_ns);
    return Status::OK();
  }

  s.injected.fetch_add(1, std::memory_order_relaxed);
  // Transient-error model: retry with doubling simulated backoff. Each
  // attempt is a fresh draw against the same policy, so nth-style faults
  // recover on the first retry while always/high-prob faults exhaust the
  // budget and surface as a permanent IOError.
  for (int attempt = 1; attempt <= retry_budget; ++attempt) {
    s.retries.fetch_add(1, std::memory_order_relaxed);
    if (ctx != nullptr) ctx->ChargeLatency(backoff);
    backoff *= 2;
    if (!Fires(policy, site)) return Status::OK();
    s.injected.fetch_add(1, std::memory_order_relaxed);
  }
  s.exhausted.fetch_add(1, std::memory_order_relaxed);
  return Status::IOError(std::string("injected fault at ") +
                         FaultSiteName(site) + " (retry budget " +
                         std::to_string(retry_budget) + " exhausted)");
}

void FaultInjector::ExportMetrics(obs::MetricsRegistry* reg) const {
  if (reg == nullptr || !Enabled()) return;
  const FaultConfig cfg = config();
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (!cfg.sites[i].armed()) continue;
    const SiteStats st = Stats(static_cast<FaultSite>(i));
    const std::string site = kSiteNames[i];
    reg->counter("hndp.fault.ops." + site)->Set(st.ops);
    reg->counter("hndp.fault.injected." + site)->Set(st.injected);
    reg->counter("hndp.fault.stalls." + site)->Set(st.stalls);
    reg->counter("hndp.retry.attempts." + site)->Set(st.retries);
    reg->counter("hndp.retry.exhausted." + site)->Set(st.exhausted);
  }
}

ScopedFaultInjection::ScopedFaultInjection(const FaultConfig& cfg)
    : prev_config_(FaultInjector::Global().config()) {
  FaultInjector::Global().Configure(cfg);
}

ScopedFaultInjection::ScopedFaultInjection(std::string_view spec)
    : prev_config_(FaultInjector::Global().config()) {
  auto cfg = FaultConfig::Parse(spec);
  if (!cfg.ok()) {
    fprintf(stderr, "ScopedFaultInjection: %s\n",
            cfg.status().ToString().c_str());
    abort();
  }
  FaultInjector::Global().Configure(*cfg);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::Global().Configure(prev_config_);
}

}  // namespace hybridndp::sim
