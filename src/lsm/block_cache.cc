#include "lsm/block_cache.h"

#include "obs/metrics.h"

namespace hybridndp::lsm {

bool BlockCache::Lookup(FileId file, uint64_t offset) {
  auto it = index_.find({file, offset});
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return true;
}

void BlockCache::Insert(FileId file, uint64_t offset, uint64_t bytes) {
  const Key key{file, offset};
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (bytes > capacity_bytes_) return;  // would never fit
  lru_.push_front(Entry{key, bytes});
  index_[key] = lru_.begin();
  used_bytes_ += bytes;
  while (used_bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    used_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

void BlockCache::ExportMetrics(obs::MetricsRegistry* metrics,
                               const std::string& prefix) const {
  if (metrics == nullptr) return;
  metrics->counter(prefix + ".hits")->Set(hits_);
  metrics->counter(prefix + ".misses")->Set(misses_);
  metrics->counter(prefix + ".used_bytes")->Set(used_bytes_);
  metrics->counter(prefix + ".capacity_bytes")->Set(capacity_bytes_);
}

}  // namespace hybridndp::lsm
