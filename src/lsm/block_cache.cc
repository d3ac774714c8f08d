#include "lsm/block_cache.h"

#include <cstring>

#include "common/hash.h"
#include "obs/metrics.h"

namespace hybridndp::lsm {

BlockCache::BlockCache(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  const int n = capacity_bytes >= kShardedCapacityMin ? kDefaultShards : 1;
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity_bytes = capacity_bytes / n;
    shards_.push_back(std::move(shard));
  }
}

BlockCache::Shard& BlockCache::ShardFor(FileId file, uint64_t offset) {
  if (shards_.size() == 1) return *shards_[0];
  char key_bytes[16];
  memcpy(key_bytes, &file, 8);
  memcpy(key_bytes + 8, &offset, 8);
  return *shards_[Hash64(key_bytes, sizeof(key_bytes)) % shards_.size()];
}

bool BlockCache::Lookup(FileId file, uint64_t offset) {
  Shard& shard = ShardFor(file, offset);
  common::MutexLock lock(shard.mu);
  auto it = shard.index.find({file, offset});
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return true;
}

void BlockCache::Insert(FileId file, uint64_t offset, uint64_t bytes) {
  Shard& shard = ShardFor(file, offset);
  common::MutexLock lock(shard.mu);
  const Key key{file, offset};
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (bytes > shard.capacity_bytes) return;  // would never fit
  shard.lru.push_front(Entry{key, bytes});
  shard.index[key] = shard.lru.begin();
  shard.used_bytes += bytes;
  while (shard.used_bytes > shard.capacity_bytes && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.used_bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

void BlockCache::EraseFile(FileId file) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    common::MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.first == file) {
        shard.used_bytes -= it->bytes;
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

uint64_t BlockCache::used_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    total += shard->used_bytes;
  }
  return total;
}

uint64_t BlockCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

uint64_t BlockCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

void BlockCache::ExportMetrics(obs::MetricsRegistry* metrics,
                               const std::string& prefix) const {
  if (metrics == nullptr) return;
  metrics->counter(prefix + ".hits")->Set(hits());
  metrics->counter(prefix + ".misses")->Set(misses());
  metrics->counter(prefix + ".used_bytes")->Set(used_bytes());
  metrics->counter(prefix + ".capacity_bytes")->Set(capacity_bytes_);
}

}  // namespace hybridndp::lsm
