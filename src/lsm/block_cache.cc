#include "lsm/block_cache.h"

#include "obs/metrics.h"

namespace hybridndp::lsm {

size_t BlockCache::HomeSlot(FileId file, uint64_t offset) const {
  uint64_t h = file * 0x9e3779b97f4a7c15ull ^ offset;
  h ^= h >> 31;
  h *= 0xd6e8feb86659fd93ull;
  h ^= h >> 32;
  return static_cast<size_t>(h) & (slots_.size() - 1);
}

size_t BlockCache::FindSlot(FileId file, uint64_t offset) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(file, offset);; i = (i + 1) & mask) {
    const uint32_t n = slots_[i];
    if (n == kNil || (nodes_[n].file == file && nodes_[n].offset == offset)) {
      return i;
    }
  }
}

void BlockCache::EraseSlot(size_t slot) {
  // Backward-shift deletion: an entry later in the run moves into the hole
  // unless its home slot lies cyclically in (hole, entry], where the probe
  // from its home would no longer pass the hole.
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t i = (slot + 1) & mask; slots_[i] != kNil; i = (i + 1) & mask) {
    const Node& n = nodes_[slots_[i]];
    const size_t home = HomeSlot(n.file, n.offset);
    const bool stays = hole <= i ? (hole < home && home <= i)
                                 : (hole < home || home <= i);
    if (!stays) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kNil;
}

void BlockCache::Rehash(size_t num_slots) {
  slots_.assign(num_slots, kNil);
  for (uint32_t n = head_; n != kNil; n = nodes_[n].next) {
    slots_[FindSlot(nodes_[n].file, nodes_[n].offset)] = n;
  }
}

void BlockCache::Unlink(uint32_t node) {
  Node& n = nodes_[node];
  (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
}

void BlockCache::PushFront(uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = node;
  head_ = node;
}

bool BlockCache::Lookup(FileId file, uint64_t offset) {
  const uint32_t node =
      slots_.empty() ? kNil : slots_[FindSlot(file, offset)];
  if (node == kNil) {
    ++misses_;
    return false;
  }
  if (node != head_) {
    Unlink(node);
    PushFront(node);
  }
  ++hits_;
  return true;
}

void BlockCache::Insert(FileId file, uint64_t offset, uint64_t bytes) {
  if (!slots_.empty()) {
    const uint32_t node = slots_[FindSlot(file, offset)];
    if (node != kNil) {
      if (node != head_) {
        Unlink(node);
        PushFront(node);
      }
      return;
    }
  }
  if (bytes > capacity_bytes_) return;  // would never fit
  if (2 * (num_entries_ + 1) > slots_.size()) {
    Rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
  uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
    nodes_[node] = Node{file, offset, bytes, kNil, kNil};
  } else {
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{file, offset, bytes, kNil, kNil});
  }
  PushFront(node);
  slots_[FindSlot(file, offset)] = node;
  ++num_entries_;
  used_bytes_ += bytes;
  while (used_bytes_ > capacity_bytes_) {
    const uint32_t victim = tail_;
    const Node& v = nodes_[victim];
    used_bytes_ -= v.bytes;
    EraseSlot(FindSlot(v.file, v.offset));
    Unlink(victim);
    nodes_[victim].next = free_;
    free_ = victim;
    --num_entries_;
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
