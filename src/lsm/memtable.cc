#include "lsm/memtable.h"

#include <cstring>

#include "common/coding.h"

namespace hybridndp::lsm {

struct MemTable::Node {
  const char* entry;  // encoded entry in the arena
  // Variable-height next pointer array (allocated inline, length = height).
  Node* next[1];
};

MemTable::MemTable() : rng_(0x5ee7a11) {
  head_ = NewNode(nullptr, kMaxHeight);
  for (int i = 0; i < kMaxHeight; ++i) {
    head_->next[i] = nullptr;
    tail_[i] = head_;
  }
}

MemTable::~MemTable() = default;

MemTable::Node* MemTable::NewNode(const char* entry, int height) {
  char* mem = arena_.Allocate(sizeof(Node) + sizeof(Node*) * (height - 1));
  Node* node = reinterpret_cast<Node*>(mem);
  node->entry = entry;
  return node;
}

int MemTable::RandomHeight() {
  // Increase height with probability 1/4 per level.
  int height = 1;
  while (height < kMaxHeight && rng_.Uniform(4) == 0) ++height;
  return height;
}

Slice MemTable::EntryInternalKey(const char* entry) {
  uint32_t klen = 0;
  const char* p = GetVarint32Ptr(entry, entry + 5, &klen);
  return Slice(p, klen);
}

Slice MemTable::EntryValue(const char* entry) {
  uint32_t klen = 0;
  const char* p = GetVarint32Ptr(entry, entry + 5, &klen);
  p += klen;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  return Slice(p, vlen);
}

MemTable::Node* MemTable::FindGreaterOrEqual(const Slice& ikey, Node** prev,
                                             sim::AccessContext* ctx) const {
  Node* x = head_;
  int level = max_height_ - 1;
  uint64_t compares = 0;
  Node* result = nullptr;
  // The node that ended the level above is known to be >= ikey; meeting it
  // again one level down needs no compare, though it is charged as one.
  const Node* known_ge = nullptr;
  while (true) {
    Node* next = x->next[level];
    if (next != nullptr) ++compares;
    if (next != nullptr && next != known_ge &&
        CompareInternalKey(EntryInternalKey(next->entry), ikey) < 0) {
      x = next;  // keep searching at this level
    } else {
      known_ge = next;
      if (prev != nullptr) prev[level] = x;
      if (level == 0) {
        result = next;
        break;
      }
      --level;
    }
  }
  if (ctx != nullptr && compares > 0) {
    ctx->Charge(sim::CostKind::kCompareInternalKeys, compares);
  }
  return result;
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   const Slice& value) {
  // Encode: varint32 ikey_len | ikey | varint32 val_len | val.
  const uint32_t ikey_len = static_cast<uint32_t>(user_key.size() + 8);
  const uint32_t value_len = static_cast<uint32_t>(value.size());
  const size_t encoded_len = VarintLength(ikey_len) + ikey_len +
                             VarintLength(value_len) + value_len;
  char* entry = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(entry, ikey_len);
  const Slice ikey(p, ikey_len);
  memcpy(p, user_key.data(), user_key.size());
  p += user_key.size();
  EncodeFixed64(p, PackSeqAndType(seq, type));
  p = EncodeVarint32(p + 8, value_len);
  memcpy(p, value.data(), value_len);

  // Splice: the tails when the entry sorts after the last one, otherwise
  // the nodes a descent stops at. Levels at or above max_height_ start at
  // head_ either way.
  Node* prev[kMaxHeight];
  const Node* last = tail_[0];
  if (last == head_ ||
      CompareInternalKey(EntryInternalKey(last->entry), ikey) < 0) {
    for (int i = 0; i < kMaxHeight; ++i) prev[i] = tail_[i];
  } else {
    FindGreaterOrEqual(ikey, prev, nullptr);
  }

  const int height = RandomHeight();
  if (height > max_height_) {
    for (int i = max_height_; i < height; ++i) prev[i] = head_;
    max_height_ = height;
  }
  Node* node = NewNode(entry, height);
  for (int i = 0; i < height; ++i) {
    node->next[i] = prev[i]->next[i];
    prev[i]->next[i] = node;
    if (node->next[i] == nullptr) tail_[i] = node;
  }
  ++num_entries_;
}

bool MemTable::Get(const LookupKey& key, Slice* value, bool* deleted,
                   sim::AccessContext* ctx) const {
  Node* node = FindGreaterOrEqual(key.internal_key(), nullptr, ctx);
  if (node == nullptr) return false;
  ParsedInternalKey parsed;
  if (!ParseInternalKey(EntryInternalKey(node->entry), &parsed)) return false;
  if (parsed.user_key != key.user_key()) return false;
  if (parsed.type == ValueType::kDeletion) {
    *deleted = true;
    return true;
  }
  *deleted = false;
  *value = EntryValue(node->entry);
  if (ctx != nullptr) ctx->ChargeCopy(value->size());
  return true;
}

size_t MemTable::ApproximateMemoryUsage() const {
  return arena_.MemoryUsage();
}

// Nested class: has access to MemTable internals.
class MemTable::Iter final : public lsm::Iterator {
 public:
  Iter(const MemTable* mem, sim::AccessContext* ctx) : mem_(mem), ctx_(ctx) {}

  bool Valid() const override { return node_ != nullptr; }
  void SeekToFirst() override { node_ = mem_->head_->next[0]; }
  void Seek(const Slice& target) override {
    node_ = mem_->FindGreaterOrEqual(target, nullptr, ctx_);
  }
  void Next() override { node_ = node_->next[0]; }
  Slice key() const override { return EntryInternalKey(node_->entry); }
  Slice value() const override { return EntryValue(node_->entry); }

 private:
  const MemTable* mem_;
  sim::AccessContext* ctx_;
  const Node* node_ = nullptr;
};

IteratorPtr MemTable::NewIterator(sim::AccessContext* ctx) const {
  return std::make_unique<Iter>(this, ctx);
}

}  // namespace hybridndp::lsm
