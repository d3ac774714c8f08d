// K-way merging iterator over sorted child iterators (internal-key order).

#pragma once

#include <vector>

#include "lsm/internal_key.h"
#include "lsm/iterator.h"
#include "sim/cost.h"

namespace hybridndp::lsm {

/// Merges children in internal-key order. Children must be individually
/// sorted; duplicate internal keys do not occur (sequence numbers are
/// unique), so no tie-breaking is needed.
///
/// Only the current child moves between seeks, and a child that runs out
/// stays out until the next seek. So once a single child is left valid, Next
/// forwards to it without scanning the others; this is the common case of a
/// compacted store with an empty MemTable. Compares are counted among the
/// valid children only, one per valid child beyond the first.
class MergingIterator final : public Iterator {
 public:
  MergingIterator(std::vector<IteratorPtr> children, sim::AccessContext* ctx)
      : children_(std::move(children)), ctx_(ctx) {}

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    FindSmallest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    FindSmallest();
  }

  void Next() override {
    current_->Next();
    if (num_valid_ > 1) {
      FindSmallest();
    } else {
      Resync();
    }
  }

  /// The current child when it is the only valid one, else null. A caller
  /// may move it directly (the merge would only forward to it), then must
  /// call Resync before the merge's own key() or Next is used again.
  Iterator* sole_child() const { return num_valid_ == 1 ? current_ : nullptr; }

  /// Re-read the sole child's key after a caller moved it, or drop to zero
  /// valid children when it ran out.
  void Resync() {
    if (current_->Valid()) {
      key_ = current_->key();
    } else {
      num_valid_ = 0;
      current_ = nullptr;
      key_ = Slice();
    }
  }

  /// The winning key is cached: key() is the hottest call on this iterator
  /// (several times per merged record, through two virtual hops otherwise),
  /// and the slice stays valid until current_ advances.
  Slice key() const override { return key_; }
  Slice value() const override { return current_->value(); }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  void FindSmallest() {
    Iterator* smallest = nullptr;
    Slice smallest_key;
    size_t valid = 0;
    for (auto& child : children_) {
      if (!child->Valid()) continue;
      ++valid;
      const Slice child_key = child->key();
      if (smallest == nullptr ||
          CompareInternalKey(child_key, smallest_key) < 0) {
        smallest = child.get();
        smallest_key = child_key;
      }
    }
    if (ctx_ != nullptr && valid > 1) {
      ctx_->Charge(sim::CostKind::kCompareInternalKeys, valid - 1);
    }
    num_valid_ = valid;
    current_ = smallest;
    key_ = smallest_key;
  }

  std::vector<IteratorPtr> children_;
  sim::AccessContext* ctx_;
  size_t num_valid_ = 0;  ///< children valid at the last FindSmallest
  Iterator* current_ = nullptr;
  Slice key_;
};

}  // namespace hybridndp::lsm
