// Abstract forward iterator over (internal key, value) pairs, plus helpers.

#pragma once

#include <cstddef>
#include <memory>

#include "common/slice.h"
#include "common/status.h"

namespace hybridndp::lsm {

class BlockIter;

/// Forward iterator over sorted key/value pairs. Keys at this layer are
/// internal keys unless a component documents otherwise.
class Iterator {
 public:
  virtual ~Iterator() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Position at the first entry with key >= target.
  virtual void Seek(const Slice& target) = 0;
  virtual void Next() = 0;

  /// Precondition for key()/value(): Valid().
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;

  virtual Status status() const { return Status::OK(); }

  /// Batch pull: store the current entry's value and up to `max - 1`
  /// following ones in `values`, and leave the iterator on the entry after
  /// the last one stored. Returns how many were stored: fewer than `max`
  /// only when the iterator ran out or failed (see status()). The views
  /// point into pinned SST contents or a MemTable arena and stay valid
  /// until the next pull. This default is the Valid/value/Next loop; every
  /// iterator here keeps a value valid across moves, so it holds for them.
  virtual size_t NextValues(size_t max, Slice* values) {
    size_t n = 0;
    for (; n < max && Valid(); Next()) values[n++] = value();
    return n;
  }

  /// The block cursor under the current entry when this iterator reads SST
  /// blocks and is valid, else null. A caller may step it directly while it
  /// stays valid; once it runs out, NextBlock moves this iterator on to the
  /// next entry as Next would have.
  virtual BlockIter* block_cursor() { return nullptr; }
  /// Continue after block_cursor() ran out: load the next block with an
  /// entry, or latch the cursor's error. Only valid after such a run-out.
  virtual void NextBlock() {}
};

using IteratorPtr = std::unique_ptr<Iterator>;

/// An always-invalid iterator (used for empty components). May carry a
/// non-ok status so callers that cannot propagate an open error directly
/// still surface it through the iterator contract.
class EmptyIterator final : public Iterator {
 public:
  EmptyIterator() = default;
  explicit EmptyIterator(Status status) : status_(std::move(status)) {}

  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void Seek(const Slice&) override {}
  void Next() override {}
  Slice key() const override { return Slice(); }
  Slice value() const override { return Slice(); }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace hybridndp::lsm
