#include "lsm/block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "lsm/internal_key.h"

namespace hybridndp::lsm {

BlockBuilder::BlockBuilder(int restart_interval)
    : restart_interval_(std::max(1, restart_interval)) {
  restarts_.push_back(0);
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  restarts_.push_back(0);
  counter_ = 0;
  last_key_.clear();
}

void BlockBuilder::Add(const Slice& key, const Slice& value) {
  size_t shared = 0;
  if (counter_ < restart_interval_) {
    // Shared-prefix compress against the previous key.
    const size_t min_len = std::min(last_key_.size(), key.size());
    while (shared < min_len && last_key_[shared] == key[shared]) ++shared;
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;
  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(non_shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(value.data(), value.size());

  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  ++counter_;
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * 4 + 4;
}

std::string BlockBuilder::Finish() {
  for (uint32_t r : restarts_) PutFixed32(&buffer_, r);
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  std::string out = std::move(buffer_);
  Reset();
  return out;
}

BlockReader::BlockReader(Slice contents)
    : data_(contents.data()), size_(contents.size()) {
  // Every built block has restart point 0 and its count.
  if (size_ >= 4) num_restarts_ = DecodeFixed32(data_ + size_ - 4);
  const uint64_t trailer = 4ull + 4ull * num_restarts_;
  if (num_restarts_ == 0 || trailer > size_) {
    size_ = 0;
    num_restarts_ = 0;
    status_ = Status::Corruption("bad block trailer");
    return;
  }
  restarts_offset_ = static_cast<uint32_t>(size_ - trailer);
}

class BlockReader::Iter final : public Iterator {
 public:
  Iter(const BlockReader* block, sim::AccessContext* ctx)
      : block_(block), ctx_(ctx) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override { SeekToRestart(0); }

  void Seek(const Slice& target) override {
    // Binary search over restart points for the last restart with key <
    // target, then linear scan.
    uint32_t left = 0;
    uint32_t right = block_->num_restarts_ == 0 ? 0 : block_->num_restarts_ - 1;
    if (block_->num_restarts_ == 0) {
      valid_ = false;
      return;
    }
    uint64_t compares = 0;
    while (left < right) {
      const uint32_t mid = (left + right + 1) / 2;
      Slice mid_key = RestartKey(mid);
      ++compares;
      if (CompareInternalKey(mid_key, target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }
    if (ctx_ != nullptr) {
      ctx_->Charge(sim::CostKind::kSeekDataBlock, 1);
      ctx_->Charge(sim::CostKind::kCompareInternalKeys, compares);
    }
    SeekToRestart(left);
    uint64_t scan_compares = 0;
    while (valid_ && CompareInternalKey(key(), target) < 0) {
      ++scan_compares;
      ParseNext();
    }
    if (ctx_ != nullptr && scan_compares > 0) {
      ctx_->Charge(sim::CostKind::kCompareInternalKeys, scan_compares);
    }
  }

  void Next() override {
    assert(valid_);
    ParseNext();
  }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return value_; }
  Status status() const override { return status_; }

 private:
  Slice RestartKey(uint32_t index) {
    // Restart entries have shared == 0, so the key is stored verbatim.
    const char* p =
        block_->data_ + DecodeFixed32(block_->data_ + block_->restarts_offset_ +
                                      4 * index);
    const char* limit = block_->data_ + block_->restarts_offset_;
    uint32_t shared = 0, non_shared = 0, value_len = 0;
    p = GetVarint32Ptr(p, limit, &shared);
    p = GetVarint32Ptr(p, limit, &non_shared);
    p = GetVarint32Ptr(p, limit, &value_len);
    return Slice(p, non_shared);
  }

  void SeekToRestart(uint32_t index) {
    key_.clear();
    value_ = Slice();
    if (index >= block_->num_restarts_) {
      valid_ = false;
      return;
    }
    next_offset_ =
        DecodeFixed32(block_->data_ + block_->restarts_offset_ + 4 * index);
    valid_ = true;
    ParseNext();
  }

  /// Parse the entry at next_offset_ into key_/value_.
  void ParseNext() {
    if (next_offset_ >= block_->restarts_offset_) {
      valid_ = false;
      return;
    }
    const char* p = block_->data_ + next_offset_;
    const char* limit = block_->data_ + block_->restarts_offset_;
    uint32_t shared = 0, non_shared = 0, value_len = 0;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &non_shared);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &value_len);
    if (p == nullptr || p + non_shared + value_len > limit ||
        shared > key_.size()) {
      valid_ = false;
      status_ = Status::Corruption("bad block entry");
      return;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_len);
    next_offset_ = static_cast<uint32_t>((p + non_shared + value_len) -
                                         block_->data_);
  }

  const BlockReader* block_;
  sim::AccessContext* ctx_;
  bool valid_ = false;
  uint32_t next_offset_ = 0;
  std::string key_;
  Slice value_;
  Status status_;
};

IteratorPtr BlockReader::NewIterator(sim::AccessContext* ctx) const {
  if (!status_.ok()) return std::make_unique<EmptyIterator>(status_);
  return std::make_unique<Iter>(this, ctx);
}

}  // namespace hybridndp::lsm
