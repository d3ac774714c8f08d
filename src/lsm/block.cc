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
    // Shared-prefix compress against the previous key, a word at a time.
    const size_t min_len = std::min(last_key_.size(), key.size());
    while (shared + 8 <= min_len) {
      uint64_t a, b;
      memcpy(&a, last_key_.data() + shared, 8);
      memcpy(&b, key.data() + shared, 8);
      if (a != b) break;
      shared += 8;
    }
    while (shared < min_len && last_key_[shared] == key[shared]) ++shared;
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;
  char header[15];
  char* p = EncodeVarint32(header, static_cast<uint32_t>(shared));
  p = EncodeVarint32(p, static_cast<uint32_t>(non_shared));
  p = EncodeVarint32(p, static_cast<uint32_t>(value.size()));
  buffer_.append(header, p - header);
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(value.data(), value.size());

  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  ++counter_;
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * 4 + 4;
}

Slice BlockBuilder::Finish() {
  for (uint32_t r : restarts_) PutFixed32(&buffer_, r);
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  return Slice(buffer_);
}

void BlockIter::Clear() {
  data_ = nullptr;
  restarts_offset_ = 0;
  num_restarts_ = 0;
  valid_ = false;
  key_.Truncate(0);
  value_ = Slice();
  if (!status_.ok()) status_ = Status::OK();
}

void BlockIter::Reset(Slice contents) {
  Clear();
  // Every built block has restart point 0 and its count.
  const size_t size = contents.size();
  const uint32_t num_restarts =
      size >= 4 ? DecodeFixed32(contents.data() + size - 4) : 0;
  const uint64_t trailer = 4ull + 4ull * num_restarts;
  if (num_restarts == 0 || trailer > size) {
    status_ = Status::Corruption("bad block trailer");
    return;
  }
  data_ = contents.data();
  num_restarts_ = num_restarts;
  restarts_offset_ = size - trailer;
}

void BlockIter::Corrupt(const char* what) {
  valid_ = false;
  status_ = Status::Corruption(what);
}

void BlockIter::Seek(const Slice& target) {
  if (num_restarts_ == 0) {
    valid_ = false;
    return;
  }
  // Binary search over restart points for the last restart with key <
  // target, then linear scan.
  uint32_t left = 0;
  uint32_t right = num_restarts_ - 1;
  uint64_t compares = 0;
  while (left < right) {
    const uint32_t mid = (left + right + 1) / 2;
    Slice mid_key;
    if (!RestartKey(mid, &mid_key)) {
      Corrupt("bad block restart point");
      return;
    }
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

bool BlockIter::RestartKey(uint32_t index, Slice* key) const {
  const uint32_t offset = DecodeFixed32(data_ + restarts_offset_ + 4 * index);
  if (offset >= restarts_offset_) return false;
  const char* p = data_ + offset;
  const char* limit = data_ + restarts_offset_;
  uint32_t shared = 0, non_shared = 0, value_len = 0;
  p = GetVarint32Ptr(p, limit, &shared);
  if (p != nullptr) p = GetVarint32Ptr(p, limit, &non_shared);
  if (p != nullptr) p = GetVarint32Ptr(p, limit, &value_len);
  if (p == nullptr || shared != 0 || non_shared < 8 ||
      non_shared > static_cast<size_t>(limit - p)) {
    return false;
  }
  *key = Slice(p, non_shared);
  return true;
}

void BlockIter::SeekToRestart(uint32_t index) {
  key_.Truncate(0);
  value_ = Slice();
  valid_ = false;
  if (index >= num_restarts_) return;
  next_offset_ = DecodeFixed32(data_ + restarts_offset_ + 4 * index);
  if (next_offset_ >= restarts_offset_) {
    // Only a block without entries may have its restart point at the end.
    if (restarts_offset_ > 0) Corrupt("bad block restart point");
    return;
  }
  valid_ = true;
  ParseNext();
}

void BlockIter::ParseNextChecked() {
  if (next_offset_ >= restarts_offset_) {
    valid_ = false;
    return;
  }
  const char* p = data_ + next_offset_;
  const char* limit = data_ + restarts_offset_;
  uint32_t shared = 0, non_shared = 0, value_len = 0;
  p = GetVarint32Ptr(p, limit, &shared);
  if (p != nullptr) p = GetVarint32Ptr(p, limit, &non_shared);
  if (p != nullptr) p = GetVarint32Ptr(p, limit, &value_len);
  if (p == nullptr) {
    Corrupt("bad block entry");
    return;
  }
  DecodeEntry(p, limit, shared, non_shared, value_len);
}

}  // namespace hybridndp::lsm
