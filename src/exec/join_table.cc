#include "exec/join_table.h"

#include <algorithm>

#include "common/hash.h"

namespace hybridndp::exec {

void RowStore::Reset(size_t row_size) {
  size_ = 0;
  if (row_size == row_size_ && !chunks_.empty()) return;
  chunks_.clear();
  row_size_ = row_size;
  // The largest power-of-two row count that fits a chunk, so row(i) is a
  // shift and a mask.
  const size_t fit = row_size > 0 ? kChunkBytes / row_size : kChunkBytes;
  shift_ = 0;
  while ((size_t{2} << shift_) <= fit) ++shift_;
  mask_ = (size_t{1} << shift_) - 1;
}

KeyLayout::KeyLayout(const Schema& schema, const std::vector<int>& cols) {
  for (int c : cols) {
    parts_.push_back({schema.offset(c), schema.column(c).size});
  }
  int_key_ = !parts_.empty();
  for (const Part& p : parts_) int_key_ = int_key_ && p.width == 4;
}

uint64_t KeyLayout::Hash(const char* row) const {
  if (parts_.size() == 1) {
    return Hash64(row + parts_[0].offset, parts_[0].width);
  }
  gather_.clear();
  for (const Part& p : parts_) gather_.append(row + p.offset, p.width);
  return Hash64(gather_.data(), gather_.size());
}

void JoinTable::Reset(const Schema& schema, const std::vector<int>& key_cols) {
  rows_.Reset(schema.row_size());
  key_ = KeyLayout(schema, key_cols);
}

size_t JoinTable::Build() {
  const size_t n = rows_.size();
  // Load factor at most 1/2 even if every key is distinct.
  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  next_.resize(n);
  size_t max_count = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const char* r = rows_.row(i);
    const uint64_t hash = key_.SlotHash(r);
    Slot& slot = slots_[SlotFor(hash, key_, r)];
    if (slot.count == 0) slot.hash = hash;
    next_[i] = slot.head;  // kNone for a fresh slot
    slot.head = i;
    max_count = std::max<size_t>(max_count, ++slot.count);
  }
  return max_count;
}

}  // namespace hybridndp::exec
