#include "common/arena.h"

namespace hybridndp {

char* Arena::Allocate(size_t bytes) {
  // Round up to pointer alignment so skiplist nodes are well-aligned.
  constexpr size_t kAlign = alignof(void*);
  bytes = (bytes + kAlign - 1) & ~(kAlign - 1);

  if (bytes <= alloc_bytes_remaining_) {
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }
  if (bytes > kBlockSize / 4) {
    // Large allocation gets its own block, preserving the current block.
    return AllocateNewBlock(bytes);
  }
  alloc_ptr_ = AllocateNewBlock(kBlockSize);
  alloc_bytes_remaining_ = kBlockSize;

  char* result = alloc_ptr_;
  alloc_ptr_ += bytes;
  alloc_bytes_remaining_ -= bytes;
  return result;
}

char* Arena::AllocateNewBlock(size_t block_bytes) {
  // Not zero-filled: every caller writes what it allocates before reading.
  blocks_.push_back(std::make_unique_for_overwrite<char[]>(block_bytes));
  memory_usage_ += block_bytes + sizeof(char*);
  return blocks_.back().get();
}

}  // namespace hybridndp
