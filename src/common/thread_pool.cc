#include "common/thread_pool.h"

#include <algorithm>
#include <thread>

namespace hybridndp::common {

ThreadPool::ThreadPool(int num_threads) : size_(std::max(1, num_threads)) {}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace hybridndp::common
