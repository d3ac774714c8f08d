// Fixed-size worker pool for fanning out independent work units (the host
// side of parallel strategy runs). Tasks are plain std::function jobs;
// Submit returns a future that resolves when the task has run.
//
// The pool carries no cost-model state: simulated clocks live in per-run
// AccessContexts, so running two simulations on different workers cannot
// perturb either timeline (wall-clock parallelism, simulation-identical).

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace hybridndp::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task; the future resolves when it has run.
  std::future<void> Submit(std::function<void()> fn);

  /// Default worker count: hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  /// Immutable after the constructor returns (only joined in ~ThreadPool),
  /// so size() needs no lock.
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::packaged_task<void()>> queue_ GUARDED_BY(mu_);
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace hybridndp::common
