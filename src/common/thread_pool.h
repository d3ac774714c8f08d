// The thread budget of HybridExecutor::RunAll: how many OS threads may run
// independent strategy runs at once. The class starts no thread itself;
// RunAll starts its claimer threads per call and joins them before it
// returns.
//
// It carries no cost-model state: simulated clocks live in per-run
// AccessContexts, so running two simulations on different threads cannot
// perturb either timeline (wall-clock parallelism, simulation-identical).

#pragma once

namespace hybridndp::common {

class ThreadPool {
 public:
  /// A budget of `num_threads` threads (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  int size() const { return size_; }

  /// Default thread count: hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  int size_;
};

}  // namespace hybridndp::common
