// Annotated mutex / scoped-lock wrappers over the standard library
// primitives. std::mutex and std::lock_guard carry no thread-safety
// attributes (libstdc++ ships none), so clang's analysis cannot see
// acquisitions made through them; these wrappers are the annotated boundary
// every shared-state class in the codebase locks through. Zero overhead:
// each method is an inline forward to the wrapped std primitive.

#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace hybridndp::common {

/// Exclusive mutex carrying the clang `capability` attribute so members can
/// be declared GUARDED_BY an instance.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

  /// Static-analysis assertion that the calling context holds the mutex
  /// (no runtime effect; documents entry points reached only under lock).
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII scoped lock (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace hybridndp::common
