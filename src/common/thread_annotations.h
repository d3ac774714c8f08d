// Clang thread-safety-analysis attribute macros (the LevelDB/RocksDB/Abseil
// convention). Under clang the annotations turn lock discipline into a
// compile-time property — `-Wthread-safety -Werror=thread-safety` (the
// HYBRIDNDP_THREAD_SAFETY cmake path, on by default for clang) rejects any
// access to a GUARDED_BY member without its mutex held. Under other
// compilers every macro expands to nothing, so annotated code stays
// portable.
//
// Conventions used across this codebase (DESIGN.md §13):
//  * Shared mutable members are GUARDED_BY the mutex that protects them.
//  * Private helpers called with a lock already held are REQUIRES(mu_)
//    and named *Locked.
//  * No code opts out of the analysis: state that is not shared across
//    threads carries no lock at all.

#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define HNDP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HNDP_THREAD_ANNOTATION_(x)  // no-op on non-clang compilers
#endif

#define CAPABILITY(x) HNDP_THREAD_ANNOTATION_(capability(x))

#define SCOPED_CAPABILITY HNDP_THREAD_ANNOTATION_(scoped_lockable)

#define GUARDED_BY(x) HNDP_THREAD_ANNOTATION_(guarded_by(x))

#define PT_GUARDED_BY(x) HNDP_THREAD_ANNOTATION_(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  HNDP_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  HNDP_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  HNDP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  HNDP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) HNDP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  HNDP_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) HNDP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  HNDP_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  HNDP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

#define EXCLUDES(...) HNDP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) HNDP_THREAD_ANNOTATION_(assert_capability(x))

#define RETURN_CAPABILITY(x) HNDP_THREAD_ANNOTATION_(lock_returned(x))
