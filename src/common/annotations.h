// Clang thread-safety-analysis (CTSA) annotation macros.
//
// The staged design's locking discipline — per-stage queue locks,
// park/wake handshakes, bottom-up activation — is exactly the kind of
// invariant that should be stated in the type system instead of rediscovered
// by TSan one race at a time. These macros let a class declare which mutex
// guards which field (GUARDED_BY), which private helpers expect a lock held
// (REQUIRES), and which functions acquire/release capabilities
// (ACQUIRE/RELEASE), all checked at compile time by Clang's
// -Wthread-safety analysis. docs/DESIGN.md §11 documents the lock hierarchy
// and how to annotate new code.
//
// Under compilers without the attribute (GCC builds, which this repo's
// default toolchain uses) every macro expands to nothing, so the annotations
// are zero-cost documentation there; the CI static-analysis leg builds with
// Clang and -Werror=thread-safety to enforce them.
#ifndef STAGEDB_COMMON_ANNOTATIONS_H_
#define STAGEDB_COMMON_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define STAGEDB_HAS_THREAD_ATTR_(x) __has_attribute(x)
#else
#define STAGEDB_HAS_THREAD_ATTR_(x) 0
#endif

#if STAGEDB_HAS_THREAD_ATTR_(capability)
#define STAGEDB_THREAD_ATTR_(x) __attribute__((x))
#else
#define STAGEDB_THREAD_ATTR_(x)
#endif

/// Declares a class to be a lockable capability ("mutex", "shared mutex").
#define CAPABILITY(x) STAGEDB_THREAD_ATTR_(capability(x))

/// Declares an RAII class whose constructor acquires and destructor releases
/// a capability.
#define SCOPED_CAPABILITY STAGEDB_THREAD_ATTR_(scoped_lockable)

/// Field may only be read or written while `x` is held.
#define GUARDED_BY(x) STAGEDB_THREAD_ATTR_(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while `x` is held.
#define PT_GUARDED_BY(x) STAGEDB_THREAD_ATTR_(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and does not
/// release them).
#define REQUIRES(...) \
  STAGEDB_THREAD_ATTR_(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities held in shared mode.
#define REQUIRES_SHARED(...) \
  STAGEDB_THREAD_ATTR_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (exclusively) and holds it on return.
#define ACQUIRE(...) STAGEDB_THREAD_ATTR_(acquire_capability(__VA_ARGS__))

/// Function acquires the capability in shared mode.
#define ACQUIRE_SHARED(...) \
  STAGEDB_THREAD_ATTR_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive or shared).
#define RELEASE(...) STAGEDB_THREAD_ATTR_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  STAGEDB_THREAD_ATTR_(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  STAGEDB_THREAD_ATTR_(release_generic_capability(__VA_ARGS__))

/// Function attempts to acquire; first argument is the success return value.
#define TRY_ACQUIRE(...) \
  STAGEDB_THREAD_ATTR_(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  STAGEDB_THREAD_ATTR_(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (non-reentrancy; deadlock
/// prevention on self-locking public entry points).
#define EXCLUDES(...) STAGEDB_THREAD_ATTR_(locks_excluded(__VA_ARGS__))

/// Declares a runtime assertion that the capability is held (e.g. a helper
/// reached only from locked contexts that the analysis cannot follow).
#define ASSERT_CAPABILITY(x) STAGEDB_THREAD_ATTR_(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  STAGEDB_THREAD_ATTR_(assert_shared_capability(x))

/// Function returns a reference to the capability that guards its result.
#define RETURN_CAPABILITY(x) STAGEDB_THREAD_ATTR_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment saying why the analysis cannot model the code.
#define NO_THREAD_SAFETY_ANALYSIS \
  STAGEDB_THREAD_ATTR_(no_thread_safety_analysis)

#endif  // STAGEDB_COMMON_ANNOTATIONS_H_
