#ifndef FIREHOSE_TESTS_TSAN_ANNOTATIONS_H_
#define FIREHOSE_TESTS_TSAN_ANNOTATIONS_H_

// Sanitizer detection and iteration scaling for the concurrency tests
// (race_stress_test.cc). Build any of the `asan`/`ubsan`/`tsan` CMake
// presets to run the suite instrumented; the tests scale their iteration
// counts down under instrumentation so the sanitized ctest wall time
// stays reasonable.

// FIREHOSE_TSAN / FIREHOSE_ASAN: 1 when the matching sanitizer is active.
#if defined(__SANITIZE_THREAD__)
#define FIREHOSE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FIREHOSE_TSAN 1
#endif
#endif
#ifndef FIREHOSE_TSAN
#define FIREHOSE_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define FIREHOSE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FIREHOSE_ASAN 1
#endif
#endif
#ifndef FIREHOSE_ASAN
#define FIREHOSE_ASAN 0
#endif

namespace firehose {
namespace testing_util {

/// Instrumented builds run each memory access through the sanitizer
/// runtime (5-20x slower); shrink iteration counts so the stress suite
/// still explores many interleavings without blowing the ctest budget.
constexpr int kStressScale = (FIREHOSE_TSAN || FIREHOSE_ASAN) ? 6 : 1;

constexpr int ScaledIterations(int base) {
  return base / kStressScale > 0 ? base / kStressScale : 1;
}

}  // namespace testing_util
}  // namespace firehose

#endif  // FIREHOSE_TESTS_TSAN_ANNOTATIONS_H_
