#ifndef FIREHOSE_OBS_CLOCK_H_
#define FIREHOSE_OBS_CLOCK_H_

#include <cstdint>

namespace firehose {
namespace obs {

/// The injectable time seam of the observability layer. Every timestamp
/// the runtime records — decision latencies, trace span boundaries, wall
/// clocks of pipeline runs — flows through a Clock so tests substitute a
/// ManualClock and metric snapshots stay byte-deterministic. This header
/// (with clock.cc) is the only place in src/obs allowed to touch
/// std::chrono; firehose_analyze's obs-seam check enforces that.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds on a monotonic, process-local timeline. Only differences
  /// are meaningful; the epoch is unspecified.
  virtual uint64_t NowNanos() const = 0;

  /// Blocks the calling thread for `nanos` (the watchdog poller's pace).
  /// The default really sleeps; ManualClock instead advances its manual
  /// time, so pollers driven by a test clock spin deterministically
  /// instead of stalling the test.
  virtual void SleepNanos(uint64_t nanos) const;
};

/// Real monotonic clock (std::chrono::steady_clock). Stateless and
/// thread-safe.
class MonotonicClock final : public Clock {
 public:
  uint64_t NowNanos() const override;
};

/// Process-wide MonotonicClock instance — the default when no clock is
/// injected.
const Clock* RealClock();

/// Deterministic test clock. NowNanos() returns the current manual time
/// and then advances it by `auto_advance_nanos` (0 = frozen), so a run
/// against a ManualClock produces identical timestamps every time.
///
/// Not thread-safe: inject it only into single-threaded runs, paced
/// pipeline runs included. Pace one with a nonzero `auto_advance_nanos`:
/// a paced wait sleeps only until its release is 100 us away, and spins
/// on the clock for the rest, which a frozen clock never ends.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(uint64_t start_nanos = 0,
                       uint64_t auto_advance_nanos = 0)
      : now_nanos_(start_nanos), auto_advance_nanos_(auto_advance_nanos) {}

  uint64_t NowNanos() const override {
    const uint64_t now = now_nanos_;
    now_nanos_ += auto_advance_nanos_;
    return now;
  }

  /// Advances manual time instead of blocking, keeping watchdog/poller
  /// loops deterministic under test.
  void SleepNanos(uint64_t nanos) const override { now_nanos_ += nanos; }

  void AdvanceNanos(uint64_t nanos) { now_nanos_ += nanos; }
  void SetNanos(uint64_t nanos) { now_nanos_ = nanos; }

 private:
  mutable uint64_t now_nanos_;
  uint64_t auto_advance_nanos_;
};

}  // namespace obs
}  // namespace firehose

#endif  // FIREHOSE_OBS_CLOCK_H_
