#ifndef FIREHOSE_OBS_WATCHDOG_H_
#define FIREHOSE_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "src/obs/clock.h"

namespace firehose {
namespace obs {

/// Per-shard stall detector for the streaming runtimes.
///
/// Each consumer-side task (the pipeline, each serve shard worker)
/// registers a slot and then reports two things from its hot loop, both
/// single relaxed atomic stores: a monotone progress counter (posts
/// decided) and the current queue depth. The producer side may also
/// publish depth into the same slot — that is what lets a fully wedged
/// consumer trip the alarm even though it stopped reporting.
///
/// Trip rule, evaluated by Poll(): a task whose queue depth is > 0 and
/// whose progress counter has not moved for `stall_nanos` is stalled.
/// An idle task (depth 0) never trips, no matter how long it sits. A
/// slow-but-moving task never trips: any progress change re-arms the
/// stall clock. Each stall fires the callback once; the slot re-arms
/// when progress resumes.
///
/// Poll() can be driven two ways: explicitly from tests (with a
/// ManualClock), or by StartPolling(), which runs Poll() on a background
/// thread every `poll_interval_nanos` using Clock::SleepNanos — so a
/// ManualClock makes even the background poller deterministic.
class Watchdog {
 public:
  static constexpr int kMaxTasks = 64;

  /// `clock` may be null for the real monotonic clock. `stall_nanos` is
  /// how long progress may sit still (with work queued) before a trip.
  explicit Watchdog(uint64_t stall_nanos, const Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : RealClock()),
        stall_nanos_(stall_nanos) {}

  ~Watchdog() { StopPolling(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Claims a slot for `name` (static-storage string, e.g. "consumer" or
  /// "shard"). Returns the task id to report against, or -1 when all
  /// kMaxTasks slots are taken.
  int RegisterTask(const char* name);

  /// Hot-loop side: one relaxed store each.
  void ReportProgress(int task, uint64_t progress);
  void SetQueueDepth(int task, int64_t depth);

  /// Evaluates every registered slot against the trip rule; invokes
  /// `on_trip` (set via SetTripCallback) once per distinct stall. Returns
  /// the number of slots currently considered stalled.
  int Poll();

  /// `fn(task_id, name, progress, depth)` runs inside Poll() on whichever
  /// thread called it — keep it cheap and self-contained (dump a flight
  /// trace, bump a counter, log).
  void SetTripCallback(
      std::function<void(int, const char*, uint64_t, int64_t)> fn) {
    on_trip_ = std::move(fn);
  }

  /// Cumulative trips across all tasks.
  uint64_t trip_count() const {
    return trip_count_.load(std::memory_order_relaxed);
  }

  /// Point-in-time view of one slot, readable from any thread (the debug
  /// server renders these into /statusz while workers keep reporting).
  struct TaskInfo {
    const char* name = nullptr;
    uint64_t progress = 0;
    int64_t depth = 0;
    bool tripped = false;
  };

  /// Fills `out` with up to `max_tasks` registered slots; returns how
  /// many were written.
  int SnapshotTasks(TaskInfo* out, int max_tasks) const;

  /// Spawns a thread that calls Poll() every `poll_interval_nanos` until
  /// StopPolling(). Uses Clock::SleepNanos, so a ManualClock turns the
  /// poller into a deterministic spin.
  void StartPolling(uint64_t poll_interval_nanos);
  void StopPolling();

 private:
  struct TaskSlot {
    std::atomic<const char*> name{nullptr};  // null = unclaimed
    std::atomic<uint64_t> progress{0};
    std::atomic<int64_t> depth{0};
    // last_progress/last_change_nanos are Poll()-only state (single
    // poller at a time by contract); tripped is atomic so status
    // snapshots can report it from other threads.
    uint64_t last_progress = 0;
    uint64_t last_change_nanos = 0;
    std::atomic<bool> tripped{false};
  };

  const Clock* clock_;
  const uint64_t stall_nanos_;
  std::atomic<int> task_count_{0};
  TaskSlot tasks_[kMaxTasks];
  std::function<void(int, const char*, uint64_t, int64_t)> on_trip_;
  std::atomic<uint64_t> trip_count_{0};

  std::thread poller_;
  std::atomic<bool> stop_polling_{false};
};

}  // namespace obs
}  // namespace firehose

#endif  // FIREHOSE_OBS_WATCHDOG_H_
