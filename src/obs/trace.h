#ifndef FIREHOSE_OBS_TRACE_H_
#define FIREHOSE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/clock.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace obs {

/// One Chrome trace_event record. `ph` is the event phase: 'X' for
/// complete spans (with duration), 'i' for instants.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  uint64_t ts_nanos = 0;
  uint64_t dur_nanos = 0;
  uint32_t tid = 0;
  std::string args_json;  ///< raw JSON object body ("{...}"), may be empty
};

/// Collects spans and instants for export in the Chrome trace_event JSON
/// format (loadable in chrome://tracing and Perfetto). Appends are
/// mutex-serialized so the sharded scan threads can share one recorder;
/// span granularity is coarse (stages, maintenance batches, rebuilds),
/// never per-post, so the lock is cold.
///
/// Thread ids are caller-assigned small integers (0 = pipeline/main,
/// shard index for shard scans) rather than OS thread ids, so traces are
/// stable and readable.
class TraceRecorder {
 public:
  /// `clock` may be null for the real monotonic clock; inject a
  /// ManualClock to make trace timestamps deterministic in tests.
  explicit TraceRecorder(const Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : RealClock()) {}

  uint64_t NowNanos() const { return clock_->NowNanos(); }

  /// Complete span [start_nanos, end_nanos) on caller thread `tid`.
  void AddComplete(std::string_view name, std::string_view cat,
                   uint64_t start_nanos, uint64_t end_nanos, uint32_t tid = 0,
                   std::string_view args_json = {});

  /// Zero-duration instant event stamped now.
  void AddInstant(std::string_view name, std::string_view cat,
                  uint32_t tid = 0, std::string_view args_json = {});

  /// Serializes to `{"traceEvents":[...]}`. Timestamps are rebased to the
  /// earliest event and written in microseconds (the format's unit).
  std::string ToJson() const;

  size_t size() const;

 private:
  /// Appends one finished event; callers hold mu_ (enforced by the
  /// lock-discipline pass via the annotation).
  void AppendLocked(TraceEvent event) FIREHOSE_REQUIRES(mu_);

  const Clock* clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_ FIREHOSE_GUARDED_BY(mu_);
};

/// RAII complete-span guard. With a null recorder every member is a no-op
/// and no clock is read — the disabled cost is one pointer test per scope,
/// which is why tracing can stay compiled into the hot paths.
class TraceScope {
 public:
  TraceScope(TraceRecorder* recorder, const char* name, const char* cat,
             uint32_t tid = 0)
      : recorder_(recorder),
        name_(name),
        cat_(cat),
        tid_(tid),
        start_nanos_(recorder != nullptr ? recorder->NowNanos() : 0) {}

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (recorder_ != nullptr) {
      recorder_->AddComplete(name_, cat_, start_nanos_,
                             recorder_->NowNanos(), tid_);
    }
  }

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* cat_;
  uint32_t tid_;
  uint64_t start_nanos_;
};

/// Process-global trace hook for call sites deep inside the engine (bin
/// maintenance, clique-cover rebuilds) that have no run context to thread
/// a recorder through. Null (disabled) by default; the CLIs set it for
/// the duration of a traced run. The pointer is atomic so worker threads
/// may read it while it stays set; install/clear it only around runs, not
/// during them.
TraceRecorder* GlobalTrace();
void SetGlobalTrace(TraceRecorder* recorder);

/// Emits an instant event on the global trace; no-op (one relaxed atomic
/// load) when tracing is disabled.
void GlobalTraceInstant(const char* name, const char* cat,
                        std::string_view args_json = {});

}  // namespace obs
}  // namespace firehose

#endif  // FIREHOSE_OBS_TRACE_H_
