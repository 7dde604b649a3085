#ifndef FIREHOSE_DUR_DURABLE_H_
#define FIREHOSE_DUR_DURABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/core/diversifier.h"
#include "src/dur/checkpoint.h"
#include "src/dur/file_ops.h"
#include "src/dur/wal.h"
#include "src/obs/metrics.h"
#include "src/stream/post.h"

namespace firehose {
namespace dur {

/// Everything the durability layer needs to wrap one diversifier run.
struct DurableOptions {
  /// Directory holding WAL segments and checkpoints.
  std::string dir;

  /// Checkpoint after this many processed posts (0 = only on Close).
  uint64_t checkpoint_every = 0;

  /// WAL fsync cadence: "none", "always", "every=N". Anything else makes
  /// Recover fail.
  std::string sync_spec = "none";

  uint64_t segment_bytes = 4u << 20;

  FileOps* ops = nullptr;           ///< nullptr => RealFileOps()
  obs::MetricsRegistry* metrics = nullptr;  ///< optional dur.* metrics
};

/// What recovery found and did. All of it also lands in dur.* metrics
/// (registered timing=true: recovery work depends on where the previous
/// process died, so it must not leak into deterministic snapshots).
struct RecoveryReport {
  bool found_checkpoint = false;
  /// WAL records re-offered to the engine.
  uint64_t replayed_posts = 0;
  /// Resume point: the feed must continue with the post whose id == this.
  uint64_t next_seq = 0;
  /// The durable output stream must be truncated to this many bytes
  /// before appending (replay re-emits everything beyond it).
  uint64_t output_bytes = 0;
  /// Torn/corrupt WAL bytes discarded.
  uint64_t truncated_bytes = 0;
  bool corruption_detected = false;
};

/// Serialization of one post into a WAL record payload (exposed for
/// tests and the fault harness).
std::string EncodePostRecord(const Post& post);
[[nodiscard]] bool DecodePostRecord(std::string_view payload, Post* post);

/// Ties WAL + checkpointer + recovery around a Diversifier. Lifecycle:
///
///   DurableSession session(options, &engine);
///   session.Recover(&report, on_replayed_accept, &error);  // once
///   ... truncate output to report.output_bytes ...
///   for each post with id >= report.next_seq:
///     session.Process(post, &accepted);   // WAL append BEFORE Offer
///     if (accepted) emit output line;
///     if (session.ShouldCheckpoint()) session.Checkpoint(output_bytes);
///   session.Close(final_output_bytes);
///
/// Determinism contract: a run that crashes anywhere and is resumed this
/// way produces the byte-identical output stream and engine metrics of an
/// uninterrupted run, because (a) the checkpoint restores engine state
/// exactly, (b) WAL replay re-offers the exact posts in order, and (c)
/// the output is truncated to the checkpoint's synced offset before the
/// replayed tail is re-emitted.
class DurableSession {
 public:
  DurableSession(const DurableOptions& options, Diversifier* engine);
  ~DurableSession();

  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;

  /// Loads the newest valid checkpoint, replays the WAL tail through the
  /// engine (invoking `on_replayed_accept` for each replayed post the
  /// engine accepts, in order), truncates torn tails, and opens a fresh
  /// WAL segment at the resume point. False on hard errors (unrecognized
  /// sync spec, incompatible build/algorithm state, unwritable directory)
  /// with `*error` set.
  [[nodiscard]] bool Recover(
      RecoveryReport* report,
      const std::function<void(const Post&)>& on_replayed_accept,
      std::string* error);

  /// WAL-appends the post, then offers it to the engine. `*accepted` is
  /// the engine's decision. False on an I/O failure (the decision is then
  /// not made — the caller must stop, because an unlogged decision could
  /// not be replayed).
  [[nodiscard]] bool Process(const Post& post, bool* accepted);

  /// True when `checkpoint_every` posts were processed since the last
  /// checkpoint.
  bool ShouldCheckpoint() const;

  /// Serializes engine state and writes a checkpoint claiming the output
  /// stream is durable up to `output_bytes`. The caller MUST have flushed
  /// and fsynced the output to that size first. Prunes WAL segments the
  /// checkpoint made redundant.
  [[nodiscard]] bool Checkpoint(uint64_t output_bytes);

  /// Final checkpoint + WAL close.
  [[nodiscard]] bool Close(uint64_t output_bytes);

  /// Next WAL sequence number == id of the next post to feed.
  uint64_t next_seq() const { return wal_ != nullptr ? wal_->next_seq() : 0; }

 private:
  DurableOptions options_;
  Diversifier* engine_;
  std::unique_ptr<SyncPolicy> sync_policy_;
  std::unique_ptr<WalWriter> wal_;
  bool recovered_ = false;
  bool closed_ = false;

  uint64_t posts_since_checkpoint_ = 0;

  obs::Counter* checkpoints_counter_ = nullptr;
  obs::LogHistogram* checkpoint_ms_ = nullptr;
};

}  // namespace dur
}  // namespace firehose

#endif  // FIREHOSE_DUR_DURABLE_H_
