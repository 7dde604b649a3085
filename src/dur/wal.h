#ifndef FIREHOSE_DUR_WAL_H_
#define FIREHOSE_DUR_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/dur/file_ops.h"
#include "src/obs/metrics.h"

namespace firehose {
namespace dur {

/// Segmented write-ahead log. Every accepted input post is appended (and,
/// per SyncPolicy, fsynced) *before* the engine decides on it, so a crash
/// at any instruction can lose at most work the policy explicitly chose
/// not to sync — never acknowledged work.
///
/// On-disk layout: `wal-<first_seq as 16 hex digits>.log` segment files in
/// the WAL directory. Fixed-width hex means lexicographic file order ==
/// sequence order. Each segment is a series of CRC32C frames (framing.h):
/// frame 0 is the segment header (magic, state-format version, build
/// string, first_seq); every later frame is one record
/// (varint seq + payload). A new process always opens a *fresh* segment at
/// its resume seq — if a same-named segment exists it held zero
/// replayable records (the name is the first seq it would have contained),
/// so truncate-create loses nothing.

/// When to fsync the active segment. Mirrors the obs::Clock seam: the
/// policy is injected so tests can pin it and the fault harness can count
/// syncs.
class SyncPolicy {
 public:
  virtual ~SyncPolicy() = default;
  /// Called after each appended record with the number of records
  /// appended since the last sync; true means fsync now.
  virtual bool ShouldSync(uint64_t unsynced_records) = 0;
};

/// Never fsync (OS decides). Fastest; a crash loses the page cache tail.
class SyncNone final : public SyncPolicy {
 public:
  bool ShouldSync(uint64_t unsynced_records) override {
    (void)unsynced_records;
    return false;
  }
};

/// fsync after every record: zero acknowledged loss.
class SyncEveryRecord final : public SyncPolicy {
 public:
  bool ShouldSync(uint64_t unsynced_records) override {
    (void)unsynced_records;
    return true;
  }
};

/// fsync once per N records: bounded loss, amortized cost.
class SyncEveryN final : public SyncPolicy {
 public:
  explicit SyncEveryN(uint64_t n) : n_(n == 0 ? 1 : n) {}
  bool ShouldSync(uint64_t unsynced_records) override {
    return unsynced_records >= n_;
  }

 private:
  uint64_t n_;
};

/// Parses a `--wal_sync=` flag spec: "none", "always", or "every=N".
/// Returns nullptr on an unrecognized spec.
std::unique_ptr<SyncPolicy> MakeSyncPolicy(std::string_view spec);

struct WalOptions {
  std::string dir;
  FileOps* ops = nullptr;        ///< nullptr => RealFileOps()
  SyncPolicy* sync = nullptr;    ///< nullptr => never sync
  uint64_t segment_bytes = 4u << 20;  ///< rotate past this size

  /// Optional counters (see obs registry names dur.wal_bytes /
  /// dur.wal_fsyncs / dur.wal_records). Registered timing=true by the
  /// caller: WAL totals depend on where previous processes crashed, so
  /// they are excluded from deterministic snapshots.
  obs::Counter* bytes_counter = nullptr;
  obs::Counter* fsync_counter = nullptr;
  obs::Counter* record_counter = nullptr;
};

class WalWriter {
 public:
  explicit WalWriter(const WalOptions& options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates the directory if needed and opens a fresh segment whose
  /// first record will carry `next_seq`. False on I/O failure.
  [[nodiscard]] bool Open(uint64_t next_seq);

  /// Appends one record, assigning it the next sequence number (returned
  /// through `seq` when non-null). Rotates segments and, when
  /// `by_policy`, applies the sync policy; a record appended without it
  /// is durable once a later Sync (or policy sync) returns. False on I/O
  /// failure — the record may then be torn on disk; recovery will
  /// discard it.
  [[nodiscard]] bool Append(std::string_view payload, uint64_t* seq = nullptr,
                            bool by_policy = true);

  /// Forces an fsync of the active segment.
  [[nodiscard]] bool Sync();

  /// Deletes closed segments whose records all precede `seq` (i.e. the
  /// checkpoint at `seq` made them redundant). Never touches the active
  /// segment. Call after a successful checkpoint.
  void PruneSegmentsBelow(uint64_t seq);

  /// Flushes and closes the active segment. Idempotent.
  [[nodiscard]] bool Close();

  uint64_t next_seq() const { return next_seq_; }

 private:
  bool OpenSegment();

  WalOptions options_;
  std::unique_ptr<WritableFile> file_;
  uint64_t next_seq_ = 0;
  uint64_t segment_first_seq_ = 0;
  uint64_t segment_bytes_written_ = 0;
  uint64_t unsynced_records_ = 0;
  std::string frame_;  // the frame Append builds, reused across appends
};

/// One replayable WAL record.
struct WalRecord {
  uint64_t seq = 0;
  std::string payload;
};

struct WalReadResult {
  /// False only on a hard error: an intact header written by an
  /// incompatible build (see `error`). Torn or rotted bytes never make
  /// ok false — they are truncated away and reported below.
  bool ok = false;
  std::string error;

  /// Records with seq >= the requested start, in sequence order.
  std::vector<WalRecord> records;
  /// 1 + the last replayable seq (== start_seq when the log adds nothing).
  uint64_t next_seq = 0;
  /// Bytes discarded as torn or corrupt tail.
  uint64_t truncated_bytes = 0;
  /// True when a checksum mismatch (as opposed to a clean torn tail) was
  /// seen, or when segments past the tear were abandoned.
  bool corruption_detected = false;
};

/// Reads every segment in `options.dir`, replaying from `start_seq`
/// (records below it are skipped — the checkpoint already covers them).
/// Stops at the first torn or corrupt frame; everything after it in the
/// chain is dead tail. When `truncate_tail` is set, the segment holding
/// the tear is physically truncated to its valid prefix.
[[nodiscard]] WalReadResult ReadWal(const WalOptions& options,
                                    uint64_t start_seq, bool truncate_tail);

/// Segment file name for a first sequence number ("wal-%016x.log").
std::string WalSegmentName(uint64_t first_seq);

}  // namespace dur
}  // namespace firehose

#endif  // FIREHOSE_DUR_WAL_H_
