#include "src/dur/durable.h"

#include <utility>

#include "src/obs/clock.h"
#include "src/obs/log.h"
#include "src/util/binary.h"

namespace firehose {
namespace dur {

namespace {

/// Checkpoints retained on disk: the newest plus one to fall back on when
/// the newest fails its checksum (the WAL is pruned below the oldest).
constexpr size_t kKeepCheckpoints = 2;

}  // namespace

std::string EncodePostRecord(const Post& post) {
  BinaryWriter writer;
  writer.PutVarint(post.id);
  writer.PutVarint(post.author);
  writer.PutSignedVarint(post.time_ms);
  writer.PutFixed64(post.simhash);
  writer.PutString(post.text);
  return writer.Release();
}

bool DecodePostRecord(std::string_view payload, Post* post) {
  BinaryReader reader(payload);
  uint64_t id = 0;
  uint64_t author = 0;
  const bool ok = reader.GetVarint(&id) && reader.GetVarint(&author) &&
                  reader.GetSignedVarint(&post->time_ms) &&
                  reader.GetFixed64(&post->simhash) &&
                  reader.GetString(&post->text) && reader.AtEnd() &&
                  id <= 0xFFFFFFFFull && author <= 0xFFFFFFFFull;
  if (!ok) return false;
  post->id = static_cast<PostId>(id);
  post->author = static_cast<AuthorId>(author);
  return true;
}

DurableSession::DurableSession(const DurableOptions& options,
                               Diversifier* engine)
    : options_(options), engine_(engine) {
  if (options_.ops == nullptr) options_.ops = RealFileOps();
  sync_policy_ = MakeSyncPolicy(options_.sync_spec);  // null: Recover fails
  if (options_.metrics != nullptr) {
    // All dur.* metrics are timing=true: WAL/checkpoint/recovery totals
    // depend on where previous incarnations of the process crashed, so
    // they must stay out of byte-deterministic snapshots.
    checkpoints_counter_ =
        options_.metrics->GetCounter("dur.checkpoints", /*timing=*/true);
    checkpoint_ms_ =
        options_.metrics->GetHistogram("dur.checkpoint_ms", /*timing=*/true);
  }
}

DurableSession::~DurableSession() {
  // A destructor cannot surface the failure; callers that need the final
  // flush acknowledged must Close(output_bytes) explicitly first.
  if (wal_ != nullptr) (void)wal_->Close();
}

bool DurableSession::Recover(
    RecoveryReport* report,
    const std::function<void(const Post&)>& on_replayed_accept,
    std::string* error) {
  *report = RecoveryReport{};
  if (sync_policy_ == nullptr) {
    *error = "unrecognized --wal_sync spec: " + options_.sync_spec;
    return false;
  }
  if (!options_.ops->CreateDir(options_.dir)) {
    *error = "cannot create durability directory " + options_.dir;
    return false;
  }

  CheckpointOptions ckpt_options;
  ckpt_options.dir = options_.dir;
  ckpt_options.ops = options_.ops;
  ckpt_options.keep = kKeepCheckpoints;
  CheckpointLoadResult checkpoint =
      LoadNewestCheckpoint(ckpt_options, engine_->name());
  if (!checkpoint.ok) {
    *error = checkpoint.error;
    return false;
  }
  report->corruption_detected |= checkpoint.corruption_detected;

  uint64_t start_seq = 0;
  if (checkpoint.found) {
    BinaryReader state(checkpoint.data.engine_state);
    if (!engine_->LoadState(state)) {
      *error = "checkpoint state for " + std::string(engine_->name()) +
               " failed to load (corrupt or incompatible snapshot)";
      return false;
    }
    report->found_checkpoint = true;
    start_seq = checkpoint.data.next_seq;
    report->output_bytes = checkpoint.data.output_bytes;
  }

  WalOptions wal_options;
  wal_options.dir = options_.dir;
  wal_options.ops = options_.ops;
  wal_options.segment_bytes = options_.segment_bytes;
  WalReadResult wal = ReadWal(wal_options, start_seq, /*truncate_tail=*/true);
  if (!wal.ok) {
    *error = wal.error;
    return false;
  }
  report->corruption_detected |= wal.corruption_detected;
  report->truncated_bytes = wal.truncated_bytes;

  for (const WalRecord& record : wal.records) {
    Post post;
    if (!DecodePostRecord(record.payload, &post)) {
      // The frame checksum passed but the payload is not a post record —
      // treat everything from here on as dead tail.
      report->corruption_detected = true;
      break;
    }
    const bool accepted = engine_->Offer(post);
    ++report->replayed_posts;
    if (accepted && on_replayed_accept) on_replayed_accept(post);
  }
  report->next_seq = start_seq + report->replayed_posts;

  // Open the writer at the resume point: always a fresh segment, so a
  // repeatedly-crashing process grows a chain of segments rather than
  // appending to files whose tails it no longer trusts.
  wal_options.sync = sync_policy_.get();
  if (options_.metrics != nullptr) {
    wal_options.bytes_counter =
        options_.metrics->GetCounter("dur.wal_bytes", /*timing=*/true);
    wal_options.fsync_counter =
        options_.metrics->GetCounter("dur.wal_fsyncs", /*timing=*/true);
    wal_options.record_counter =
        options_.metrics->GetCounter("dur.wal_records", /*timing=*/true);
    options_.metrics
        ->GetCounter("dur.recovery_replayed_posts", /*timing=*/true)
        ->Add(report->replayed_posts);
    options_.metrics
        ->GetCounter("dur.recovery_truncated_bytes", /*timing=*/true)
        ->Add(report->truncated_bytes);
  }
  wal_ = std::make_unique<WalWriter>(wal_options);
  if (!wal_->Open(report->next_seq)) {
    *error = "cannot open WAL segment in " + options_.dir;
    return false;
  }

  posts_since_checkpoint_ = 0;
  recovered_ = true;
  FIREHOSE_LOG(kInfo, "durable recovery complete")
      .Kv("dir", options_.dir)
      .Kv("found_checkpoint", report->found_checkpoint)
      .Kv("replayed_posts", report->replayed_posts)
      .Kv("truncated_bytes", report->truncated_bytes)
      .Kv("corruption", report->corruption_detected)
      .Kv("next_seq", report->next_seq);
  return true;
}

bool DurableSession::Process(const Post& post, bool* accepted) {
  if (!recovered_ || wal_ == nullptr) return false;
  // Log-before-decide: once Offer runs, the engine state has advanced, so
  // the post must already be durable (to the chosen sync level) or replay
  // could not reconstruct the decision.
  if (!wal_->Append(EncodePostRecord(post))) return false;
  *accepted = engine_->Offer(post);
  ++posts_since_checkpoint_;
  return true;
}

bool DurableSession::ShouldCheckpoint() const {
  return options_.checkpoint_every > 0 &&
         posts_since_checkpoint_ >= options_.checkpoint_every;
}

bool DurableSession::Checkpoint(uint64_t output_bytes) {
  if (!recovered_ || wal_ == nullptr) return false;
  const obs::Clock& clock = *obs::RealClock();
  const uint64_t start_nanos = clock.NowNanos();

  // The WAL prefix folded into the checkpoint must be durable before the
  // checkpoint can claim it, or a crash could leave a checkpoint ahead of
  // its own log.
  if (!wal_->Sync()) return false;

  BinaryWriter state;
  engine_->SaveState(&state);
  if (state.size() == 0) return false;  // engine without snapshot support

  CheckpointData data;
  data.algorithm = std::string(engine_->name());
  data.next_seq = wal_->next_seq();
  data.output_bytes = output_bytes;
  data.engine_state = state.Release();

  CheckpointOptions ckpt_options;
  ckpt_options.dir = options_.dir;
  ckpt_options.ops = options_.ops;
  ckpt_options.keep = kKeepCheckpoints;
  if (!WriteCheckpoint(ckpt_options, data)) return false;

  // Prune only below the OLDEST retained checkpoint: if the newest file
  // later rots, recovery falls back to an older one and must still find
  // the WAL records between the two.
  wal_->PruneSegmentsBelow(OldestCheckpointSeq(ckpt_options, data.next_seq));
  posts_since_checkpoint_ = 0;
  const uint64_t elapsed_ms = (clock.NowNanos() - start_nanos) / 1000000ull;
  if (checkpoints_counter_ != nullptr) checkpoints_counter_->Increment();
  if (checkpoint_ms_ != nullptr) checkpoint_ms_->Record(elapsed_ms);
  FIREHOSE_LOG(kDebug, "checkpoint written")
      .Kv("next_seq", data.next_seq)
      .Kv("state_bytes", static_cast<uint64_t>(data.engine_state.size()))
      .Kv("elapsed_ms", elapsed_ms);
  return true;
}

bool DurableSession::Close(uint64_t output_bytes) {
  if (closed_) return true;
  if (!recovered_ || wal_ == nullptr) return false;
  const bool checkpointed = Checkpoint(output_bytes);
  const bool wal_closed = wal_->Close();
  closed_ = true;
  return checkpointed && wal_closed;
}

}  // namespace dur
}  // namespace firehose
