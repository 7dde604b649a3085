#include "src/dur/wal.h"

#include <cinttypes>
#include <cstdio>

#include "src/dur/framing.h"
#include "src/obs/log.h"
#include "src/util/binary.h"
#include "src/util/build_info.h"

namespace firehose {
namespace dur {

namespace {

constexpr std::string_view kSegmentMagic = "FHWAL";

std::string SegmentHeaderPayload(uint64_t first_seq) {
  BinaryWriter writer;
  writer.PutString(kSegmentMagic);
  writer.PutVarint(kStateFormatVersion);
  writer.PutString(kBuildVersion);
  writer.PutVarint(first_seq);
  return writer.Release();
}

struct SegmentHeader {
  uint64_t format_version = 0;
  std::string build;
  uint64_t first_seq = 0;
};

bool ParseSegmentHeader(std::string_view payload, SegmentHeader* header) {
  BinaryReader reader(payload);
  std::string magic;
  return reader.GetString(&magic) && magic == kSegmentMagic &&
         reader.GetVarint(&header->format_version) &&
         reader.GetString(&header->build) &&
         reader.GetVarint(&header->first_seq) && reader.AtEnd();
}

/// "wal-%016x.log" -> first_seq; false for other files in the directory
/// (checkpoints live alongside segments).
bool ParseSegmentFileName(const std::string& name, uint64_t* first_seq) {
  if (name.size() != 4 + 16 + 4 || name.rfind("wal-", 0) != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 4; i < 4 + 16; ++i) {
    const char c = name[i];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *first_seq = value;
  return true;
}

}  // namespace

std::string WalSegmentName(uint64_t first_seq) {
  char buffer[4 + 16 + 4 + 1];
  std::snprintf(buffer, sizeof(buffer), "wal-%016" PRIx64 ".log", first_seq);
  return buffer;
}

std::unique_ptr<SyncPolicy> MakeSyncPolicy(std::string_view spec) {
  if (spec == "none") return std::make_unique<SyncNone>();
  if (spec == "always") return std::make_unique<SyncEveryRecord>();
  constexpr std::string_view kEvery = "every=";
  if (spec.size() > kEvery.size() && spec.substr(0, kEvery.size()) == kEvery) {
    uint64_t n = 0;
    for (const char c : spec.substr(kEvery.size())) {
      if (c < '0' || c > '9') return nullptr;
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
    if (n == 0) return nullptr;
    return std::make_unique<SyncEveryN>(n);
  }
  return nullptr;
}

WalWriter::WalWriter(const WalOptions& options) : options_(options) {
  if (options_.ops == nullptr) options_.ops = RealFileOps();
}

// A destructor cannot surface the failure; recovery treats whatever made
// it to disk as the truth regardless.
WalWriter::~WalWriter() { (void)Close(); }

bool WalWriter::Open(uint64_t next_seq) {
  if (!options_.ops->CreateDir(options_.dir)) return false;
  next_seq_ = next_seq;
  return OpenSegment();
}

bool WalWriter::OpenSegment() {
  segment_first_seq_ = next_seq_;
  segment_bytes_written_ = 0;
  unsynced_records_ = 0;
  const std::string path =
      options_.dir + "/" + WalSegmentName(segment_first_seq_);
  file_ = options_.ops->Create(path);
  if (file_ == nullptr) return false;
  std::string frame;
  AppendFrame(&frame, SegmentHeaderPayload(segment_first_seq_));
  if (!file_->Append(frame)) return false;
  segment_bytes_written_ += frame.size();
  if (options_.bytes_counter != nullptr) {
    options_.bytes_counter->Add(frame.size());
  }
  // The directory entry must survive a crash or the whole segment is
  // invisible to recovery.
  return options_.ops->SyncDir(options_.dir);
}

bool WalWriter::Append(std::string_view payload, uint64_t* seq,
                       bool by_policy) {
  if (file_ == nullptr) return false;
  if (segment_bytes_written_ >= options_.segment_bytes) {
    // Rotate: make the outgoing segment durable so the chain has no holes
    // behind a segment boundary, then start the next one.
    if (!file_->Sync() || !file_->Close()) return false;
    if (options_.fsync_counter != nullptr) options_.fsync_counter->Increment();
    if (!OpenSegment()) return false;
  }
  // The record, as BinaryWriter::PutVarint(seq) then PutString(payload)
  // would write it, framed in place in the reused buffer.
  frame_.assign(kFrameHeaderBytes, '\0');
  AppendVarint(&frame_, next_seq_);
  AppendVarint(&frame_, payload.size());
  frame_.append(payload);
  FillFrameHeader(&frame_);
  if (!file_->Append(frame_)) return false;
  segment_bytes_written_ += frame_.size();
  if (seq != nullptr) *seq = next_seq_;
  ++next_seq_;
  ++unsynced_records_;
  if (options_.bytes_counter != nullptr) {
    options_.bytes_counter->Add(frame_.size());
  }
  if (options_.record_counter != nullptr) {
    options_.record_counter->Increment();
  }
  if (by_policy && options_.sync != nullptr &&
      options_.sync->ShouldSync(unsynced_records_)) {
    return Sync();
  }
  return true;
}

bool WalWriter::Sync() {
  if (file_ == nullptr) return false;
  if (!file_->Sync()) return false;
  unsynced_records_ = 0;
  if (options_.fsync_counter != nullptr) options_.fsync_counter->Increment();
  return true;
}

void WalWriter::PruneSegmentsBelow(uint64_t seq) {
  const std::string active = WalSegmentName(segment_first_seq_);
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : options_.ops->List(options_.dir)) {
    uint64_t first_seq = 0;
    if (ParseSegmentFileName(name, &first_seq)) {
      segments.emplace_back(first_seq, name);
    }
  }
  // List() is sorted and the fixed-width hex names sort numerically, so
  // segments[i + 1].first is the first seq *not* in segments[i].
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= seq && segments[i].second != active) {
      // Pruning is advisory: a leftover segment only costs disk, and its
      // records are below every retained checkpoint so replay skips them.
      (void)options_.ops->Remove(options_.dir + "/" + segments[i].second);
    }
  }
}

bool WalWriter::Close() {
  if (file_ == nullptr) return true;
  const bool ok = file_->Close();
  file_ = nullptr;
  return ok;
}

WalReadResult ReadWal(const WalOptions& options, uint64_t start_seq,
                      bool truncate_tail) {
  WalOptions opts = options;
  if (opts.ops == nullptr) opts.ops = RealFileOps();

  WalReadResult result;
  result.next_seq = start_seq;

  std::vector<std::string> segments;
  for (const std::string& name : opts.ops->List(opts.dir)) {
    uint64_t first_seq = 0;
    if (ParseSegmentFileName(name, &first_seq)) segments.push_back(name);
  }

  uint64_t expected = start_seq;
  // First index whose segment was abandoned wholesale (orphans past a tear).
  size_t orphans_from = segments.size();

  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string path = opts.dir + "/" + segments[i];
    std::string data;
    if (!opts.ops->Read(path, &data)) {
      result.corruption_detected = true;
      orphans_from = i;
      break;
    }

    std::string_view payload;
    size_t next_offset = 0;
    FrameStatus status = ParseFrame(data, 0, &payload, &next_offset);
    SegmentHeader header;
    const bool header_ok =
        status == FrameStatus::kOk && ParseSegmentHeader(payload, &header);
    if (!header_ok) {
      // A torn header can only be the most recently created segment (a
      // crash mid-creation); anything else is rot. Either way the chain
      // ends here.
      result.truncated_bytes += data.size();
      if (status != FrameStatus::kTruncated) result.corruption_detected = true;
      FIREHOSE_LOG(kWarn, "wal segment header unreadable, chain ends here")
          .Kv("segment", segments[i])
          .Kv("bytes", static_cast<uint64_t>(data.size()))
          .Kv("torn", status == FrameStatus::kTruncated);
      // Tail cleanup is best-effort: a segment that survives removal is
      // re-truncated (and re-reported) by the next recovery.
      if (truncate_tail) (void)opts.ops->Remove(path);
      orphans_from = i + 1;
      break;
    }
    if (header.format_version != kStateFormatVersion) {
      result.ok = false;
      result.error = "WAL segment " + segments[i] +
                     " was written by an incompatible build: " + header.build +
                     " (state format " +
                     std::to_string(header.format_version) +
                     "); this binary is " + BuildInfoString();
      return result;
    }
    if (header.first_seq > expected) {
      // Sequence gap: an earlier, never-synced tail vanished. Records here
      // have no valid predecessors, so they are unusable.
      result.corruption_detected = true;
      result.truncated_bytes += data.size();
      if (truncate_tail) (void)opts.ops->Remove(path);  // best-effort
      orphans_from = i + 1;
      break;
    }

    size_t offset = next_offset;
    bool stop = false;
    while (offset < data.size()) {
      status = ParseFrame(data, offset, &payload, &next_offset);
      bool record_ok = status == FrameStatus::kOk;
      uint64_t seq = 0;
      std::string body;
      if (record_ok) {
        BinaryReader record(payload);
        record_ok =
            record.GetVarint(&seq) && record.GetString(&body) && record.AtEnd();
        if (record_ok && seq > expected) record_ok = false;  // sequence hole
      }
      if (!record_ok) {
        result.truncated_bytes += data.size() - offset;
        if (status != FrameStatus::kTruncated) result.corruption_detected = true;
        FIREHOSE_LOG(kWarn, "wal torn tail truncated")
            .Kv("segment", segments[i])
            .Kv("offset", static_cast<uint64_t>(offset))
            .Kv("bytes", static_cast<uint64_t>(data.size() - offset))
            .Kv("torn", status == FrameStatus::kTruncated);
        if (truncate_tail) (void)opts.ops->Truncate(path, offset);  // best-effort
        stop = true;
        break;
      }
      if (seq == expected) {
        result.records.push_back(WalRecord{seq, std::move(body)});
        expected = seq + 1;
      }
      // seq < expected: already covered by the checkpoint; skip.
      offset = next_offset;
    }
    if (stop) {
      orphans_from = i + 1;  // this segment keeps its valid prefix
      break;
    }
  }

  // Segments past the tear are orphans: their records cannot follow the
  // truncated chain, and leaving them on disk could alias future sequence
  // numbers written by the resumed process. Drop them.
  for (size_t i = orphans_from; i < segments.size(); ++i) {
    const std::string path = opts.dir + "/" + segments[i];
    std::string data;
    if (opts.ops->Read(path, &data)) result.truncated_bytes += data.size();
    FIREHOSE_LOG(kWarn, "wal orphan segment past tear dropped")
        .Kv("segment", segments[i])
        .Kv("bytes", static_cast<uint64_t>(data.size()));
    if (truncate_tail) (void)opts.ops->Remove(path);  // best-effort
    result.corruption_detected = true;
  }

  result.next_seq = expected;
  result.ok = true;
  return result;
}

}  // namespace dur
}  // namespace firehose
