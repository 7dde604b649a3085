#include "src/stream/post_bin.h"

#include <algorithm>

namespace firehose {

// Each lane starts where the previous one ends, so every lane's offset is
// a multiple of its alignment as long as alignments never increase along
// the block (the block itself is aligned for int64_t).
static_assert(alignof(int64_t) >= alignof(uint64_t) &&
              alignof(uint64_t) >= alignof(AuthorId) &&
              alignof(AuthorId) >= alignof(PostId));

namespace {

// Begins the lifetime of a zeroed T[count] lane at `at`, inside storage
// someone else owns, and returns the address just past it.
template <typename T>
std::byte* StartLane(std::byte* at, size_t count) {
  // firehose-lint: allow(raw-new-delete) -- placement new; no ownership
  ::new (static_cast<void*>(at)) T[count]();
  return at + count * sizeof(T);
}

}  // namespace

void PostBin::Allocate(size_t capacity) {
  block_ = std::make_unique_for_overwrite<std::byte[]>(capacity *
                                                       kBinEntryLaneBytes);
  std::byte* at = StartLane<int64_t>(block_.get(), capacity);
  at = StartLane<uint64_t>(at, capacity);
  at = StartLane<AuthorId>(at, capacity);
  StartLane<PostId>(at, capacity);
  capacity_ = capacity;
  head_ = 0;
  size_ = 0;
}

void PostBin::Grow(size_t min_capacity) {
  size_t new_capacity = capacity_ == 0 ? 2 : capacity_ * 2;
  while (new_capacity < min_capacity) new_capacity *= 2;
  PostBin next;
  next.Allocate(new_capacity);
  if (size_ > 0) {
    // Copy the ring's (at most two) segments to the front of each lane.
    const size_t first = std::min(size_, capacity_ - head_);
    auto compact = [&](const auto* from, auto* to) {
      std::copy_n(from + head_, first, to);
      std::copy_n(from, size_ - first, to + first);
    };
    compact(time_lane(), next.time_lane());
    compact(hash_lane(), next.hash_lane());
    compact(author_lane(), next.author_lane());
    compact(id_lane(), next.id_lane());
  }
  block_ = std::move(next.block_);
  capacity_ = new_capacity;
  head_ = 0;
}

void PostBin::Push(const BinEntry& entry) {
  if (size_ == capacity_) Grow(size_ + 1);
  const size_t slot = (head_ + size_) & (capacity_ - 1);
  time_lane()[slot] = entry.time_ms;
  hash_lane()[slot] = entry.simhash;
  author_lane()[slot] = entry.author;
  id_lane()[slot] = entry.post_id;
  ++size_;
}

size_t PostBin::Segments(LaneSpan out[2]) const {
  if (size_ == 0) return 0;
  const int64_t* time = time_lane();
  const uint64_t* hash = hash_lane();
  const AuthorId* author = author_lane();
  const PostId* id = id_lane();
  const size_t first = std::min(size_, capacity_ - head_);
  out[0] = LaneSpan{time + head_, hash + head_, author + head_, id + head_,
                    first};
  if (first == size_) return 1;
  out[1] = LaneSpan{time, hash, author, id, size_ - first};
  return 2;
}

size_t PostBin::CountOlderThan(int64_t cutoff_ms) const {
  // Fast paths cover the two common states — fully inside the window
  // (steady stream, freshly evicted bin) and fully expired — before the
  // binary search pays its log.
  if (size_ == 0) return 0;
  const int64_t* time = time_lane();
  const size_t mask = capacity_ - 1;
  if (time[head_] >= cutoff_ms) return 0;
  if (time[(head_ + size_ - 1) & mask] < cutoff_ms) return size_;
  // Invariant: entry lo is expired, entry hi is not (times non-decreasing).
  size_t lo = 0;
  size_t hi = size_ - 1;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (time[(head_ + mid) & mask] < cutoff_ms) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

size_t PostBin::EvictOlderThan(int64_t cutoff_ms) {
  const size_t evicted = CountOlderThan(cutoff_ms);
  head_ = (head_ + evicted) & (capacity_ - 1);
  size_ -= evicted;
  return evicted;
}

void PostBin::Save(BinaryWriter* out) const {
  // The ring slot count is part of the snapshot: ApproxBytes() reports
  // capacity (what the process holds resident), so a restored bin must
  // keep the original ring or recovered memory metrics would drift from
  // an uninterrupted run's.
  out->PutVarint(capacity_);
  out->PutVarint(size_);
  int64_t prev_time = 0;
  for (size_t i = 0; i < size_; ++i) {
    const BinEntry entry = FromOldest(i);
    out->PutSignedVarint(entry.time_ms - prev_time);
    prev_time = entry.time_ms;
    out->PutFixed64(entry.simhash);
    out->PutVarint(entry.author);
    out->PutVarint(entry.post_id);
  }
}

bool PostBin::Load(BinaryReader& in) {
  *this = PostBin();
  uint64_t capacity;
  uint64_t count;
  if (!in.GetVarint(&capacity) || !in.GetVarint(&count)) return false;
  // The ring is always a power of two (possibly empty), never absurdly
  // large relative to what one bin can hold, and big enough for its
  // entries. Anything else is a corrupt snapshot — reject it before
  // trusting it with an allocation.
  constexpr uint64_t kMaxSnapshotSlots = 1ull << 24;
  if (capacity > kMaxSnapshotSlots || count > capacity ||
      (capacity & (capacity - 1)) != 0) {
    return false;
  }
  if (capacity > 0) Allocate(static_cast<size_t>(capacity));
  int64_t prev_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta;
    uint64_t hash;
    uint64_t author, post_id;
    if (!in.GetSignedVarint(&delta) || !in.GetFixed64(&hash) ||
        !in.GetVarint(&author) || !in.GetVarint(&post_id)) {
      *this = PostBin();
      return false;
    }
    prev_time += delta;
    time_lane()[size_] = prev_time;
    hash_lane()[size_] = hash;
    author_lane()[size_] = static_cast<AuthorId>(author);
    id_lane()[size_] = static_cast<PostId>(post_id);
    ++size_;
  }
  return true;
}

}  // namespace firehose
