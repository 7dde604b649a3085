#include "src/stream/post_bin.h"

namespace firehose {

void PostBin::Grow(size_t min_capacity) {
  size_t new_capacity = time_.empty() ? 2 : time_.size() * 2;
  while (new_capacity < min_capacity) new_capacity *= 2;
  std::vector<int64_t> next_time(new_capacity);
  std::vector<uint64_t> next_hash(new_capacity);
  std::vector<AuthorId> next_author(new_capacity);
  std::vector<PostId> next_id(new_capacity);
  for (size_t i = 0; i < size_; ++i) {
    const size_t slot = (head_ + i) & mask_;
    next_time[i] = time_[slot];
    next_hash[i] = hash_[slot];
    next_author[i] = author_[slot];
    next_id[i] = id_[slot];
  }
  time_ = std::move(next_time);
  hash_ = std::move(next_hash);
  author_ = std::move(next_author);
  id_ = std::move(next_id);
  head_ = 0;
  mask_ = new_capacity - 1;
}

void PostBin::Push(const BinEntry& entry) {
  if (size_ == time_.size()) Grow(size_ + 1);
  const size_t slot = (head_ + size_) & mask_;
  time_[slot] = entry.time_ms;
  hash_[slot] = entry.simhash;
  author_[slot] = entry.author;
  id_[slot] = entry.post_id;
  ++size_;
  ++pushes_;
}

size_t PostBin::Segments(LaneSpan out[2]) const {
  if (size_ == 0) return 0;
  const size_t capacity = time_.size();
  const size_t first = std::min(size_, capacity - head_);
  out[0] = LaneSpan{time_.data() + head_, hash_.data() + head_,
                    author_.data() + head_, id_.data() + head_, first};
  if (first == size_) return 1;
  out[1] = LaneSpan{time_.data(), hash_.data(), author_.data(), id_.data(),
                    size_ - first};
  return 2;
}

size_t PostBin::CountOlderThan(int64_t cutoff_ms) const {
  // Fast paths cover the two common states — fully inside the window
  // (steady stream, freshly evicted bin) and fully expired — before the
  // binary search pays its log.
  if (size_ == 0 || time_[head_] >= cutoff_ms) return 0;
  if (time_[(head_ + size_ - 1) & mask_] < cutoff_ms) return size_;
  // Invariant: entry lo is expired, entry hi is not (times non-decreasing).
  size_t lo = 0;
  size_t hi = size_ - 1;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (time_[(head_ + mid) & mask_] < cutoff_ms) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

size_t PostBin::EvictOlderThan(int64_t cutoff_ms) {
  const size_t evicted = CountOlderThan(cutoff_ms);
  head_ = (head_ + evicted) & mask_;
  size_ -= evicted;
  return evicted;
}

void PostBin::Save(BinaryWriter* out) const {
  // The ring slot count is part of the snapshot: ApproxBytes() reports
  // capacity (what the process holds resident), so a restored bin must
  // keep the original ring or recovered memory metrics would drift from
  // an uninterrupted run's.
  out->PutVarint(time_.size());
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
  time_.clear();
  hash_.clear();
  author_.clear();
  id_.clear();
  head_ = 0;
  size_ = 0;
  mask_ = 0;
  pushes_ = 0;
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
  if (capacity > 0) {
    const size_t slots = static_cast<size_t>(capacity);
    time_ = std::vector<int64_t>(slots);
    hash_ = std::vector<uint64_t>(slots);
    author_ = std::vector<AuthorId>(slots);
    id_ = std::vector<PostId>(slots);
    mask_ = slots - 1;
  }
  int64_t prev_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta;
    uint64_t hash;
    uint64_t author, post_id;
    if (!in.GetSignedVarint(&delta) || !in.GetFixed64(&hash) ||
        !in.GetVarint(&author) || !in.GetVarint(&post_id)) {
      time_.clear();
      hash_.clear();
      author_.clear();
      id_.clear();
      head_ = size_ = mask_ = 0;
      return false;
    }
    prev_time += delta;
    time_[size_] = prev_time;
    hash_[size_] = hash;
    author_[size_] = static_cast<AuthorId>(author);
    id_[size_] = static_cast<PostId>(post_id);
    ++size_;
  }
  pushes_ = size_;
  return true;
}

}  // namespace firehose
