#ifndef FIREHOSE_STREAM_POST_BIN_H_
#define FIREHOSE_STREAM_POST_BIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "src/util/binary.h"
#include "src/stream/post.h"

namespace firehose {

/// Compact record a post bin stores per post: everything a coverage check
/// needs (time, fingerprint, author), without the text.
struct BinEntry {
  int64_t time_ms;
  uint64_t simhash;
  AuthorId author;
  PostId post_id;
};

/// Bytes one logical entry occupies across the bin's four lanes. Kept as
/// an explicit constant (rather than sizeof(BinEntry)) so ApproxBytes()
/// reports the lanes' true footprint independent of struct padding.
inline constexpr size_t kBinEntryLaneBytes =
    sizeof(int64_t) + sizeof(uint64_t) + sizeof(AuthorId) + sizeof(PostId);

/// Time-windowed post bin: the circular array of §4 ("Handling Time
/// Diversity"). Entries are pushed in non-decreasing time order; entries
/// older than the λt window are evicted from the front. The buffer is a
/// growable ring, so both insertion and eviction are amortized O(1), and
/// iteration from newest to oldest is cache-friendly.
///
/// Storage is structure-of-arrays: four parallel ring lanes (time,
/// fingerprint, author, post id) sharing one head/size/capacity, carved
/// out of one heap block, so a bin costs one allocation and growing it
/// one allocation and one copy. The coverage kernel
/// (src/core/coverage_kernel.h) scans the fingerprint lane as raw
/// contiguous spans — a ring has at most two contiguous segments — so the
/// hot XOR+popcount loop never performs per-entry masked indexing and
/// never loads the lanes the current test does not need.
class PostBin {
 public:
  PostBin() = default;

  /// One contiguous stretch of the ring, exposed as parallel lane
  /// pointers: element `i` of every lane describes the same entry.
  struct LaneSpan {
    const int64_t* time_ms = nullptr;
    const uint64_t* simhash = nullptr;
    const AuthorId* author = nullptr;
    const PostId* post_id = nullptr;
    size_t size = 0;
  };

  /// Appends an entry. Entries must arrive in non-decreasing `time_ms`
  /// order (streams are time-ordered); violating this breaks eviction.
  void Push(const BinEntry& entry);

  /// Removes all entries with time_ms < cutoff_ms. Returns the number of
  /// evicted entries. O(log size): the λt boundary is binary-searched in
  /// the time lane and the head advances past the whole expired prefix.
  size_t EvictOlderThan(int64_t cutoff_ms);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Entry `i` positions from the newest (FromNewest(0) is the most
  /// recent). Precondition: i < size(). Gathers the four lanes into a
  /// BinEntry; hot loops should iterate Segments() instead.
  BinEntry FromNewest(size_t i) const {
    return At((head_ + size_ - 1 - i) & (capacity_ - 1));
  }

  /// Entry `i` positions from the oldest. Precondition: i < size().
  BinEntry FromOldest(size_t i) const {
    return At((head_ + i) & (capacity_ - 1));
  }

  /// Fills `out[0..1]` with the ring's contiguous segments in oldest→
  /// newest order and returns the segment count (0, 1 or 2). Logical
  /// entry `i` from the oldest lives in out[0] while i < out[0].size and
  /// in out[1] at offset i - out[0].size otherwise. The spans stay valid
  /// until the next Push / EvictOlderThan / Load — reading one after a
  /// mutating call is flagged statically by firehose_analyze's
  /// `view-invalidation` pass (DESIGN.md §4g); re-acquire instead.
  size_t Segments(LaneSpan out[2]) const;

  /// Number of entries with time_ms < cutoff_ms — the index (from the
  /// oldest) of the λt boundary, found by binary search over the
  /// time-ordered ring. Scans can skip this prefix without touching it.
  size_t CountOlderThan(int64_t cutoff_ms) const;

  /// Bytes of the backing ring (capacity, not size — what the process
  /// actually holds resident).
  size_t ApproxBytes() const { return capacity_ * kBinEntryLaneBytes; }

  /// Serializes the ring capacity plus the live entries (oldest to
  /// newest, delta-encoded) for diversifier failover snapshots. Capacity
  /// is included so a restored bin reports the same ApproxBytes() as the
  /// original.
  void Save(BinaryWriter* out) const;

  /// Replaces the contents from a Save()d snapshot; false (contents
  /// undefined-but-safe: empty) on malformed input.
  bool Load(BinaryReader& in);

 private:
  /// Reallocates the ring to the smallest power of two >= min_capacity
  /// (at least double the current capacity), compacting to head_ = 0.
  void Grow(size_t min_capacity);

  /// Replaces the block with a fresh zeroed one of `capacity` slots (a
  /// power of two); the bin is left empty.
  void Allocate(size_t capacity);

  // The block holds the lanes back to back in this order, each
  // `capacity_` slots long. Every lane is an array object of its own
  // type, begun by placement new in Allocate(); std::launder reaches it
  // through the block's bytes. Only valid while capacity_ > 0.
  template <typename T>
  T* Lane(size_t bytes_per_slot_before) const {
    return std::launder(
        reinterpret_cast<T*>(block_.get() + capacity_ * bytes_per_slot_before));
  }
  int64_t* time_lane() const { return Lane<int64_t>(0); }
  uint64_t* hash_lane() const { return Lane<uint64_t>(sizeof(int64_t)); }
  AuthorId* author_lane() const {
    return Lane<AuthorId>(sizeof(int64_t) + sizeof(uint64_t));
  }
  PostId* id_lane() const {
    return Lane<PostId>(sizeof(int64_t) + sizeof(uint64_t) + sizeof(AuthorId));
  }

  BinEntry At(size_t slot) const {
    return BinEntry{time_lane()[slot], hash_lane()[slot], author_lane()[slot],
                    id_lane()[slot]};
  }

  std::unique_ptr<std::byte[]> block_;  // null while capacity_ == 0
  size_t capacity_ = 0;  // ring slots: 0 or a power of two
  size_t head_ = 0;      // index of the oldest entry
  size_t size_ = 0;
};

}  // namespace firehose

#endif  // FIREHOSE_STREAM_POST_BIN_H_
