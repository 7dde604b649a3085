#ifndef FIREHOSE_CORE_SHARED_BINS_H_
#define FIREHOSE_CORE_SHARED_BINS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/author/clique_cover.h"
#include "src/author/similarity_graph.h"
#include "src/core/engine.h"
#include "src/core/multi_user.h"
#include "src/util/flat_lists.h"

namespace firehose {

/// One set of bins shared by every component it holds (DESIGN.md §4i):
/// the serve shard's table. Where a ComponentTable gives each component
/// its own diversifier, this table stores each admitted post once, with
/// the ascending ids of the components that admitted it, and decides a
/// post once for all of its author's components. Per user, the
/// deliveries equal the S_* engines' exactly.
///
/// `algorithm` picks the paper's bin layout, applied once over the union
/// of the components' authors:
///   - kUniBin: one bin; a content hit counts only when its author is the
///     post's author or a neighbour of it.
///   - kNeighborBin: one window per author, each post stored in its
///     author's window; a post reads its author's and its neighbours'.
///   - kCliqueBin: one bin per clique of a greedy cover of the union's
///     author subgraph; a post reads and writes its author's cliques.
///
/// A stored post leaves every bin it was written to in global time
/// order, so no bin holds a post older than λt behind the newest offered
/// post, even for authors who stopped posting.
class SharedBinTable {
 public:
  /// Builds the layout over the subgraph of `graph` induced by the union
  /// of the components' authors; `graph` need not outlive the table.
  /// Component `i` is the i-th of `components`. Every component must use
  /// `t`, with both coverage dimensions on: the layouts take their
  /// candidates from the author graph.
  SharedBinTable(Algorithm algorithm, const DiversityThresholds& t,
                 const AuthorGraph& graph,
                 std::vector<SharedComponent> components);

  // A deque's move may throw, so a copyable table would be copied when a
  // vector of tables grows; the bins cannot be copied.
  SharedBinTable(const SharedBinTable&) = delete;
  SharedBinTable(SharedBinTable&&) = default;

  /// Indices of the components containing `author`, ascending; empty when
  /// no component does.
  std::span<const uint32_t> ComponentsOf(AuthorId author) const {
    if (author >= author_components_.size()) return {};
    return author_components_[author];
  }

  /// One past the largest author any component contains (0 when empty).
  size_t author_bound() const { return author_components_.size(); }

  /// Owners of component `index`, sorted.
  std::span<const UserId> users(size_t index) const { return users_[index]; }

  /// Offers the next post (non-decreasing time order) to every component
  /// of ComponentsOf(post.author) at once, and sets `*admitted` to the
  /// ascending ids of the components it is non-redundant for.
  void Offer(const Post& post, std::vector<uint32_t>* admitted);

  /// Posts stored in the bins, each counted once however many bins hold
  /// it.
  size_t window_posts() const { return window_.size(); }

  /// Bin entries tested against an offered post's fingerprint so far.
  uint64_t comparisons() const { return comparisons_; }

  /// Entries the bins hold, a stored post counted once per bin it was
  /// written to.
  size_t bin_entries() const { return bin_entries_; }

  /// Bytes the bins' rings hold: every slot allocated, 12 bytes each,
  /// whether an entry sits in it or not. A ring halves once a quarter
  /// full, so it holds at most max(4, 4 × its entries) slots.
  size_t bin_bytes() const { return bin_bytes_; }

  /// Bin entries, over every bin, that hold a post by `author`. O(all
  /// entries): a check, not a hot-path call.
  size_t BinnedPostsBy(AuthorId author) const;

  /// A bin keeps the low 32 bits of each entry's window position. The
  /// stored post whose position has low bits `low` sits at this index of
  /// the window (0 = the oldest stored post) when the oldest one's
  /// position is `front`: exact while the window holds fewer than 2^32
  /// posts.
  static constexpr uint32_t WindowIndex(uint32_t low, uint64_t front) {
    return static_cast<uint32_t>(low - static_cast<uint32_t>(front));
  }

 private:
  /// A queue whose elements keep their absolute position: the n-th ever
  /// pushed is at n. A deque frees each block once the front leaves it,
  /// so no dead prefix is kept.
  template <typename T>
  class Fifo {
   public:
    void Push(const T& value) { items_.push_back(value); }
    void PopFront() {
      items_.pop_front();
      ++popped_;
    }
    size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }
    const T& front() const { return items_.front(); }
    /// The front's position, and the position the next Push takes.
    uint64_t begin() const { return popped_; }
    uint64_t end() const { return popped_ + items_.size(); }
    const T& at(uint64_t position) const { return (*this)[position - popped_]; }
    /// The element `index` places behind the front.
    const T& operator[](size_t index) const { return items_[index]; }

   private:
    std::deque<T> items_;
    uint64_t popped_ = 0;  // elements popped so far: the front's position
  };

  /// A bin: the circular array of §4 ("Handling Time Diversity") over
  /// the posts written to it, oldest first. One power-of-two block of
  /// 12-byte slots holds two lanes, the fingerprints (the λc kernel's
  /// lane) and then the low 32 bits of the posts' positions in window_,
  /// so a bin costs one allocation. Push doubles the block when it is
  /// full, and PopFront halves it when it leaves it a quarter full, down
  /// to 4 slots: the block follows the bin's entries, not the most it
  /// ever held.
  class Bin {
   public:
    static constexpr size_t kSlotBytes = sizeof(uint64_t) + sizeof(uint32_t);

    /// A contiguous stretch of the ring, oldest first: entry i's
    /// fingerprint is simhash[i] and its window position's low bits
    /// position[i].
    struct Run {
      const uint64_t* simhash = nullptr;
      const uint32_t* position = nullptr;
      size_t size = 0;
    };

    /// Appends a post; returns the bytes the block grew by (0 unless it
    /// was full).
    size_t Push(uint64_t simhash, uint32_t position);

    /// Drops the oldest entry; returns the bytes the block shrank by (0
    /// unless the pop left it a quarter full). Precondition: the bin is
    /// not empty.
    size_t PopFront() {
      head_ = (head_ + 1) & (capacity_ - 1);
      --size_;
      if (capacity_ <= 4 || 4 * size_ > capacity_) return 0;
      Resize(capacity_ / 2);
      return capacity_ * kSlotBytes;
    }

    /// The older run: from the oldest entry to the newest or to the end
    /// of the block, whichever comes first.
    Run older() const {
      return RunAt(head_, std::min(size_, capacity_ - head_));
    }

    /// The newer run: the entries wrapped to the start of the block;
    /// empty unless the ring wraps.
    Run newer() const {
      return RunAt(0, size_ - std::min(size_, capacity_ - head_));
    }

   private:
    /// The lanes: arrays of `capacity_` elements. A std::byte block
    /// implicitly creates the arrays its reads and writes need (C++20
    /// [intro.object]); std::launder reaches them.
    uint64_t* simhash_lane() const {
      return std::launder(reinterpret_cast<uint64_t*>(block_.get()));
    }
    uint32_t* position_lane() const {
      return std::launder(reinterpret_cast<uint32_t*>(
          block_.get() + capacity_ * sizeof(uint64_t)));
    }

    /// `size` entries from `slot` on; no lane is read when size is 0, as
    /// there may be no block.
    Run RunAt(size_t slot, size_t size) const {
      if (size == 0) return {};
      return {simhash_lane() + slot, position_lane() + slot, size};
    }

    /// Moves the entries, oldest first, into a new block of `capacity`
    /// slots. Precondition: capacity >= size_.
    void Resize(size_t capacity);

    std::unique_ptr<std::byte[]> block_;  // simhash lane, then position lane
    size_t capacity_ = 0;                 // 0 or a power of two
    size_t head_ = 0;                     // slot of the oldest entry
    size_t size_ = 0;
  };

  /// An admitted post, stored once.
  struct StoredPost {
    int64_t time_ms;
    uint64_t admitted_begin;  // position of its first id in admitted_
    AuthorId author;
    uint32_t num_admitted;
  };

  /// Calls fn(bin) for each bin a post by `author` reads when `read`, or
  /// is written to otherwise, until fn returns false.
  template <typename Fn>
  void ForEachBin(AuthorId author, bool read, Fn&& fn);

  /// Removes every stored post older than `cutoff_ms` from the window,
  /// from each bin it was written to and from admitted_.
  void Evict(int64_t cutoff_ms);

  Algorithm algorithm_;
  DiversityThresholds thresholds_;
  FlatLists<UserId> users_;                // per component
  FlatLists<uint32_t> author_components_;  // index = author
  AuthorGraph graph_;  // the union's subgraph; empty for kCliqueBin
  // kCliqueBin only: the cover's Author2Cliques map, index = author.
  FlatLists<CliqueId> author_cliques_;
  std::vector<Bin> bins_;
  Fifo<StoredPost> window_;  // every stored post, in offer order
  Fifo<uint32_t> admitted_;  // the stored posts' admitted lists, in order
  std::vector<uint8_t> covered_;  // Offer: one flag per ComponentsOf entry
  uint64_t comparisons_ = 0;
  size_t bin_entries_ = 0;
  size_t bin_bytes_ = 0;
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_SHARED_BINS_H_
