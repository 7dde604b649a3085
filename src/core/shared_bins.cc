#include "src/core/shared_bins.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/core/kernels/dispatch.h"

namespace firehose {

SharedBinTable::SharedBinTable(Algorithm algorithm,
                               const DiversityThresholds& t,
                               const AuthorGraph& graph,
                               std::vector<SharedComponent> components)
    : algorithm_(algorithm), thresholds_(t) {
  size_t bound = 0;  // one past the largest author
  for (const SharedComponent& c : components) {
    for (AuthorId a : c.authors) bound = std::max(bound, size_t{a} + 1);
  }
  author_components_ =
      FlatLists<uint32_t>::ByCounting(bound, [&](const auto& emit) {
        for (uint32_t i = 0; i < components.size(); ++i) {
          for (AuthorId a : components[i].authors) emit(a, i);
        }
      });
  users_ = FlatLists<UserId>::ByCounting(
      components.size(), [&](const auto& emit) {
        for (uint32_t i = 0; i < components.size(); ++i) {
          for (UserId u : components[i].users) emit(i, u);
        }
      });
  // Indexed, the components are never read again: their memory goes back
  // before the layout below allocates.
  std::vector<SharedComponent>().swap(components);
  std::vector<AuthorId> authors;  // the union, ascending
  for (size_t a = 0; a < bound; ++a) {
    if (!author_components_[a].empty()) {
      authors.push_back(static_cast<AuthorId>(a));
    }
  }

  switch (algorithm) {
    case Algorithm::kUniBin:
      bins_.resize(1);
      graph_ = graph.InducedSubgraph(authors);
      break;
    case Algorithm::kNeighborBin:
      bins_.resize(bound);
      graph_ = graph.InducedSubgraph(authors);
      break;
    case Algorithm::kCliqueBin: {
      // The cover's Author2Cliques map is all this layout reads: it is
      // kept by author id, and the cliques' member lists go with the
      // cover. The cover is built off `graph` itself, with no subgraph
      // copied; it equals the cover of the union's induced subgraph,
      // every edge of each component's included.
      const CliqueCover cover = CliqueCover::Greedy(graph, authors);
      author_cliques_ =
          FlatLists<CliqueId>::ByCounting(bound, [&](const auto& emit) {
            for (CliqueId id = 0; id < cover.num_cliques(); ++id) {
              for (AuthorId a : cover.cliques()[id]) emit(a, id);
            }
          });
      bins_.resize(cover.num_cliques());
      break;
    }
  }
}

void SharedBinTable::Bin::Resize(size_t capacity) {
  Bin resized;
  resized.block_ =
      std::make_unique_for_overwrite<std::byte[]>(capacity * kSlotBytes);
  resized.capacity_ = capacity;
  resized.size_ = size_;
  // Unwrapped into the new block: the older run, then the newer one.
  size_t at = 0;
  for (const Run& run : {older(), newer()}) {
    std::copy_n(run.simhash, run.size, resized.simhash_lane() + at);
    std::copy_n(run.position, run.size, resized.position_lane() + at);
    at += run.size;
  }
  *this = std::move(resized);
}

size_t SharedBinTable::Bin::Push(uint64_t simhash, uint32_t position) {
  size_t grown = 0;
  if (size_ == capacity_) {
    const size_t capacity = capacity_ == 0 ? 2 : 2 * capacity_;
    grown = (capacity - capacity_) * kSlotBytes;
    Resize(capacity);
  }
  const size_t slot = (head_ + size_) & (capacity_ - 1);
  simhash_lane()[slot] = simhash;
  position_lane()[slot] = position;
  ++size_;
  return grown;
}

template <typename Fn>
void SharedBinTable::ForEachBin(AuthorId author, bool read, Fn&& fn) {
  switch (algorithm_) {
    case Algorithm::kUniBin:
      fn(bins_[0]);
      return;
    case Algorithm::kNeighborBin:
      if (!fn(bins_[author]) || !read) return;
      for (AuthorId neighbor : graph_.Neighbors(author)) {
        if (!fn(bins_[neighbor])) return;
      }
      return;
    case Algorithm::kCliqueBin:
      for (CliqueId clique : author_cliques_[author]) {
        if (!fn(bins_[clique])) return;
      }
      return;
  }
}

void SharedBinTable::Evict(int64_t cutoff_ms) {
  // Stored posts leave in window order, so each one is the oldest entry
  // of every bin it was written to.
  while (!window_.empty() && window_.front().time_ms < cutoff_ms) {
    const StoredPost stored = window_.front();
    ForEachBin(stored.author, /*read=*/false, [&](Bin& bin) {
      bin_bytes_ -= bin.PopFront();
      --bin_entries_;
      return true;
    });
    for (uint32_t i = 0; i < stored.num_admitted; ++i) admitted_.PopFront();
    window_.PopFront();
  }
}

void SharedBinTable::Offer(const Post& post, std::vector<uint32_t>* admitted) {
  admitted->clear();
  Evict(post.time_ms - thresholds_.lambda_t_ms);
  const std::span<const uint32_t> components = ComponentsOf(post.author);
  if (components.empty()) return;

  // Component components[i] is covered once some hit within λc lies in
  // it: the hit's author is the post's or a neighbour's, and the hit's
  // admitted list names the component.
  covered_.assign(components.size(), 0);
  size_t uncovered = components.size();
  const kernels::KernelOps& ops = kernels::ActiveKernelOps();
  ForEachBin(post.author, /*read=*/true, [&](const Bin& bin) {
    // Newest first, as one scan over the whole bin would go: the wrapped
    // newer run, then the older one. The hits and comparisons are the
    // same as that scan's.
    for (const Bin::Run& run : {bin.newer(), bin.older()}) {
      size_t end = run.size;
      while (uncovered > 0) {
        const size_t hit = ops.find_newest_within(
            run.simhash, 0, end, post.simhash, thresholds_.lambda_c);
        if (hit == kernels::kNoHit) {
          comparisons_ += end;
          break;
        }
        comparisons_ += end - hit;
        end = hit;
        const StoredPost& stored =
            window_[WindowIndex(run.position[hit], window_.begin())];
        if (algorithm_ == Algorithm::kUniBin && stored.author != post.author &&
            !graph_.IsNeighbor(post.author, stored.author)) {
          continue;
        }
        // Both lists ascend: one merge marks the components on both. The
        // hit's list is read by position, as admitted_ is no array.
        const uint64_t hit_end = stored.admitted_begin + stored.num_admitted;
        size_t i = 0;
        uint64_t k = stored.admitted_begin;
        while (i < components.size() && k < hit_end) {
          const uint32_t hit_component = admitted_.at(k);
          if (components[i] < hit_component) {
            ++i;
          } else if (hit_component < components[i]) {
            ++k;
          } else {
            uncovered -= covered_[i] == 0 ? 1 : 0;
            covered_[i] = 1;
            ++i;
            ++k;
          }
        }
      }
    }
    return uncovered > 0;
  });

  for (size_t i = 0; i < components.size(); ++i) {
    if (covered_[i] == 0) admitted->push_back(components[i]);
  }
  if (admitted->empty()) return;
  const auto position = static_cast<uint32_t>(window_.end());
  window_.Push(StoredPost{post.time_ms, admitted_.end(), post.author,
                          static_cast<uint32_t>(admitted->size())});
  for (uint32_t component : *admitted) admitted_.Push(component);
  ForEachBin(post.author, /*read=*/false, [&](Bin& bin) {
    bin_bytes_ += bin.Push(post.simhash, position);
    ++bin_entries_;
    return true;
  });
}

size_t SharedBinTable::BinnedPostsBy(AuthorId author) const {
  size_t count = 0;
  for (const Bin& bin : bins_) {
    for (const Bin::Run& run : {bin.older(), bin.newer()}) {
      for (size_t i = 0; i < run.size; ++i) {
        const StoredPost& stored =
            window_[WindowIndex(run.position[i], window_.begin())];
        count += stored.author == author ? 1 : 0;
      }
    }
  }
  return count;
}

}  // namespace firehose
