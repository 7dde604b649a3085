#include "src/core/shared_bins.h"

#include <algorithm>
#include <utility>

#include "src/core/kernels/dispatch.h"

namespace firehose {

SharedBinTable::SharedBinTable(Algorithm algorithm,
                               const DiversityThresholds& t,
                               const AuthorGraph& graph,
                               std::vector<SharedComponent> components)
    : algorithm_(algorithm), thresholds_(t) {
  std::vector<AuthorId> authors;
  for (const SharedComponent& c : components) {
    authors.insert(authors.end(), c.authors.begin(), c.authors.end());
  }
  std::sort(authors.begin(), authors.end());
  authors.erase(std::unique(authors.begin(), authors.end()), authors.end());
  if (!authors.empty()) {
    author_components_.assign(static_cast<size_t>(authors.back()) + 1, {});
  }
  users_.reserve(components.size());
  for (uint32_t i = 0; i < components.size(); ++i) {
    for (AuthorId a : components[i].authors) {
      author_components_[a].push_back(i);
    }
    users_.push_back(std::move(components[i].users));
  }

  // The union's induced subgraph keeps every edge of each component's.
  AuthorGraph subgraph = graph.InducedSubgraph(authors);
  switch (algorithm) {
    case Algorithm::kUniBin:
      bins_.resize(1);
      graph_ = std::move(subgraph);
      break;
    case Algorithm::kNeighborBin:
      bins_.resize(author_components_.size());
      graph_ = std::move(subgraph);
      break;
    case Algorithm::kCliqueBin:
      // The cover is all this layout reads: the subgraph dies here.
      cover_ = CliqueCover::Greedy(subgraph);
      bins_.resize(cover_.num_cliques());
      break;
  }
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
      for (CliqueId clique : cover_.CliquesOf(author)) {
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
    ForEachBin(stored.author, /*read=*/false, [](Bin& bin) {
      bin.simhash.PopFront();
      bin.post.PopFront();
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
    const std::span<const uint64_t> hashes = bin.simhash.live();
    const std::span<const uint64_t> positions = bin.post.live();
    size_t end = hashes.size();
    while (uncovered > 0) {
      const size_t hit = ops.find_newest_within(
          hashes.data(), 0, end, post.simhash, thresholds_.lambda_c);
      if (hit == kernels::kNoHit) {
        comparisons_ += end;
        break;
      }
      comparisons_ += end - hit;
      end = hit;
      const StoredPost& stored = window_.at(positions[hit]);
      if (algorithm_ == Algorithm::kUniBin && stored.author != post.author &&
          !graph_.IsNeighbor(post.author, stored.author)) {
        continue;
      }
      // Both lists ascend: one merge marks the components on both.
      const std::span<const uint32_t> hit_components(
          &admitted_.at(stored.admitted_begin), stored.num_admitted);
      size_t i = 0;
      size_t k = 0;
      while (i < components.size() && k < hit_components.size()) {
        if (components[i] < hit_components[k]) {
          ++i;
        } else if (hit_components[k] < components[i]) {
          ++k;
        } else {
          uncovered -= covered_[i] == 0 ? 1 : 0;
          covered_[i] = 1;
          ++i;
          ++k;
        }
      }
    }
    return uncovered > 0;
  });

  for (size_t i = 0; i < components.size(); ++i) {
    if (covered_[i] == 0) admitted->push_back(components[i]);
  }
  if (admitted->empty()) return;
  const uint64_t position = window_.end();
  window_.Push(StoredPost{post.time_ms, admitted_.end(), post.author,
                          static_cast<uint32_t>(admitted->size())});
  for (uint32_t component : *admitted) admitted_.Push(component);
  ForEachBin(post.author, /*read=*/false, [&](Bin& bin) {
    bin.simhash.Push(post.simhash);
    bin.post.Push(position);
    return true;
  });
}

size_t SharedBinTable::BinnedPostsBy(AuthorId author) const {
  size_t count = 0;
  for (const Bin& bin : bins_) {
    for (uint64_t position : bin.post.live()) {
      count += window_.at(position).author == author ? 1 : 0;
    }
  }
  return count;
}

}  // namespace firehose
