#include "src/author/clique_cover.h"

#include <algorithm>
#include <unordered_set>

namespace firehose {

namespace {

uint64_t EdgeKey(AuthorId a, AuthorId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Intersects sorted `candidates` with the sorted neighbor list of `v`.
std::vector<AuthorId> IntersectSorted(const std::vector<AuthorId>& candidates,
                                      const std::vector<AuthorId>& neighbors) {
  std::vector<AuthorId> out;
  std::set_intersection(candidates.begin(), candidates.end(),
                        neighbors.begin(), neighbors.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

CliqueCover CliqueCover::Greedy(const AuthorGraph& graph) {
  CliqueCover cover;
  cover.num_authors_ = graph.num_vertices();
  std::unordered_set<uint64_t> covered;
  covered.reserve(static_cast<size_t>(graph.num_edges()) * 2);

  for (AuthorId u : graph.vertices()) {
    for (AuthorId v : graph.Neighbors(u)) {
      if (v < u) continue;  // visit each edge once, from its lower endpoint
      if (covered.count(EdgeKey(u, v)) > 0) continue;

      // Seed the clique with the uncovered edge {u, v} and grow it.
      std::vector<AuthorId> clique = {u, v};
      std::vector<AuthorId> candidates =
          IntersectSorted(graph.Neighbors(u), graph.Neighbors(v));
      while (!candidates.empty()) {
        // Pick the candidate contributing the most still-uncovered edges
        // into the clique; ties break to the smallest id for determinism.
        AuthorId best = candidates.front();
        int best_gain = -1;
        for (AuthorId cand : candidates) {
          int gain = 0;
          for (AuthorId member : clique) {
            if (covered.count(EdgeKey(cand, member)) == 0) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best = cand;
          }
        }
        clique.push_back(best);
        candidates = IntersectSorted(candidates, graph.Neighbors(best));
        candidates.erase(
            std::remove(candidates.begin(), candidates.end(), best),
            candidates.end());
      }
      std::sort(clique.begin(), clique.end());
      for (size_t i = 0; i < clique.size(); ++i) {
        for (size_t j = i + 1; j < clique.size(); ++j) {
          covered.insert(EdgeKey(clique[i], clique[j]));
        }
      }
      cover.cliques_.push_back(std::move(clique));
    }
  }

  // Singleton cliques for vertices covered by no clique, so same-author
  // posts of isolated authors can still cover each other. Every edge lies
  // in some clique, so exactly the isolated vertices are uncovered.
  for (AuthorId a : graph.vertices()) {
    if (graph.Neighbors(a).empty()) cover.cliques_.push_back({a});
  }
  cover.IndexAuthors();
  return cover;
}

CliqueCover CliqueCover::FromCliques(
    std::vector<std::vector<AuthorId>> cliques, size_t num_authors) {
  CliqueCover cover;
  cover.num_authors_ = num_authors;
  cover.cliques_ = std::move(cliques);
  for (auto& clique : cover.cliques_) std::sort(clique.begin(), clique.end());
  cover.IndexAuthors();
  return cover;
}

void CliqueCover::IndexAuthors() {
  // One (author, clique) key per membership: sorting the keys groups each
  // author's cliques together, in ascending id order.
  std::vector<uint64_t> memberships;
  memberships.reserve(TotalCliqueSize());
  for (size_t id = 0; id < cliques_.size(); ++id) {
    for (AuthorId member : cliques_[id]) {
      memberships.push_back((static_cast<uint64_t>(member) << 32) | id);
    }
  }
  std::sort(memberships.begin(), memberships.end());
  clique_ids_.resize(memberships.size());
  for (size_t i = 0; i < memberships.size(); ++i) {
    const AuthorId author = static_cast<AuthorId>(memberships[i] >> 32);
    if (authors_.empty() || authors_.back() != author) {
      authors_.push_back(author);
      offsets_.push_back(static_cast<uint32_t>(i));
    }
    clique_ids_[i] = static_cast<CliqueId>(memberships[i]);
  }
  offsets_.push_back(static_cast<uint32_t>(memberships.size()));
  authors_.shrink_to_fit();
  offsets_.shrink_to_fit();
}

bool CliqueCover::IsValidFor(const AuthorGraph& graph) const {
  std::unordered_set<uint64_t> covered;
  for (const auto& clique : cliques_) {
    for (size_t i = 0; i < clique.size(); ++i) {
      for (size_t j = i + 1; j < clique.size(); ++j) {
        if (!graph.IsNeighbor(clique[i], clique[j])) return false;
        covered.insert(EdgeKey(clique[i], clique[j]));
      }
    }
  }
  for (AuthorId u : graph.vertices()) {
    if (CliquesOf(u).empty()) return false;
    for (AuthorId v : graph.Neighbors(u)) {
      if (u < v && covered.count(EdgeKey(u, v)) == 0) return false;
    }
  }
  return true;
}

std::span<const CliqueId> CliqueCover::CliquesOf(AuthorId author) const {
  const auto it = std::lower_bound(authors_.begin(), authors_.end(), author);
  if (it == authors_.end() || *it != author) return {};
  const size_t i = static_cast<size_t>(it - authors_.begin());
  return std::span<const CliqueId>(clique_ids_)
      .subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
}

double CliqueCover::AvgCliquesPerAuthor() const {
  if (num_authors_ == 0) return 0.0;
  return static_cast<double>(clique_ids_.size()) /
         static_cast<double>(num_authors_);
}

double CliqueCover::AvgCliqueSize() const {
  if (cliques_.empty()) return 0.0;
  return static_cast<double>(TotalCliqueSize()) /
         static_cast<double>(cliques_.size());
}

uint64_t CliqueCover::TotalCliqueSize() const {
  uint64_t total = 0;
  for (const auto& clique : cliques_) total += clique.size();
  return total;
}

size_t CliqueCover::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& clique : cliques_) {
    bytes += clique.capacity() * sizeof(AuthorId) + sizeof(clique);
  }
  bytes += authors_.capacity() * sizeof(AuthorId) +
           offsets_.capacity() * sizeof(uint32_t) +
           clique_ids_.capacity() * sizeof(CliqueId);
  return bytes;
}

}  // namespace firehose
