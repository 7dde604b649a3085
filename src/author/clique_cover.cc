#include "src/author/clique_cover.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace firehose {

namespace {

uint64_t EdgeKey(AuthorId a, AuthorId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

CliqueCover CliqueCover::Greedy(const AuthorGraph& graph) {
  return Greedy(graph, graph.vertices());
}

CliqueCover CliqueCover::Greedy(const AuthorGraph& graph,
                                std::span<const AuthorId> ids) {
  CliqueCover cover;
  cover.num_authors_ = ids.size();

  // A dense-index copy of the induced subgraph: vertex i is ids[i], and
  // its neighbours in the subset are adjacency[offsets[i] .. offsets[i +
  // 1]), ascending. ids ascend, so index order is id order and every
  // smallest-index choice below is the smallest id. index_of maps a
  // neighbour to its subset index (kNone outside the subset). It is sized
  // by the graph's edges, one past the largest neighbour of the subset,
  // never by an id of the subset: an id past that bound is no neighbour
  // of the subset, so nothing looks it up.
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  const uint32_t n = static_cast<uint32_t>(ids.size());
  size_t slots = 0;  // an upper bound: neighbours outside the subset drop
  size_t neighbor_bound = 0;
  for (AuthorId id : ids) {
    const std::vector<AuthorId>& neighbors = graph.Neighbors(id);
    if (neighbors.empty()) continue;
    slots += neighbors.size();
    neighbor_bound = std::max(neighbor_bound, size_t{neighbors.back()} + 1);
  }
  std::vector<uint32_t> index_of(neighbor_bound, kNone);
  for (uint32_t i = 0; i < n && ids[i] < neighbor_bound; ++i) {
    index_of[ids[i]] = i;
  }
  std::vector<uint32_t> offsets(n + 1, 0);
  std::vector<uint32_t> adjacency;
  adjacency.reserve(slots);
  for (uint32_t i = 0; i < n; ++i) {
    for (AuthorId neighbor : graph.Neighbors(ids[i])) {
      const uint32_t j = index_of[neighbor];
      if (j != kNone) adjacency.push_back(j);
    }
    offsets[i + 1] = static_cast<uint32_t>(adjacency.size());
  }
  // One flag per adjacency slot: slot s of i is covered once some clique
  // holds the edge {i, adjacency[s]}. Both slots of an edge are set.
  std::vector<uint8_t> covered(adjacency.size(), 0);

  // Growing a clique: the candidates (common neighbours of every member,
  // ascending) and, in lockstep, each one's gain: the still-uncovered
  // edges it would add into the clique. When a member joins, its
  // neighbours are marked with `stamp` (edge covered) or `stamp + 1`
  // (uncovered), which filters the candidates and updates their gains.
  // Each use of marks takes a fresh stamp, so none is ever cleared.
  std::vector<uint32_t> clique;
  std::vector<uint32_t> candidates;
  std::vector<uint32_t> gains;
  std::vector<uint64_t> marks(n, 0);
  uint64_t stamp = 0;
  // The subset index of every clique's members, clique after clique: the
  // Author2Cliques index counts them.
  std::vector<uint32_t> memberships;
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
      const uint32_t v = adjacency[s];
      if (v < u || covered[s] != 0) continue;  // each uncovered edge once

      // Seed the clique with the uncovered edge {u, v}: the candidates
      // are N(u) ∩ N(v), by a merge walk that reads both edges' flags.
      clique.assign({u, v});
      candidates.clear();
      gains.clear();
      for (uint32_t a = offsets[u], b = offsets[v];
           a < offsets[u + 1] && b < offsets[v + 1];) {
        if (adjacency[a] < adjacency[b]) {
          ++a;
        } else if (adjacency[b] < adjacency[a]) {
          ++b;
        } else {
          candidates.push_back(adjacency[a]);
          gains.push_back(static_cast<uint32_t>(covered[a] == 0) +
                          static_cast<uint32_t>(covered[b] == 0));
          ++a;
          ++b;
        }
      }
      while (!candidates.empty()) {
        // The candidate adding the most uncovered edges joins; ties go
        // to the smallest id.
        size_t best = 0;
        for (size_t i = 1; i < candidates.size(); ++i) {
          if (gains[i] > gains[best]) best = i;
        }
        const uint32_t member = candidates[best];
        clique.push_back(member);
        stamp += 2;
        for (uint32_t t = offsets[member]; t < offsets[member + 1]; ++t) {
          marks[adjacency[t]] = stamp + static_cast<uint64_t>(covered[t] == 0);
        }
        // The member is no neighbour of itself, so it leaves too.
        size_t kept = 0;
        for (size_t i = 0; i < candidates.size(); ++i) {
          const uint64_t mark = marks[candidates[i]];
          if (mark < stamp) continue;
          candidates[kept] = candidates[i];
          gains[kept] = gains[i] + static_cast<uint32_t>(mark - stamp);
          ++kept;
        }
        candidates.resize(kept);
        gains.resize(kept);
      }

      // Mark the clique's edges covered: stamp the members, then each
      // member's slots that hold a stamped neighbour.
      std::sort(clique.begin(), clique.end());
      stamp += 2;
      for (uint32_t member : clique) marks[member] = stamp;
      for (uint32_t member : clique) {
        for (uint32_t t = offsets[member]; t < offsets[member + 1]; ++t) {
          covered[t] |= static_cast<uint8_t>(marks[adjacency[t]] == stamp);
        }
      }
      // Grown from a pair one push at a time: ApproxBytes counts the
      // capacity, and the peak_bytes bench keys were recorded with
      // cliques grown this way.
      std::vector<AuthorId> members = {ids[clique[0]], ids[clique[1]]};
      for (size_t i = 2; i < clique.size(); ++i) {
        members.push_back(ids[clique[i]]);
      }
      cover.cliques_.push_back(std::move(members));
      memberships.insert(memberships.end(), clique.begin(), clique.end());
    }
  }

  // Singleton cliques for vertices covered by no clique, so same-author
  // posts of isolated authors can still cover each other. Every edge lies
  // in some clique, so exactly the isolated vertices are uncovered, and
  // every id of the subset is in some clique.
  for (uint32_t i = 0; i < n; ++i) {
    if (offsets[i] == offsets[i + 1]) {
      cover.cliques_.push_back({ids[i]});
      memberships.push_back(i);
    }
  }
  cover.IndexAuthors(std::vector<AuthorId>(ids.begin(), ids.end()),
                     memberships);
  return cover;
}

CliqueCover CliqueCover::FromCliques(
    std::vector<std::vector<AuthorId>> cliques, size_t num_authors) {
  CliqueCover cover;
  cover.num_authors_ = num_authors;
  cover.cliques_ = std::move(cliques);
  std::vector<AuthorId> authors;
  for (auto& clique : cover.cliques_) {
    std::sort(clique.begin(), clique.end());
    authors.insert(authors.end(), clique.begin(), clique.end());
  }
  std::sort(authors.begin(), authors.end());
  authors.erase(std::unique(authors.begin(), authors.end()), authors.end());
  authors.shrink_to_fit();  // ApproxBytes counts its capacity
  std::vector<uint32_t> memberships;
  memberships.reserve(cover.TotalCliqueSize());
  for (const auto& clique : cover.cliques_) {
    for (AuthorId member : clique) {
      memberships.push_back(static_cast<uint32_t>(
          std::lower_bound(authors.begin(), authors.end(), member) -
          authors.begin()));
    }
  }
  cover.IndexAuthors(std::move(authors), memberships);
  return cover;
}

void CliqueCover::IndexAuthors(std::vector<AuthorId> authors,
                               std::span<const uint32_t> memberships) {
  // A counting sort of the memberships by author index: count each
  // author's cliques, turn the counts into starts, then place every
  // clique id at its author's cursor. Cliques are visited in ascending
  // id order, so each author's list ascends.
  offsets_.assign(authors.size() + 1, 0);
  for (uint32_t author : memberships) ++offsets_[author + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  clique_ids_.resize(memberships.size());
  size_t at = 0;
  for (size_t id = 0; id < cliques_.size(); ++id) {
    for (size_t k = 0; k < cliques_[id].size(); ++k) {
      clique_ids_[offsets_[memberships[at++]]++] = static_cast<CliqueId>(id);
    }
  }
  // Each cursor stopped at its author's end, the next author's start.
  for (size_t i = offsets_.size() - 1; i > 0; --i) offsets_[i] = offsets_[i - 1];
  offsets_[0] = 0;
  authors_ = std::move(authors);
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
