#ifndef FIREHOSE_AUTHOR_CLIQUE_COVER_H_
#define FIREHOSE_AUTHOR_CLIQUE_COVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/author/similarity_graph.h"

namespace firehose {

/// Identifier of a clique within a CliqueCover.
using CliqueId = uint32_t;

/// A clique edge cover of an author similarity graph plus the
/// Author2Cliques map (paper §4.3). Every edge of the graph lies in at
/// least one clique; every vertex lies in at least one clique (isolated
/// vertices receive singleton cliques so an author's own posts can still
/// cover each other in CliqueBin). Cliques are numbered 0..num_cliques()-1.
class CliqueCover {
 public:
  /// Greedy heuristic of §4.3: pick an uncovered edge, grow a clique by
  /// adding vertices adjacent to every current member (preferring the one
  /// covering the most still-uncovered edges), save it, repeat until all
  /// edges are covered; finally add singleton cliques for vertices in no
  /// clique. The exact minimum-total-size cover is NP-hard.
  static CliqueCover Greedy(const AuthorGraph& graph);

  /// The greedy cover of the subgraph of `graph` induced by `vertices`
  /// (sorted, unique), without building that subgraph: its cliques equal
  /// Greedy(graph.InducedSubgraph(vertices))'s, clique for clique. An id
  /// of `vertices` that is no vertex of `graph` is an isolated vertex, as
  /// in the subgraph. One scratch array, from a neighbour of the subset
  /// to its index in `vertices`, is sized by the graph: one past the
  /// largest neighbour. The rest, the Author2Cliques counts included, is
  /// sized by the subset. None is sized by an id of `vertices`.
  static CliqueCover Greedy(const AuthorGraph& graph,
                            std::span<const AuthorId> vertices);

  /// Reassembles a cover from explicit cliques (persistence, tests,
  /// dynamic maintenance). `num_authors` is the vertex count of the
  /// covered graph, used for the `c` statistic. No validity checking —
  /// pair with IsValidFor() when the cliques come from disk.
  static CliqueCover FromCliques(std::vector<std::vector<AuthorId>> cliques,
                                 size_t num_authors);

  /// True when this cover is a valid clique edge cover of `graph`:
  /// every clique complete, every edge covered, every vertex in >= 1
  /// clique.
  bool IsValidFor(const AuthorGraph& graph) const;

  /// All cliques; each is a sorted author list.
  const std::vector<std::vector<AuthorId>>& cliques() const {
    return cliques_;
  }
  size_t num_cliques() const { return cliques_.size(); }

  /// Ids of the cliques containing `author`, ascending (the
  /// Author2Cliques map). Empty for authors absent from the covered graph.
  /// The span views the cover's storage: it dies with the cover.
  std::span<const CliqueId> CliquesOf(AuthorId author) const;

  /// Σ over authors of cliques-per-author / num authors — the `c` of §4.4.
  double AvgCliquesPerAuthor() const;

  /// Average clique size — the `s` of §4.4.
  double AvgCliqueSize() const;

  /// Σ of clique sizes (the space objective the greedy heuristic targets).
  uint64_t TotalCliqueSize() const;

  /// Approximate resident bytes of the cover and its author map.
  size_t ApproxBytes() const;

 private:
  /// Fills the still-empty Author2Cliques index from cliques_ by
  /// counting. `authors` are the covered authors (sorted, unique), and
  /// `memberships` holds the index in `authors` of every member of every
  /// clique, clique after clique, in cliques_ order.
  void IndexAuthors(std::vector<AuthorId> authors,
                    std::span<const uint32_t> memberships);

  std::vector<std::vector<AuthorId>> cliques_;
  // Author2Cliques: the cliques of authors_[i] are
  // clique_ids_[offsets_[i] .. offsets_[i + 1]), ascending.
  std::vector<AuthorId> authors_;  // sorted, unique
  std::vector<uint32_t> offsets_;  // authors_.size() + 1 entries
  std::vector<CliqueId> clique_ids_;
  size_t num_authors_ = 0;
};

}  // namespace firehose

#endif  // FIREHOSE_AUTHOR_CLIQUE_COVER_H_
