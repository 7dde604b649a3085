#ifndef FIREHOSE_CORE_COMPONENT_TABLE_H_
#define FIREHOSE_CORE_COMPONENT_TABLE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/author/clique_cover.h"
#include "src/author/similarity_graph.h"
#include "src/core/engine.h"
#include "src/core/multi_user.h"

namespace firehose {

/// One diversifier together with the structure it borrows from: its
/// author subgraph for UniBin and NeighborBin; for CliqueBin, the greedy
/// clique cover of that subgraph, which is all CliqueBin reads, so the
/// subgraph itself is dropped once the cover is built.
/// Not movable: the diversifier points into `graph` or `cover`.
struct OwnedDiversifier {
  OwnedDiversifier(Algorithm algorithm, const DiversityThresholds& t,
                   AuthorGraph subgraph);
  OwnedDiversifier(OwnedDiversifier&&) = delete;

  /// Diversifier + subgraph + cover bytes.
  size_t ApproxBytes() const;

  AuthorGraph graph;                   ///< empty for CliqueBin
  std::unique_ptr<CliqueCover> cover;  ///< only for CliqueBin
  std::unique_ptr<Diversifier> diversifier;
};

/// The S_* engines' state (§5): one OwnedDiversifier per shared component,
/// over the component's induced subgraph of the global author graph, plus
/// the author -> component routing. The sequential S_* engine holds one
/// table over every component; each RunShardedSUser shard holds one over
/// its share (serve shards share one set of bins instead: SharedBinTable).
/// Callers keep their own per-post loop: offer the post to every
/// component of ComponentsOf(post.author), in that order, and deliver an
/// admitted post to the component's users.
class ComponentTable {
 public:
  struct Component {
    std::vector<AuthorId> authors;  ///< sorted
    std::vector<UserId> users;      ///< owners, sorted
    std::unique_ptr<OwnedDiversifier> engine;

    Diversifier& diversifier() const { return *engine->diversifier; }
  };

  /// An empty table: routes no author.
  ComponentTable() = default;

  /// Builds every component's induced subgraph, cover and diversifier
  /// from `graph`, which need not outlive the table. Components keep the
  /// order of `components`.
  ComponentTable(Algorithm algorithm, const AuthorGraph& graph,
                 std::vector<SharedComponent> components);

  /// Indices of the components containing `author`, ascending; empty when
  /// no component does.
  std::span<const size_t> ComponentsOf(AuthorId author) const {
    if (author >= author_components_.size()) return {};
    return author_components_[author];
  }

  /// One past the largest author any component contains (0 when empty).
  size_t author_bound() const { return author_components_.size(); }

  Component& component(size_t index) { return components_[index]; }
  size_t size() const { return components_.size(); }

  /// Every component's diversifier counters, merged in table order.
  IngestStats MergedStats() const;

  /// Diversifiers, subgraphs and covers, plus the author, user and
  /// routing lists.
  size_t ApproxBytes() const;

 private:
  std::vector<Component> components_;
  std::vector<std::vector<size_t>> author_components_;  // index = author
};

}  // namespace firehose

#endif  // FIREHOSE_CORE_COMPONENT_TABLE_H_
