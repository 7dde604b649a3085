#include "src/core/component_table.h"

#include <algorithm>
#include <utility>

namespace firehose {

OwnedDiversifier::OwnedDiversifier(Algorithm algorithm,
                                   const DiversityThresholds& t,
                                   AuthorGraph subgraph) {
  if (algorithm == Algorithm::kCliqueBin) {
    // CliqueBin reads only the cover: the subgraph is dropped once the
    // cover is built.
    cover = std::make_unique<CliqueCover>(CliqueCover::Greedy(subgraph));
  } else {
    graph = std::move(subgraph);
  }
  diversifier = MakeDiversifier(algorithm, t, &graph, cover.get());
}

size_t OwnedDiversifier::ApproxBytes() const {
  size_t bytes = diversifier->ApproxBytes() + graph.ApproxBytes();
  if (cover != nullptr) bytes += cover->ApproxBytes();
  return bytes;
}

ComponentTable::ComponentTable(Algorithm algorithm, const AuthorGraph& graph,
                               std::vector<SharedComponent> components) {
  if (components.empty()) return;
  AuthorId max_author = 0;
  components_.reserve(components.size());
  for (SharedComponent& shared : components) {
    for (AuthorId a : shared.authors) max_author = std::max(max_author, a);
    auto engine = std::make_unique<OwnedDiversifier>(
        algorithm, shared.thresholds, graph.InducedSubgraph(shared.authors));
    components_.push_back(Component{std::move(shared.authors),
                                    std::move(shared.users),
                                    std::move(engine)});
  }
  author_components_.assign(static_cast<size_t>(max_author) + 1, {});
  for (size_t i = 0; i < components_.size(); ++i) {
    for (AuthorId a : components_[i].authors) {
      author_components_[a].push_back(i);
    }
  }
}

IngestStats ComponentTable::MergedStats() const {
  IngestStats total;
  for (const Component& c : components_) {
    total.MergeFrom(c.diversifier().stats());
  }
  return total;
}

size_t ComponentTable::ApproxBytes() const {
  size_t bytes = 0;
  for (const Component& c : components_) {
    bytes += c.engine->ApproxBytes();
    bytes += c.authors.capacity() * sizeof(AuthorId);
    bytes += c.users.capacity() * sizeof(UserId);
  }
  for (const auto& v : author_components_) {
    bytes += v.capacity() * sizeof(size_t);
  }
  return bytes;
}

}  // namespace firehose
