#include "src/core/multi_user.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/core/component_table.h"
#include "src/util/hash.h"

namespace firehose {

namespace {

std::string EngineName(const char* prefix, Algorithm algorithm) {
  return std::string(prefix) + std::string(AlgorithmName(algorithm));
}

/// M_*: independent per-user diversifiers.
class MUserEngine final : public MultiUserEngine {
 public:
  MUserEngine(Algorithm algorithm, const DiversityThresholds& t,
              const AuthorGraph& graph, const std::vector<User>& users)
      : name_(EngineName("M_", algorithm)) {
    AuthorId max_author = 0;
    for (const User& user : users) {
      for (AuthorId a : user.subscriptions) max_author = std::max(max_author, a);
    }
    subscribers_.assign(static_cast<size_t>(max_author) + 1, {});
    engines_.resize(users.size());
    user_ids_.resize(users.size());
    for (size_t u = 0; u < users.size(); ++u) {
      user_ids_[u] = users[u].id;
      std::vector<AuthorId> authors = users[u].subscriptions;
      std::sort(authors.begin(), authors.end());
      authors.erase(std::unique(authors.begin(), authors.end()),
                    authors.end());
      engines_[u] = std::make_unique<OwnedDiversifier>(
          algorithm, users[u].custom_thresholds.value_or(t),
          graph.InducedSubgraph(authors));
      for (AuthorId a : authors) subscribers_[a].push_back(u);
    }
  }

  void Offer(const Post& post, std::vector<UserId>* delivered) override {
    delivered->clear();
    if (post.author >= subscribers_.size()) return;
    for (size_t u : subscribers_[post.author]) {
      Diversifier& diversifier = *engines_[u]->diversifier;
      const size_t before = diversifier.ApproxBytes();
      if (diversifier.Offer(post)) {
        delivered->push_back(user_ids_[u]);
      }
      live_bin_bytes_ += static_cast<int64_t>(diversifier.ApproxBytes()) -
                         static_cast<int64_t>(before);
    }
    peak_live_bytes_ = std::max(peak_live_bytes_, live_bin_bytes_);
    std::sort(delivered->begin(), delivered->end());
  }

  IngestStats AggregateStats() const override {
    IngestStats total;
    for (const auto& e : engines_) total.MergeFrom(e->diversifier->stats());
    // MergeFrom's max over per-user peaks undercounts memory that is
    // resident at the same time in different users' bins; this engine
    // tracks the combined bin footprint per offer. Graphs, covers and
    // routing tables are fixed after construction, so the engine-wide
    // high-water is today's total minus today's bins plus the bin peak
    // (Figures 11-16 report RAM).
    total.peak_bytes = static_cast<size_t>(
        static_cast<int64_t>(ApproxBytes()) - live_bin_bytes_ +
        peak_live_bytes_);
    return total;
  }

  size_t ApproxBytes() const override {
    size_t bytes = 0;
    for (const auto& e : engines_) bytes += e->ApproxBytes();
    for (const auto& subs : subscribers_) {
      bytes += subs.capacity() * sizeof(size_t);
    }
    return bytes;
  }

  std::string_view name() const override { return name_; }
  size_t num_diversifiers() const override { return engines_.size(); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<OwnedDiversifier>> engines_;  // per users index
  std::vector<UserId> user_ids_;                            // per users index
  std::vector<std::vector<size_t>> subscribers_;            // author -> indices
  // Combined resident bin bytes over all users, maintained by per-offer
  // deltas (ApproxBytes is O(1) per diversifier), and its true peak.
  int64_t live_bin_bytes_ = 0;
  int64_t peak_live_bytes_ = 0;
};

uint64_t AuthorSetKey(std::span<const AuthorId> sorted_authors) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (AuthorId a : sorted_authors) h = HashCombine(h, Fmix64(a));
  return h;
}

uint64_t ThresholdsKey(const DiversityThresholds& t) {
  uint64_t h = Fmix64(static_cast<uint64_t>(t.lambda_c));
  h = HashCombine(h, Fmix64(static_cast<uint64_t>(t.lambda_t_ms)));
  uint64_t lambda_a_bits;
  static_assert(sizeof(lambda_a_bits) == sizeof(t.lambda_a));
  std::memcpy(&lambda_a_bits, &t.lambda_a, sizeof(lambda_a_bits));
  h = HashCombine(h, Fmix64(lambda_a_bits));
  h = HashCombine(h, (t.use_content ? 2u : 0u) | (t.use_author ? 1u : 0u));
  return h;
}

/// S_*: shared per-distinct-component diversifiers.
class SUserEngine final : public MultiUserEngine {
 public:
  SUserEngine(Algorithm algorithm, const DiversityThresholds& t,
              const AuthorGraph& graph, const std::vector<User>& users)
      : name_(EngineName("S_", algorithm)),
        table_(algorithm, graph, ComputeSharedComponents(t, graph, users)) {}

  void Offer(const Post& post, std::vector<UserId>* delivered) override {
    delivered->clear();
    for (size_t index : table_.ComponentsOf(post.author)) {
      ComponentTable::Component& c = table_.component(index);
      Diversifier& diversifier = c.diversifier();
      const size_t before = diversifier.ApproxBytes();
      if (diversifier.Offer(post)) {
        delivered->insert(delivered->end(), c.users.begin(), c.users.end());
      }
      live_bin_bytes_ += static_cast<int64_t>(diversifier.ApproxBytes()) -
                         static_cast<int64_t>(before);
    }
    peak_live_bytes_ = std::max(peak_live_bytes_, live_bin_bytes_);
    std::sort(delivered->begin(), delivered->end());
  }

  IngestStats AggregateStats() const override {
    IngestStats total = table_.MergedStats();
    // True concurrent high-water of the whole engine (see MUserEngine).
    total.peak_bytes = static_cast<size_t>(
        static_cast<int64_t>(ApproxBytes()) - live_bin_bytes_ +
        peak_live_bytes_);
    return total;
  }

  size_t ApproxBytes() const override { return table_.ApproxBytes(); }

  std::string_view name() const override { return name_; }
  size_t num_diversifiers() const override { return table_.size(); }

 private:
  std::string name_;
  ComponentTable table_;
  // Combined resident bin bytes over all components and its true peak.
  int64_t live_bin_bytes_ = 0;
  int64_t peak_live_bytes_ = 0;
};

}  // namespace

std::vector<SharedComponent> ComputeSharedComponents(
    const DiversityThresholds& t, const AuthorGraph& graph,
    const std::vector<User>& users) {
  // Key every connected component of every user's G_i by its exact
  // author set AND the user's effective thresholds; identical keys share
  // one component (a customized user gets private components).
  std::vector<SharedComponent> components;
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  // The distinct components so far, by key: keys[i] is components[i]'s,
  // and `slots` is a flat open-addressing table of component indices
  // (kNone: empty), probed linearly from a key's low bits and kept at
  // most half full.
  std::vector<uint64_t> keys;
  std::vector<uint32_t> slots(64, kNone);

  // Arrays indexed by author id are sized by the graph, never by a
  // followed id: an id past the last vertex has no neighbours and stays
  // a singleton, as in InducedSubgraph. The graph's edges are copied
  // once, each listed at its lower endpoint: vertex v's higher
  // neighbours are higher[higher_begin[v] .. higher_begin[v + 1]).
  const std::vector<AuthorId>& vertices = graph.vertices();
  const size_t vertex_bound =
      vertices.empty() ? 0 : size_t{vertices.back()} + 1;
  std::vector<uint32_t> vertex_of(vertex_bound, kNone);
  std::vector<uint32_t> higher_begin(vertices.size() + 1, 0);
  std::vector<AuthorId> higher;
  higher.reserve(static_cast<size_t>(graph.num_edges()));
  for (uint32_t v = 0; v < vertices.size(); ++v) {
    vertex_of[vertices[v]] = v;
    const std::vector<AuthorId>& neighbors = graph.Neighbors(vertices[v]);
    higher.insert(higher.end(),
                  std::upper_bound(neighbors.begin(), neighbors.end(),
                                   vertices[v]),
                  neighbors.end());
    higher_begin[v + 1] = static_cast<uint32_t>(higher.size());
  }
  // position[a] is a's index in the current user's subscriptions.
  std::vector<uint32_t> position(vertex_bound, kNone);
  // Per user, reused: the sorted subscriptions, a union-find forest over
  // their indices, and the subscriptions grouped by component.
  std::vector<AuthorId> subs;
  std::vector<uint32_t> parent;
  std::vector<uint64_t> keyed;
  std::vector<AuthorId> grouped;
  const auto find = [&parent](uint32_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (const User& user : users) {
    const DiversityThresholds user_t = user.custom_thresholds.value_or(t);
    const uint64_t thresholds_key = ThresholdsKey(user_t);
    subs.assign(user.subscriptions.begin(), user.subscriptions.end());
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    const uint32_t k = static_cast<uint32_t>(subs.size());

    // One union per edge of G_i, from its lower endpoint. The smaller
    // root wins, so each root is its component's smallest index.
    for (uint32_t i = 0; i < k; ++i) {
      if (subs[i] < vertex_bound) position[subs[i]] = i;
    }
    parent.resize(k);
    for (uint32_t i = 0; i < k; ++i) parent[i] = i;
    for (uint32_t i = 0; i < k; ++i) {
      const uint32_t v = subs[i] < vertex_bound ? vertex_of[subs[i]] : kNone;
      if (v == kNone) continue;
      for (uint32_t e = higher_begin[v]; e < higher_begin[v + 1]; ++e) {
        const uint32_t j = position[higher[e]];
        if (j == kNone) continue;
        const uint32_t ri = find(i);
        const uint32_t rj = find(j);
        parent[std::max(ri, rj)] = std::min(ri, rj);
      }
    }
    for (uint32_t i = 0; i < k; ++i) {
      if (subs[i] < vertex_bound) position[subs[i]] = kNone;
    }

    // Sorting (root, index) keys lists each component's authors together
    // and ascending, and the components in order of their smallest
    // author, as each root is its component's smallest index: the order
    // of AuthorGraph::ConnectedComponents.
    keyed.resize(k);
    for (uint32_t i = 0; i < k; ++i) {
      keyed[i] = (uint64_t{find(i)} << 32) | i;
    }
    std::sort(keyed.begin(), keyed.end());
    grouped.resize(k);
    for (uint32_t i = 0; i < k; ++i) {
      grouped[i] = subs[static_cast<uint32_t>(keyed[i])];
    }
    for (uint32_t begin = 0, end = 0; begin < k; begin = end) {
      while (end < k && keyed[end] >> 32 == keyed[begin] >> 32) ++end;
      const std::span<const AuthorId> component(grouped.data() + begin,
                                                end - begin);
      const uint64_t key =
          Fmix64(HashCombine(AuthorSetKey(component), thresholds_key));
      size_t slot = key & (slots.size() - 1);
      for (; slots[slot] != kNone; slot = (slot + 1) & (slots.size() - 1)) {
        const uint32_t cand = slots[slot];
        if (keys[cand] == key &&
            std::ranges::equal(components[cand].authors, component) &&
            components[cand].thresholds == user_t) {
          break;
        }
      }
      if (slots[slot] == kNone) {
        slots[slot] = static_cast<uint32_t>(components.size());
        keys.push_back(key);
        // Grown one push at a time, as ConnectedComponents grows its
        // components: ComponentTable::ApproxBytes counts the capacity,
        // and the S_* peak_bytes bench keys were recorded with it.
        std::vector<AuthorId> authors;
        for (AuthorId a : component) authors.push_back(a);
        components.push_back(SharedComponent{std::move(authors), {}, user_t});
      }
      components[slots[slot]].users.push_back(user.id);
      if (keys.size() * 2 > slots.size()) {
        // Double the table: every key moves to its slot in the new size.
        slots.assign(slots.size() * 2, kNone);
        for (uint32_t i = 0; i < keys.size(); ++i) {
          size_t at = keys[i] & (slots.size() - 1);
          while (slots[at] != kNone) at = (at + 1) & (slots.size() - 1);
          slots[at] = i;
        }
      }
    }
  }
  for (SharedComponent& c : components) {
    std::sort(c.users.begin(), c.users.end());
    c.users.erase(std::unique(c.users.begin(), c.users.end()), c.users.end());
  }
  return components;
}

std::unique_ptr<MultiUserEngine> MakeMUserEngine(
    Algorithm algorithm, const DiversityThresholds& t,
    const AuthorGraph& graph, const std::vector<User>& users) {
  return std::make_unique<MUserEngine>(algorithm, t, graph, users);
}

std::unique_ptr<MultiUserEngine> MakeSUserEngine(
    Algorithm algorithm, const DiversityThresholds& t,
    const AuthorGraph& graph, const std::vector<User>& users) {
  return std::make_unique<SUserEngine>(algorithm, t, graph, users);
}

}  // namespace firehose
