#ifndef FIREHOSE_CORE_MULTI_USER_H_
#define FIREHOSE_CORE_MULTI_USER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/author/clique_cover.h"
#include "src/author/similarity_graph.h"
#include "src/core/engine.h"

namespace firehose {

/// Dense user identifier; users are numbered 0..num_users-1.
using UserId = uint32_t;

/// A subscriber: follows a set of authors and receives the diversified
/// union of their posts. `custom_thresholds` optionally overrides the
/// engine-wide thresholds for this user — the paper notes (§2) that SPSD
/// "can easily support user customized diversity thresholds" while
/// M-SPSD sharing requires matching thresholds; the S_* engines therefore
/// share a component only among users whose effective thresholds agree.
struct User {
  User() = default;
  User(UserId id_in, std::vector<AuthorId> subscriptions_in,
       std::optional<DiversityThresholds> custom = std::nullopt)
      : id(id_in),
        subscriptions(std::move(subscriptions_in)),
        custom_thresholds(std::move(custom)) {}

  UserId id = 0;
  std::vector<AuthorId> subscriptions;
  std::optional<DiversityThresholds> custom_thresholds;
};

/// A distinct connected component shared by one or more users — the unit
/// of work of the S_* engines (§5): users whose subscription graphs
/// contain the identical author set as a connected component (and whose
/// effective thresholds agree) share one diversifier over it. A
/// ComponentTable (src/core/component_table.h) builds the diversifiers
/// and the author routing for any subset of these.
struct SharedComponent {
  std::vector<AuthorId> authors;  ///< sorted component author set
  std::vector<UserId> users;      ///< sorted owners
  DiversityThresholds thresholds;
};

/// Computes the distinct (author set, thresholds) components for `users`
/// over `graph`. Components are ordered by first discovery; posts by an
/// author reach every returned component containing that author.
std::vector<SharedComponent> ComputeSharedComponents(
    const DiversityThresholds& t, const AuthorGraph& graph,
    const std::vector<User>& users);

/// An engine solving M-SPSD (Problem 2): each offered post is routed to
/// the diversified timelines of the users it survives for.
class MultiUserEngine {
 public:
  virtual ~MultiUserEngine() = default;

  /// Offers the next stream post (posts in non-decreasing time order) and
  /// appends to `*delivered` the ids of users whose timeline shows it.
  /// `delivered` is cleared first. Users are appended in increasing id
  /// order at most once each.
  virtual void Offer(const Post& post, std::vector<UserId>* delivered) = 0;

  /// One delivery of an OfferBatch burst: posts[post_index] reached
  /// `user`'s timeline.
  struct BatchDelivery {
    uint32_t post_index;
    UserId user;
  };

  /// Offers a burst of posts (same ordering contract as Offer) and
  /// appends every delivery to `*deliveries` (cleared first), grouped by
  /// ascending post_index with users ascending within a post — the exact
  /// concatenation of per-post Offer outputs. Returns deliveries->size().
  /// Calls Offer per post, so it is identical to the per-post path,
  /// including the per-post peak-memory accounting.
  size_t OfferBatch(std::span<const Post> posts,
                    std::vector<BatchDelivery>* deliveries) {
    deliveries->clear();
    std::vector<UserId> scratch;
    for (size_t i = 0; i < posts.size(); ++i) {
      Offer(posts[i], &scratch);
      for (UserId user : scratch) {
        deliveries->push_back({static_cast<uint32_t>(i), user});
      }
    }
    return deliveries->size();
  }

  /// Counters summed over all internal diversifiers.
  virtual IngestStats AggregateStats() const = 0;

  /// Total resident bytes over all internal diversifiers and routing
  /// indexes.
  virtual size_t ApproxBytes() const = 0;

  /// "M_UniBin", "S_CliqueBin", ...
  virtual std::string_view name() const = 0;

  /// Number of underlying per-user or per-component diversifiers.
  virtual size_t num_diversifiers() const = 0;
};

/// M_* engines (§5): one independent diversifier per user over the user's
/// induced author subgraph G_i. No computation is shared.
std::unique_ptr<MultiUserEngine> MakeMUserEngine(Algorithm algorithm,
                                                 const DiversityThresholds& t,
                                                 const AuthorGraph& graph,
                                                 const std::vector<User>& users);

/// S_* engines (§5): one diversifier per *distinct connected component* of
/// the users' G_i graphs, keyed by exact author set. Users sharing a
/// component share its bins and its computation; a post admitted by a
/// component is delivered to every user owning that component. Because
/// every G_i is an induced subgraph of the same global G, identical author
/// sets imply identical subgraphs, so per-user outputs equal the M_*
/// outputs exactly.
std::unique_ptr<MultiUserEngine> MakeSUserEngine(Algorithm algorithm,
                                                 const DiversityThresholds& t,
                                                 const AuthorGraph& graph,
                                                 const std::vector<User>& users);

}  // namespace firehose

#endif  // FIREHOSE_CORE_MULTI_USER_H_
