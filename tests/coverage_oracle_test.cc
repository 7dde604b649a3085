// Differential oracle for the batched coverage kernel: a deliberately
// naive reference diversifier (linear scan over every retained post, the
// scalar three-way cover predicate, no eviction, no pruning) is run next
// to the optimized bin algorithms on seeded gen/ streams across the
// λc/λt/λa grid. The optimized post-ID sequences must be byte-identical
// to the reference, and the kernel's comparisons-minus-pruned accounting
// must reconcile with the reference's pair-test ledger.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/author/similarity.h"
#include "src/core/cosine_unibin.h"
#include "src/core/engine.h"
#include "src/core/unibin.h"
#include "src/gen/social_graph_gen.h"
#include "src/gen/stream_gen.h"
#include "src/simhash/permuted_index.h"
#include "src/simhash/simhash.h"
#include "src/text/normalize.h"
#include "src/text/tf_vector.h"
#include "src/util/bitops.h"

namespace firehose {
namespace {

// ---------------------------------------------------------------------------
// Naive reference.

/// Ledger of the reference run. `pair_tests` counts every (new post,
/// retained post) pair the naive scan visits; `time_rejects` counts the
/// pairs dismissed on the time dimension alone. The optimized bins evict
/// expired entries instead of testing them, so for the flat-bin
/// algorithms `pair_tests - time_rejects` is exactly the kernel's
/// `comparisons` (see the accounting assertions below).
struct ReferenceResult {
  std::vector<PostId> admitted;
  uint64_t pair_tests = 0;
  uint64_t time_rejects = 0;
};

/// The naive diversifier: retains every admitted post forever and scans
/// them newest-first with the scalar predicate. `content_covers(post,
/// prior)` supplies the content dimension so the same skeleton oracles
/// both the SimHash bins and the cosine baseline.
template <typename ContentCoversFn>
ReferenceResult NaiveDiversify(const PostStream& stream,
                               const DiversityThresholds& t,
                               const AuthorGraph& graph,
                               ContentCoversFn&& content_covers) {
  std::vector<const Post*> z;
  ReferenceResult result;
  for (const Post& post : stream) {
    bool covered = false;
    for (auto it = z.rbegin(); it != z.rend(); ++it) {
      const Post* prior = *it;
      ++result.pair_tests;
      if (post.time_ms - prior->time_ms > t.lambda_t_ms) {
        ++result.time_rejects;
        continue;
      }
      if (t.use_content && !content_covers(post, *prior)) continue;
      if (t.use_author && prior->author != post.author &&
          !graph.IsNeighbor(post.author, prior->author)) {
        continue;
      }
      covered = true;
      break;
    }
    if (!covered) {
      z.push_back(&post);
      result.admitted.push_back(post.id);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Seeded gen/ workloads.

struct OracleCase {
  uint64_t seed;
  int lambda_c;
  int64_t lambda_t_ms;
  double lambda_a;
};

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  std::ostringstream name;
  name << "s" << info.param.seed << "_c" << info.param.lambda_c << "_t"
       << info.param.lambda_t_ms / 1000 << "s_a"
       << static_cast<int>(info.param.lambda_a * 100);
  return name.str();
}

/// 60-author community graph thresholded at the case's λa: sweeping λa
/// changes which author pairs are similar, exercising the author
/// dimension of the predicate, exactly as the paper's Figure 16 sweep.
AuthorGraph OracleGraph(uint64_t seed, double lambda_a) {
  SocialGraphOptions options;
  options.num_authors = 60;
  options.num_communities = 4;
  options.avg_followees = 12.0;
  options.seed = seed;
  const FollowGraph social = GenerateSocialGraph(options);
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto pairs = AllPairsSimilarity(social, authors, 0.1);
  return AuthorGraph::FromSimilarities(authors, pairs, lambda_a);
}

PostStream OracleStream(const AuthorGraph& graph, uint64_t seed) {
  StreamGenOptions options;
  options.duration_ms = 10 * 60 * 1000;  // ten minutes keeps the grid fast
  options.posts_per_author = 10.0;
  options.cross_author_dup_prob = 0.15;  // dup-heavy: coverage must fire
  options.self_dup_prob = 0.05;
  options.seed = seed;
  const SimHasher hasher;
  return GenerateStream(graph, hasher, options);
}

std::vector<PostId> RunOptimized(Diversifier& diversifier,
                                 const PostStream& stream) {
  std::vector<PostId> admitted;
  for (const Post& post : stream) {
    if (diversifier.Offer(post)) admitted.push_back(post.id);
  }
  return admitted;
}

class CoverageOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CoverageOracleTest, AllBinAlgorithmsMatchNaiveReference) {
  const OracleCase& c = GetParam();
  DiversityThresholds t;
  t.lambda_c = c.lambda_c;
  t.lambda_t_ms = c.lambda_t_ms;
  t.lambda_a = c.lambda_a;
  const AuthorGraph graph = OracleGraph(c.seed, c.lambda_a);
  const PostStream stream = OracleStream(graph, c.seed);
  ASSERT_GT(stream.size(), 100u);

  const ReferenceResult reference =
      NaiveDiversify(stream, t, graph, [&](const Post& post, const Post& prior) {
        return HammingDistance64(post.simhash, prior.simhash) <= t.lambda_c;
      });
  const uint64_t effective_tests = reference.pair_tests - reference.time_rejects;

  for (Algorithm algorithm : kAllAlgorithms) {
    auto diversifier = MakeDiversifier(algorithm, t, &graph);
    const std::vector<PostId> admitted = RunOptimized(*diversifier, stream);
    // Byte-identical output post-ID sequence.
    ASSERT_EQ(admitted, reference.admitted) << AlgorithmName(algorithm);
    const IngestStats& stats = diversifier->stats();
    EXPECT_EQ(stats.posts_out, reference.admitted.size())
        << AlgorithmName(algorithm);
    // Scalar kernel against eagerly-evicted bins: nothing is pruned.
    EXPECT_EQ(stats.pruned, 0u) << AlgorithmName(algorithm);
    switch (algorithm) {
      case Algorithm::kUniBin:
        // UniBin's bin is the reference's retained list minus expired
        // entries, scanned in the same newest-first order — its pairwise
        // test count is exactly the reference's minus the time rejects.
        EXPECT_EQ(stats.comparisons, effective_tests);
        break;
      case Algorithm::kNeighborBin:
        // Per-author bins pre-filter the author dimension, so NeighborBin
        // can only test fewer pairs than the flat reference.
        EXPECT_LE(stats.comparisons, effective_tests);
        break;
      case Algorithm::kCliqueBin:
        // A post stored in several clique bins is re-tested once per bin,
        // so no bound against the flat ledger holds in either direction;
        // output identity above is the full contract.
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoverageOracleTest,
    ::testing::ValuesIn([] {
      std::vector<OracleCase> cases;
      for (uint64_t seed : {7u, 71u}) {
        for (int lambda_c : {0, 3, 10, 18}) {
          for (int64_t lambda_t_ms : {2LL * 60 * 1000, 30LL * 60 * 1000}) {
            for (double lambda_a : {0.5, 0.7, 0.9}) {
              cases.push_back(OracleCase{seed, lambda_c, lambda_t_ms, lambda_a});
            }
          }
        }
      }
      return cases;
    }()),
    CaseName);

// ---------------------------------------------------------------------------
// Cosine baseline against a cosine-predicate reference.

TEST(CoverageOracleCosineTest, CosineUniBinMatchesNaiveReference) {
  for (uint64_t seed : {5u, 55u}) {
    for (double min_cos : {0.5, 0.7}) {
      DiversityThresholds t;
      t.lambda_t_ms = 5 * 60 * 1000;
      const AuthorGraph graph = OracleGraph(seed, 0.7);
      PostStream stream = OracleStream(graph, seed);
      stream.resize(stream.size() / 2);  // dot products are pricey

      // Vectorize exactly as CosineUniBin does and retain vectors of
      // admitted posts alongside the naive z-list.
      std::vector<TfVector> vectors;
      vectors.reserve(stream.size());
      for (const Post& post : stream) {
        vectors.push_back(TfVector::FromText(Normalize(post.text)));
      }
      const ReferenceResult reference = NaiveDiversify(
          stream, t, graph, [&](const Post& post, const Post& prior) {
            return vectors[post.id].CosineSimilarity(vectors[prior.id]) >=
                   min_cos;
          });

      CosineUniBinDiversifier cosine(t, min_cos, &graph);
      const std::vector<PostId> admitted = RunOptimized(cosine, stream);
      ASSERT_EQ(admitted, reference.admitted)
          << "seed=" << seed << " min_cos=" << min_cos;
      EXPECT_EQ(cosine.stats().pruned, 0u);
      EXPECT_EQ(cosine.stats().comparisons,
                reference.pair_tests - reference.time_rejects);
    }
  }
}

// ---------------------------------------------------------------------------
// The paper's production λc = 18 (§3): the permuted-table index cannot
// prune there, and UniBin scans its bin — the scalar reference's
// decisions and accounting, end to end.

TEST(CoverageOracleIndexTest, PaperLambda18IsInfeasibleAndFallsBackToScalar) {
  DiversityThresholds t;
  t.lambda_c = 18;
  t.lambda_t_ms = 30 * 60 * 1000;

  // Every block count within a 64-table budget keeps at least as many
  // tables as its prefix has values: a probe examines >= n candidates.
  int configurations = 0;
  for (int blocks = t.lambda_c + 1; blocks <= 64; ++blocks) {
    const PermutedSimHashIndex index(blocks, t.lambda_c, /*max_tables=*/64);
    if (!index.valid()) continue;
    ASSERT_LT(index.PrefixBits(), 63) << blocks;
    EXPECT_GE(static_cast<uint64_t>(index.NumTables()),
              uint64_t{1} << index.PrefixBits())
        << "blocks=" << blocks;
    ++configurations;
  }
  EXPECT_GT(configurations, 0);

  const AuthorGraph graph = OracleGraph(13, 0.7);
  const PostStream stream = OracleStream(graph, 13);
  const ReferenceResult reference =
      NaiveDiversify(stream, t, graph, [&](const Post& post, const Post& prior) {
        return HammingDistance64(post.simhash, prior.simhash) <= t.lambda_c;
      });

  UniBinDiversifier unibin(t, &graph);
  const std::vector<PostId> admitted = RunOptimized(unibin, stream);
  // Byte-identical decisions AND byte-identical accounting.
  EXPECT_EQ(admitted, reference.admitted);
  EXPECT_EQ(unibin.stats().comparisons,
            reference.pair_tests - reference.time_rejects);
  EXPECT_EQ(unibin.stats().pruned, 0u);
}

}  // namespace
}  // namespace firehose
