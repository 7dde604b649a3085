// firehose_generate: produce a synthetic workload on disk — the social
// (follower/followee) graph plus a one-day post stream — for use with
// firehose_precompute and firehose_diversify.
//
// Usage:
//   firehose_generate --authors=4000 --out_dir=/tmp/workload
//       [--communities=50] [--avg_followees=40] [--posts_per_author=10]
//       [--dup_prob=0.12] [--seed=2016] [--tsv]
//
// Writes <out_dir>/social.bin and <out_dir>/stream.bin (and stream.tsv
// with --tsv). The stream is generated against the λa=0.7 author graph so
// it contains realistic cross-author near-duplicates.

#include <cstdio>

#include "src/firehose.h"
#include "src/util/flags.h"

using namespace firehose;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto unknown = flags.UnknownFlags(
      {"authors", "out_dir", "communities", "avg_followees",
       "posts_per_author", "dup_prob", "seed", "tsv", "help"});
  if (!unknown.empty() || flags.Has("help")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr,
                 "usage: firehose_generate --authors=N --out_dir=DIR "
                 "[--communities=N] [--avg_followees=F] "
                 "[--posts_per_author=F] [--dup_prob=F] [--seed=N] [--tsv]\n");
    return unknown.empty() ? 0 : 2;
  }
  const std::string out_dir = flags.GetString("out_dir", ".");

  SocialGraphOptions graph_options;
  graph_options.num_authors =
      static_cast<uint32_t>(flags.GetInt("authors", 4000));
  graph_options.num_communities =
      static_cast<uint32_t>(flags.GetInt("communities", 50));
  graph_options.avg_followees = flags.GetDouble("avg_followees", 40.0);
  graph_options.popularity_exponent = 0.8;
  graph_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));

  std::printf("generating social graph: %u authors...\n",
              graph_options.num_authors);
  const FollowGraph social = GenerateSocialGraph(graph_options);
  if (!SaveFollowGraph(social, out_dir + "/social.bin")) {
    std::fprintf(stderr, "error: cannot write %s/social.bin\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf("computing author similarities for stream generation...\n");
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto pairs = AllPairsSimilarity(social, authors, 0.3, 1500);
  const AuthorGraph graph = AuthorGraph::FromSimilarities(authors, pairs, 0.7);

  StreamGenOptions stream_options;
  stream_options.posts_per_author = flags.GetDouble("posts_per_author", 10.0);
  stream_options.cross_author_dup_prob = flags.GetDouble("dup_prob", 0.12);
  stream_options.seed = graph_options.seed ^ 0x5151;
  std::printf("generating one-day stream...\n");
  const SimHasher hasher;
  const PostStream stream = GenerateStream(graph, hasher, stream_options);

  if (!SavePostStream(stream, out_dir + "/stream.bin")) {
    std::fprintf(stderr, "error: cannot write %s/stream.bin\n",
                 out_dir.c_str());
    return 1;
  }
  if (flags.GetBool("tsv", false) &&
      !SavePostStreamTsv(stream, out_dir + "/stream.tsv")) {
    std::fprintf(stderr, "error: cannot write %s/stream.tsv\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf(
      "wrote %s/social.bin (%llu follows) and %s/stream.bin (%zu posts)\n",
      out_dir.c_str(), static_cast<unsigned long long>(social.num_edges()),
      out_dir.c_str(), stream.size());
  return 0;
}
