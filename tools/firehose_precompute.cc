// firehose_precompute: the paper's offline phase. Loads a social graph,
// computes all-pairs author similarity, thresholds it at λa into the
// author similarity graph, builds the greedy clique edge cover, and
// persists everything for the online diversifier.
//
// Usage:
//   firehose_precompute --social=/tmp/w/social.bin --out_dir=/tmp/w
//       [--lambda_a=0.7] [--min_similarity=0.05] [--hub_cap=1500]
//
// Writes <out_dir>/similarities.bin, author_graph.bin, cover.bin.

#include <cstdio>

#include "src/firehose.h"
#include "src/util/flags.h"

using namespace firehose;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto unknown = flags.UnknownFlags(
      {"social", "out_dir", "lambda_a", "min_similarity", "hub_cap", "help"});
  if (!unknown.empty() || flags.Has("help") || !flags.Has("social")) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr,
                 "usage: firehose_precompute --social=PATH --out_dir=DIR "
                 "[--lambda_a=0.7] [--min_similarity=0.05] [--hub_cap=N]\n");
    return flags.Has("help") ? 0 : 2;
  }
  const std::string out_dir = flags.GetString("out_dir", ".");
  const double lambda_a = flags.GetDouble("lambda_a", 0.7);

  FollowGraph social;
  if (!LoadFollowGraph(flags.GetString("social", ""), &social)) {
    std::fprintf(stderr, "error: cannot load social graph\n");
    return 1;
  }
  std::printf("loaded social graph: %u authors, %llu follows\n",
              social.num_authors(),
              static_cast<unsigned long long>(social.num_edges()));

  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);

  WallTimer timer;
  const auto pairs = AllPairsSimilarity(
      social, authors, flags.GetDouble("min_similarity", 0.05),
      static_cast<size_t>(flags.GetInt("hub_cap", 1500)));
  std::printf("all-pairs similarity: %zu pairs in %.1fs\n", pairs.size(),
              timer.ElapsedSeconds());

  const AuthorGraph graph =
      AuthorGraph::FromSimilarities(authors, pairs, lambda_a);
  std::printf("author graph at lambda_a=%.2f: %llu edges, avg degree %.1f\n",
              lambda_a, static_cast<unsigned long long>(graph.num_edges()),
              graph.AvgDegree());

  timer.Restart();
  const CliqueCover cover = CliqueCover::Greedy(graph);
  std::printf(
      "greedy clique cover: %zu cliques, %.1f cliques/author, avg size "
      "%.1f in %.1fs\n",
      cover.num_cliques(), cover.AvgCliquesPerAuthor(), cover.AvgCliqueSize(),
      timer.ElapsedSeconds());

  if (!SaveSimilarities(pairs, out_dir + "/similarities.bin") ||
      !SaveAuthorGraph(graph, out_dir + "/author_graph.bin") ||
      !SaveCliqueCover(cover, graph.num_vertices(), out_dir + "/cover.bin")) {
    std::fprintf(stderr, "error: cannot write outputs to %s\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf("wrote %s/{similarities,author_graph,cover}.bin\n",
              out_dir.c_str());
  return 0;
}
