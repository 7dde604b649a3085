#ifndef FIREHOSE_FIREHOSE_H_
#define FIREHOSE_FIREHOSE_H_

/// \file
/// Umbrella header for the firehose library: multi-dimensional (content,
/// time, author) diversification of social post streams, reproducing
/// Cheng, Chrobak & Hristidis, "Slowing the Firehose" (EDBT 2016).
///
/// Typical single-user flow:
///
///   FollowGraph social = GenerateSocialGraph({...});          // or real data
///   auto pairs = AllPairsSimilarity(social, authors, 0.3);
///   AuthorGraph g = AuthorGraph::FromSimilarities(authors, pairs, 0.7);
///   SimHasher hasher;
///   DiversityThresholds t;                                    // λc, λt, λa
///   auto diversifier = MakeDiversifier(Algorithm::kCliqueBin, t, &g);
///   for (const Post& p : stream)
///     if (diversifier->Offer(p)) Show(p);                     // p joins Z

#include "src/author/clique_cover.h"
#include "src/author/dynamic_cover.h"
#include "src/author/follow_graph.h"
#include "src/author/similarity.h"
#include "src/author/similarity_graph.h"
#include "src/core/cosine_unibin.h"
#include "src/core/cost_model.h"
#include "src/core/coverage_kernel.h"
#include "src/core/diversifier.h"
#include "src/core/engine.h"
#include "src/core/lagged.h"
#include "src/core/multi_user.h"
#include "src/core/thresholds.h"
#include "src/dur/checkpoint.h"
#include "src/dur/durable.h"
#include "src/dur/fault.h"
#include "src/dur/file_ops.h"
#include "src/dur/framing.h"
#include "src/dur/wal.h"
#include "src/eval/experiment.h"
#include "src/eval/precision_recall.h"
#include "src/gen/labeled_pairs.h"
#include "src/io/binary.h"
#include "src/io/http.h"
#include "src/io/persist.h"
#include "src/io/socket.h"
#include "src/net/client.h"
#include "src/net/placement.h"
#include "src/net/proto.h"
#include "src/net/server.h"
#include "src/obs/clock.h"
#include "src/obs/debug_server.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/obs/log_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/runtime/pipeline.h"
#include "src/runtime/sharded.h"
#include "src/gen/social_graph_gen.h"
#include "src/gen/stream_gen.h"
#include "src/gen/text_gen.h"
#include "src/simhash/minhash.h"
#include "src/simhash/permuted_index.h"
#include "src/simhash/simhash.h"
#include "src/stream/post.h"
#include "src/stream/post_bin.h"
#include "src/stream/stats.h"
#include "src/text/abbrev.h"
#include "src/text/normalize.h"
#include "src/text/tf_vector.h"
#include "src/text/tokenize.h"
#include "src/text/url.h"
#include "src/util/binary.h"
#include "src/util/bitops.h"
#include "src/util/build_info.h"
#include "src/util/crc32c.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/table.h"
#include "src/util/timer.h"

#endif  // FIREHOSE_FIREHOSE_H_
