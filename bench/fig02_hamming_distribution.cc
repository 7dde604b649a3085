// Figure 2: distribution of SimHash Hamming distances between random
// post pairs — expected to be normal with mean 32.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

namespace firehose {
namespace bench {
namespace {

void Run() {
  PrintBenchHeader("fig02_hamming_distribution", "Paper Figure 2",
                   "Hamming distance distribution over random pairs of "
                   "synthetic posts (paper: normal, mean 32, bulk in 24-40).");

  TextGenerator text_gen(2016);
  const SimHasher hasher;
  const int corpus_size = 20000;
  std::vector<uint64_t> prints;
  prints.reserve(corpus_size);
  for (int i = 0; i < corpus_size; ++i) {
    prints.push_back(hasher.Fingerprint(text_gen.MakePost()));
  }

  // One bucket per possible distance, 0..64.
  std::array<uint64_t, 65> counts{};
  Rng rng(7);
  const int pairs = 200000;
  for (int i = 0; i < pairs; ++i) {
    const uint64_t a = prints[rng.UniformInt(prints.size())];
    const uint64_t b = prints[rng.UniformInt(prints.size())];
    ++counts[static_cast<size_t>(SimHashDistance(a, b))];
  }

  // ASCII bar chart over the nonzero range, bars scaled to 50 columns.
  size_t first = counts.size();
  size_t last = 0;
  uint64_t max_count = 0;
  double sum = 0.0;
  for (size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] == 0) continue;
    first = std::min(first, d);
    last = d;
    max_count = std::max(max_count, counts[d]);
    sum += static_cast<double>(d) * static_cast<double>(counts[d]);
  }
  for (size_t d = first; d <= last; ++d) {
    const int width = static_cast<int>(static_cast<double>(counts[d]) /
                                       static_cast<double>(max_count) * 50);
    std::printf("%2zu |%s %llu\n", d, std::string(width, '#').c_str(),
                static_cast<unsigned long long>(counts[d]));
  }
  const double total = static_cast<double>(pairs);
  const double mean = sum / total;
  double sq = 0.0;
  for (size_t d = 0; d < counts.size(); ++d) {
    const double delta = static_cast<double>(d) - mean;
    sq += delta * delta * static_cast<double>(counts[d]);
  }
  std::printf("\n");
  std::printf("pairs=%d  mean=%.2f (paper: 32)  stddev=%.2f\n",
              pairs, mean, std::sqrt(sq / total));
  double bulk = 0.0;
  for (size_t d = 24; d <= 40; ++d) {
    bulk += static_cast<double>(counts[d]) / total;
  }
  std::printf("fraction in [24, 40] = %.3f (paper: 'most of the "
              "distances')\n", bulk);
}

}  // namespace
}  // namespace bench
}  // namespace firehose

int main() {
  firehose::bench::Run();
  return 0;
}
