// Micro-benchmark of the batched coverage kernel against the pre-change
// scalar path: per-entry masked ring indexing over an array-of-structs
// bin with per-entry counter increments (the loop every diversifier ran
// before src/core/coverage_kernel.h) versus the SoA lane-span
// XOR+popcount kernel, plus where a PermutedSimHashIndex probe overtakes
// the kernel's scan.
//
// Emits BENCH_micro_coverage_kernel.json via the bench_common atexit
// hook. Deterministic work counters (comparisons, covered counts) are
// byte-stable across runs and machines; wall-clock keys carry _ns/_pct
// suffixes and are compared fuzzily (or skipped) by tools/bench_compare.py.
// The headline `scan.speedup_pct` gauge carries the CI hard floor
// (--require scan.speedup_pct>=300: the SIMD kernel must at least
// triple candidate-check throughput over the pre-SoA loop) while the
// committed baseline records the measured value under FIREHOSE_KERNEL=
// avx2, the widest variant CI runners reliably execute. The kernel side
// runs whatever variant runtime dispatch resolves (or FIREHOSE_KERNEL
// forces), so CI re-runs this bench once per variant; the deterministic
// counter keys are identical across variants by the dispatch contract.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/kernels/dispatch.h"
#include "src/util/timer.h"

namespace firehose {
namespace bench {
namespace {

/// The pre-change bin layout: one array of full entries walked with a
/// masked ring index. Reconstructed here so the comparison measures the
/// kernel against what the diversifiers actually did before, not against
/// a strawman.
struct AosBin {
  std::vector<BinEntry> entries;  // power-of-two ring
  size_t head = 0;
  size_t size = 0;
  size_t mask = 0;

  static AosBin FromPostBin(const PostBin& bin) {
    AosBin aos;
    size_t capacity = 1;
    while (capacity < bin.size()) capacity *= 2;
    aos.entries.resize(capacity);
    for (size_t i = 0; i < bin.size(); ++i) aos.entries[i] = bin.FromOldest(i);
    aos.size = bin.size();
    aos.mask = capacity - 1;
    return aos;
  }
};

/// Verbatim shape of the seed UniBin scan: newest-first, per-entry
/// gather + per-entry counter increment + CoversContentAndAuthor.
bool ScalarScan(const AosBin& bin, uint64_t simhash, AuthorId author,
                const DiversityThresholds& t, uint64_t* comparisons) {
  auto author_similar = [](AuthorId) { return false; };
  for (size_t i = 0; i < bin.size; ++i) {
    const BinEntry& entry = bin.entries[(bin.head + bin.size - 1 - i) & bin.mask];
    ++*comparisons;
    if (internal::CoversContentAndAuthor(entry, simhash, author, t,
                                         author_similar)) {
      return true;
    }
  }
  return false;
}

struct ProbeSet {
  std::vector<uint64_t> hashes;
  std::vector<AuthorId> authors;
};

/// Best (minimum) of 9 timed repetitions of `fn`. Minimum, not median:
/// scheduler noise on a shared core only ever *adds* time, so the
/// fastest rep is the closest estimate of the loop's true cost and the
/// most stable statistic run to run — the property the CI speedup gate
/// depends on.
template <typename Fn>
double BestMillis(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    WallTimer timer;
    fn();
    const double elapsed = timer.ElapsedMillis();
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Fills a bin with `size` in-window entries of clustered fingerprints
/// (the mutation pattern GenerateStream produces).
PostBin MakeBin(size_t size, Rng& rng) {
  PostBin bin;
  uint64_t base = rng.Next();
  for (size_t i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.02)) base = rng.Next();  // new content cluster
    uint64_t hash = base;
    const int flips = static_cast<int>(rng.UniformInt(6));
    for (int f = 0; f < flips; ++f) hash ^= 1ull << rng.UniformInt(64);
    bin.Push(BinEntry{static_cast<int64_t>(i), hash,
                      static_cast<AuthorId>(rng.UniformInt(512)),
                      static_cast<PostId>(i)});
  }
  return bin;
}

/// Mixed probe set: ~80% random fingerprints (all-miss full scans, the
/// worst case the kernel is built for) and ~20% mutated bin entries
/// (coverage fires part-way through the scan).
ProbeSet MakeProbes(const PostBin& bin, size_t count, Rng& rng) {
  ProbeSet probes;
  for (size_t i = 0; i < count; ++i) {
    if (rng.Bernoulli(0.2) && !bin.empty()) {
      const BinEntry entry = bin.FromOldest(rng.UniformInt(bin.size()));
      uint64_t hash = entry.simhash;
      const int flips = static_cast<int>(rng.UniformInt(4));
      for (int f = 0; f < flips; ++f) hash ^= 1ull << rng.UniformInt(64);
      probes.hashes.push_back(hash);
    } else {
      probes.hashes.push_back(rng.Next());
    }
    probes.authors.push_back(static_cast<AuthorId>(rng.UniformInt(512)));
  }
  return probes;
}

/// Probe budget of the permuted index: configurations needing more tables
/// than this cost more probes per query than the bench considers.
constexpr int kMaxTables = 64;

/// Largest block count B in (k, 64] whose table count C(B, k) fits in
/// `max_tables`, or -1 when even B = k + 1 does not. C(B, k) grows with
/// B while each table's exact-match prefix gains bits, so the largest
/// affordable B is the most selective index.
int LargestBlocksWithin(int max_distance, int max_tables) {
  int best = -1;
  for (int blocks = max_distance + 1; blocks <= 64; ++blocks) {
    const int64_t tables =
        PermutedSimHashIndex::TableCountFor(blocks, max_distance);
    if (tables < 0 || tables > max_tables) break;
    best = blocks;
  }
  return best;
}

void Run() {
  PrintBenchHeader(
      "micro_coverage_kernel", "DESIGN.md section 4f",
      "Candidate-check throughput: pre-change scalar AoS scan vs the "
      "batched SoA coverage kernel, and the permuted-index crossover.");

  obs::MetricsRegistry& m = BenchMetrics();
  DiversityThresholds t = PaperThresholds();  // lambda_c = 18
  auto author_similar = [](AuthorId) { return false; };

  const kernels::KernelDispatchReport& dispatch =
      kernels::GetKernelDispatchReport();
  std::printf("kernel dispatch: active=%s requested=%s best=%s compiled=%s\n",
              dispatch.active, dispatch.requested, dispatch.best,
              dispatch.compiled);

  std::printf("%-8s %14s %14s %12s\n", "bin", "scalar ns/cand", "kernel ns/cand",
              "speedup");
  int64_t headline_speedup_pct = 0;
  for (size_t size : {size_t{1024}, size_t{16384}, size_t{65536}}) {
    Rng rng(42 + size);
    const PostBin bin = MakeBin(size, rng);
    const AosBin aos = AosBin::FromPostBin(bin);
    const size_t num_probes = std::max<size_t>(64, (1u << 23) / size);
    const ProbeSet probes = MakeProbes(bin, num_probes, rng);
    const std::string label = "scan.n" + std::to_string(size);

    uint64_t scalar_comparisons = 0;
    uint64_t scalar_covered = 0;
    const double scalar_ms = BestMillis([&] {
      scalar_comparisons = 0;
      scalar_covered = 0;
      for (size_t p = 0; p < probes.hashes.size(); ++p) {
        scalar_covered += ScalarScan(aos, probes.hashes[p], probes.authors[p],
                                     t, &scalar_comparisons);
      }
    });

    uint64_t kernel_comparisons = 0;
    uint64_t kernel_pruned = 0;
    uint64_t kernel_covered = 0;
    const double kernel_ms = BestMillis([&] {
      kernel_comparisons = 0;
      kernel_pruned = 0;
      kernel_covered = 0;
      for (size_t p = 0; p < probes.hashes.size(); ++p) {
        const CoverageScanResult scan = ScanCoveredSimHash(
            bin, /*cutoff_ms=*/-1, probes.hashes[p], probes.authors[p], t,
            author_similar);
        kernel_comparisons += scan.comparisons;
        kernel_pruned += scan.pruned;
        kernel_covered += scan.covered ? 1 : 0;
      }
    });

    // The kernel is an optimization, not a semantic change: identical
    // decisions and identical comparison accounting, or the bench aborts.
    if (kernel_covered != scalar_covered ||
        kernel_comparisons != scalar_comparisons || kernel_pruned != 0) {
      std::fprintf(stderr,
                   "FATAL: kernel diverged from scalar at n=%zu "
                   "(covered %llu vs %llu, comparisons %llu vs %llu)\n",
                   size, static_cast<unsigned long long>(kernel_covered),
                   static_cast<unsigned long long>(scalar_covered),
                   static_cast<unsigned long long>(kernel_comparisons),
                   static_cast<unsigned long long>(scalar_comparisons));
      std::exit(1);
    }

    const double scalar_ns = scalar_ms * 1e6 / static_cast<double>(scalar_comparisons);
    const double kernel_ns = kernel_ms * 1e6 / static_cast<double>(kernel_comparisons);
    const int64_t speedup_pct =
        static_cast<int64_t>(scalar_ms / kernel_ms * 100.0);
    std::printf("%-8zu %14.3f %14.3f %11.2fx\n", size, scalar_ns, kernel_ns,
                scalar_ms / kernel_ms);

    // Deterministic counters (compared exactly against the baseline).
    m.GetCounter(label + ".comparisons")->Add(scalar_comparisons);
    m.GetCounter(label + ".covered")->Add(scalar_covered);
    m.GetCounter(label + ".probes")->Add(probes.hashes.size());
    // Wall-clock keys: fuzzy or skipped by the comparison script.
    m.GetGauge(label + ".scalar_ns_x1000", /*timing=*/true)
        ->Set(static_cast<int64_t>(scalar_ns * 1000.0));
    m.GetGauge(label + ".kernel_ns_x1000", /*timing=*/true)
        ->Set(static_cast<int64_t>(kernel_ns * 1000.0));
    m.GetGauge(label + ".speedup_pct")->Set(speedup_pct);
    headline_speedup_pct = speedup_pct;  // largest size wins the headline
  }
  // The CI regression gate reads this headline: 300 means the dispatched
  // kernel triples candidate-check throughput over the pre-change loop.
  m.GetGauge("scan.speedup_pct")->Set(headline_speedup_pct);
  std::printf("headline scan.speedup_pct: %lld\n",
              static_cast<long long>(headline_speedup_pct));

  // ------------------------------------------------------------------
  // Dispatch matrix: every variant this binary + CPU can run, timed on
  // the largest bin. Printed for the CI log only — per-variant JSON
  // artifacts come from re-running the whole bench under FIREHOSE_KERNEL,
  // so the metric key set stays identical across variants. The counter
  // cross-check doubles as a coarse online version of the differential
  // fuzz harness: a variant that diverges from scalar aborts the bench.
  {
    Rng rng(42 + 65536);
    const PostBin bin = MakeBin(65536, rng);
    const ProbeSet probes = MakeProbes(bin, 128, rng);
    std::printf("%-8s %14s %12s\n", "variant", "ns/cand", "vs scalar");
    double scalar_variant_ms = 0.0;
    uint64_t scalar_matrix_comparisons = 0;
    uint64_t scalar_matrix_covered = 0;
    for (const kernels::KernelOps* ops : kernels::AvailableKernelOps()) {
      uint64_t comparisons = 0;
      uint64_t covered = 0;
      const double variant_ms = BestMillis([&] {
        comparisons = 0;
        covered = 0;
        for (size_t p = 0; p < probes.hashes.size(); ++p) {
          const CoverageScanResult scan = ScanCoveredSimHashWithOps(
              *ops, bin, /*cutoff_ms=*/-1, probes.hashes[p],
              probes.authors[p], t, author_similar);
          comparisons += scan.comparisons;
          covered += scan.covered ? 1 : 0;
        }
      });
      if (ops->variant == kernels::KernelVariant::kScalar) {
        scalar_variant_ms = variant_ms;
        scalar_matrix_comparisons = comparisons;
        scalar_matrix_covered = covered;
      } else if (comparisons != scalar_matrix_comparisons ||
                 covered != scalar_matrix_covered) {
        std::fprintf(stderr, "FATAL: variant %s diverged from scalar\n",
                     ops->name);
        std::exit(1);
      }
      std::printf("%-8s %14.3f %11.2fx\n", ops->name,
                  variant_ms * 1e6 / static_cast<double>(comparisons),
                  scalar_variant_ms / variant_ms);
    }
  }

  // ------------------------------------------------------------------
  // Permuted SimHash index (section 3): at a small lambda_c one probe of
  // the index answers the content dimension; measure where a probe plus
  // a check of each candidate overtakes the dispatched kernel's scan
  // (DESIGN.md section 4f records the crossover).
  DiversityThresholds small = t;
  small.lambda_c = 3;
  const int small_blocks = LargestBlocksWithin(small.lambda_c, kMaxTables);
  int64_t crossover = 0;
  for (size_t size : {size_t{256}, size_t{1024}, size_t{4096}, size_t{16384},
                      size_t{65536}}) {
    Rng rng(7 + size);
    const PostBin bin = MakeBin(size, rng);
    const ProbeSet probes = MakeProbes(bin, std::max<size_t>(64, (1u << 21) / size), rng);

    uint64_t scalar_covered = 0;
    const double scalar_ms = BestMillis([&] {
      scalar_covered = 0;
      for (size_t p = 0; p < probes.hashes.size(); ++p) {
        const CoverageScanResult scan =
            ScanCoveredSimHash(bin, -1, probes.hashes[p], probes.authors[p],
                               small, author_similar);
        scalar_covered += scan.covered ? 1 : 0;
      }
    });

    PermutedSimHashIndex index(small_blocks, small.lambda_c, kMaxTables);
    for (size_t i = 0; i < bin.size(); ++i) {
      index.Insert(bin.FromOldest(i).simhash, i);
    }
    index.Build();
    uint64_t indexed_covered = 0;
    uint64_t candidates = 0;
    const double indexed_ms = BestMillis([&] {
      indexed_covered = 0;
      candidates = 0;
      for (size_t p = 0; p < probes.hashes.size(); ++p) {
        for (uint64_t id : index.Query(probes.hashes[p])) {
          ++candidates;
          const BinEntry entry = bin.FromOldest(static_cast<size_t>(id));
          if (internal::CoversContentAndAuthor(entry, probes.hashes[p],
                                               probes.authors[p], small,
                                               author_similar)) {
            ++indexed_covered;
            break;
          }
        }
      }
    });
    // The index is exact, so it must agree with the scan on every probe.
    if (indexed_covered != scalar_covered) {
      std::fprintf(stderr,
                   "FATAL: permuted index diverged from the scan at n=%zu "
                   "(covered %llu vs %llu)\n",
                   size, static_cast<unsigned long long>(indexed_covered),
                   static_cast<unsigned long long>(scalar_covered));
      std::exit(1);
    }
    std::printf("index n=%-7zu scalar %8.3f ms  indexed %8.3f ms  candidates %llu\n",
                size, scalar_ms, indexed_ms,
                static_cast<unsigned long long>(candidates));
    if (crossover == 0 && indexed_ms < scalar_ms) {
      crossover = static_cast<int64_t>(size);
    }
  }
  // Timing-dependent: recorded for the DESIGN.md constant, compared
  // fuzzily (name contains "crossover").
  m.GetGauge("index.crossover_size")->Set(crossover);
  std::printf("index crossover size (lambda_c=3): %lld\n",
              static_cast<long long>(crossover));

  // The paper's production lambda_c = 18 defeats the Manku structure
  // (section 3): every block count within the table budget keeps at
  // least as many tables T as its p-bit prefix has values, so a probe
  // examines ~T*n/2^p >= n candidates and cannot prune.
  int64_t lambda18_feasible = 0;
  const int max_blocks = LargestBlocksWithin(t.lambda_c, kMaxTables);
  for (int blocks = t.lambda_c + 1; blocks <= max_blocks; ++blocks) {
    const PermutedSimHashIndex index(blocks, t.lambda_c, kMaxTables);
    if (index.valid() &&
        (index.PrefixBits() >= 63 ||
         static_cast<uint64_t>(index.NumTables()) <
             (uint64_t{1} << index.PrefixBits()))) {
      lambda18_feasible = 1;
    }
  }
  m.GetGauge("index.lambda18_feasible")->Set(lambda18_feasible);
  std::printf("lambda_c=18 index feasible: %lld (expected 0)\n",
              static_cast<long long>(lambda18_feasible));
}

}  // namespace
}  // namespace bench
}  // namespace firehose

int main() {
  firehose::bench::Run();
  return 0;
}
