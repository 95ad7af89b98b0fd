// Differential test harness for the four executions of Algorithm 1.
//
// The contract under test: SolveGreedy, SolveGreedyParallel,
// SolveGreedyLazy and SolveGreedyLazyParallel select byte-identical
// retained sequences and covers on every instance — for any thread count
// (which is also the lazy-parallel shard count), with and without
// force_include / force_exclude / stop_at_cover. ~50 seeded random graphs
// (Zipf node weights, both variants, varying k/n) plus one instance with
// fewer live candidates than the widest pool are swept against thread
// counts {1, 2, 8}.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

constexpr size_t kNumSeeds = 50;
constexpr size_t kThreadCounts[] = {1, 2, 8};

struct DiffInstance {
  PreferenceGraph graph;
  size_t k = 0;
  GreedyOptions options;
  std::string label;
};

// Derives a deterministic instance from the seed: graph shape, variant,
// budget and constraint mix all vary with it.
DiffInstance MakeInstance(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  UniformGraphParams params;
  params.num_nodes = static_cast<uint32_t>(40 + (seed * 13) % 160);
  params.out_degree = static_cast<uint32_t>(3 + seed % 6);
  params.popularity_skew = 0.4 + 0.4 * static_cast<double>(seed % 4);
  Variant variant = seed % 2 == 0 ? Variant::kIndependent
                                  : Variant::kNormalized;
  params.normalized_out_weights = variant == Variant::kNormalized;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok()) << g.status().ToString();

  DiffInstance instance{std::move(g).value(), 0, {}, {}};
  const size_t n = instance.graph.NumNodes();
  instance.k = std::max<size_t>(1, n * (5 + (seed * 7) % 40) / 100);
  instance.options.variant = variant;
  instance.label = "seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n) +
                   " k=" + std::to_string(instance.k);

  // Every third instance carries constraints; every third of those also
  // stops early at a coverage threshold.
  if (seed % 3 != 0) {
    const size_t forced = std::min<size_t>(instance.k / 2, 1 + seed % 4);
    const size_t banned = 2 + seed % 5;
    std::vector<uint32_t> draw = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(n), static_cast<uint32_t>(forced + banned));
    instance.options.force_include.assign(draw.begin(),
                                          draw.begin() +
                                              static_cast<ptrdiff_t>(forced));
    instance.options.force_exclude.assign(
        draw.begin() + static_cast<ptrdiff_t>(forced), draw.end());
    instance.label += " constrained";
  }
  if (seed % 3 == 2) {
    instance.options.stop_at_cover = 0.3 + 0.1 * static_cast<double>(seed % 5);
    instance.label += " stop_at_cover";
  }
  return instance;
}

// Fewer live candidates (6) than the widest pool (8): the sharded lazy
// solve then has empty shards, the first of them [0, 0).
DiffInstance MakeFewCandidatesInstance() {
  Rng rng(4242);
  UniformGraphParams params;
  params.num_nodes = 7;
  params.out_degree = 3;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  DiffInstance instance{std::move(g).value(), 5, {}, "few-candidates n=7 k=5"};
  instance.options.force_exclude = {3};
  return instance;
}

void ExpectIdentical(const Solution& reference, const Solution& other,
                     const std::string& label) {
  // Byte-identical sequences: same items in the same order, and the same
  // incremental covers bit for bit (all executions apply the identical
  // AddNode sequence, so no float tolerance is needed or granted).
  EXPECT_EQ(reference.items, other.items)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.cover_after_prefix, other.cover_after_prefix)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.cover, other.cover)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.item_contributions, other.item_contributions)
      << label << " [" << other.algorithm << "]";
}

TEST(GreedyDifferentialTest, AllExecutionsAgreeOnSeededRandomGraphs) {
  ThreadPool pool1(1), pool2(2), pool8(8);
  ThreadPool* pools[] = {&pool1, &pool2, &pool8};

  for (uint64_t seed = 0; seed <= kNumSeeds; ++seed) {
    DiffInstance instance =
        seed < kNumSeeds ? MakeInstance(seed) : MakeFewCandidatesInstance();
    const std::string& label = instance.label;

    auto plain = SolveGreedy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(plain.ok()) << label << ": " << plain.status().ToString();
    ASSERT_TRUE(plain->Validate(instance.graph).ok()) << label;

    auto lazy = SolveGreedyLazy(instance.graph, instance.k,
                                instance.options);
    ASSERT_TRUE(lazy.ok()) << label;
    ExpectIdentical(*plain, *lazy, label);

    for (size_t t = 0; t < 3; ++t) {
      ThreadPool* pool = pools[t];
      auto parallel = SolveGreedyParallel(instance.graph, instance.k, pool,
                                          instance.options);
      ASSERT_TRUE(parallel.ok())
          << label << " threads=" << kThreadCounts[t];
      ExpectIdentical(*plain, *parallel,
                      label + " threads=" +
                          std::to_string(kThreadCounts[t]));

      auto lazy_parallel = SolveGreedyLazyParallel(
          instance.graph, instance.k, pool, instance.options);
      ASSERT_TRUE(lazy_parallel.ok())
          << label << " threads=" << kThreadCounts[t];
      ExpectIdentical(*plain, *lazy_parallel,
                      label + " threads=" +
                          std::to_string(kThreadCounts[t]));
    }

    // Constraint semantics hold on every instance that carries them.
    for (size_t i = 0; i < instance.options.force_include.size(); ++i) {
      ASSERT_LT(i, plain->items.size()) << label;
      EXPECT_EQ(plain->items[i], instance.options.force_include[i]) << label;
    }
    for (NodeId banned : instance.options.force_exclude) {
      EXPECT_EQ(std::count(plain->items.begin(), plain->items.end(), banned),
                0)
          << label;
    }
  }
}

TEST(GreedyDifferentialTest, LazyParallelWithNullPoolMatchesPlain) {
  DiffInstance instance = MakeInstance(11);
  auto plain = SolveGreedy(instance.graph, instance.k, instance.options);
  auto lazy_parallel = SolveGreedyLazyParallel(instance.graph, instance.k,
                                               nullptr, instance.options);
  ASSERT_TRUE(plain.ok() && lazy_parallel.ok());
  ExpectIdentical(*plain, *lazy_parallel, instance.label + " null-pool");
}

TEST(GreedyDifferentialTest, ThresholdSeedCapacitySweepMatchesPlain) {
  // The CELF heap seed keeps only the top-seed_heap_capacity candidates
  // and pulls the rest back in through exact threshold refills. Tiny
  // capacities force refills constantly (capacity 1 refills on every
  // heap drain); the selected sequence must stay byte-identical to plain
  // greedy for every value.
  ThreadPool pool(4);
  const size_t kCapacities[] = {1, 2, 7, 64};
  for (uint64_t seed = 0; seed < kNumSeeds; seed += 5) {
    DiffInstance instance = MakeInstance(seed);
    auto plain = SolveGreedy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(plain.ok()) << instance.label;

    for (size_t cap : kCapacities) {
      GreedyOptions options = instance.options;
      options.seed_heap_capacity = cap;
      const std::string label =
          instance.label + " seed_cap=" + std::to_string(cap);

      auto lazy = SolveGreedyLazy(instance.graph, instance.k, options);
      ASSERT_TRUE(lazy.ok()) << label;
      ExpectIdentical(*plain, *lazy, label);

      auto lazy_parallel = SolveGreedyLazyParallel(instance.graph,
                                                   instance.k, &pool,
                                                   options);
      ASSERT_TRUE(lazy_parallel.ok()) << label;
      ExpectIdentical(*plain, *lazy_parallel, label);

      // Capacity 1 drains the kept pool on every selection, so any run
      // with at least two searched rounds must have refilled — proving
      // the sweep actually exercises the refill path.
      if (cap == 1 && lazy->stats.iterations >= 2) {
        EXPECT_GT(lazy->stats.seed_refills, 0u) << label;
        EXPECT_GT(lazy_parallel->stats.seed_refills, 0u) << label;
      }
      // Full-capacity seeds never truncate, so they never refill.
      if (cap >= instance.graph.NumNodes()) {
        EXPECT_EQ(lazy->stats.seed_refills, 0u) << label;
      }
    }
  }
}

TEST(GreedyDifferentialTest, DefaultSeedCapacityCoversSmallInstances) {
  // Small instances (n <= 1024) fit entirely inside the default seed, so
  // the threshold machinery must stay dormant: no refills at all.
  DiffInstance instance = MakeInstance(6);  // unconstrained
  auto lazy = SolveGreedyLazy(instance.graph, instance.k, instance.options);
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(lazy->stats.seed_refills, 0u);
}

TEST(GreedyDifferentialTest, SolverStatsArePopulatedAndConsistent) {
  DiffInstance instance = MakeInstance(4);  // a constrained instance
  ThreadPool pool(2);
  GreedyOptions options = instance.options;

  auto plain = SolveGreedy(instance.graph, instance.k, options);
  auto parallel =
      SolveGreedyParallel(instance.graph, instance.k, &pool, options);
  auto lazy = SolveGreedyLazy(instance.graph, instance.k, options);
  auto lazy_parallel = SolveGreedyLazyParallel(instance.graph, instance.k,
                                               &pool, options);
  ASSERT_TRUE(plain.ok() && parallel.ok() && lazy.ok() &&
              lazy_parallel.ok());

  const uint64_t forced = options.force_include.size();
  for (const Solution* sol :
       {&*plain, &*parallel, &*lazy, &*lazy_parallel}) {
    EXPECT_EQ(sol->stats.iterations, sol->items.size() - forced)
        << sol->algorithm;
    EXPECT_GT(sol->stats.gain_evaluations, 0u) << sol->algorithm;
    EXPECT_GE(sol->stats.total_iteration_seconds, 0.0) << sol->algorithm;
    EXPECT_GE(sol->stats.total_iteration_seconds,
              sol->stats.max_iteration_seconds)
        << sol->algorithm;
  }

  // Plain and parallel evaluate the same candidate set each round.
  EXPECT_EQ(parallel->stats.gain_evaluations, plain->stats.gain_evaluations);
  EXPECT_EQ(parallel->stats.threads, 2u);

  // The lazy executions prune: never more evaluations than the full scan,
  // and their heap telemetry is filled in.
  EXPECT_LE(lazy->stats.gain_evaluations, plain->stats.gain_evaluations);
  EXPECT_LE(lazy_parallel->stats.gain_evaluations,
            plain->stats.gain_evaluations);
  EXPECT_GT(lazy->stats.heap_pops, 0u);
  EXPECT_GT(lazy_parallel->stats.heap_pops, 0u);
  EXPECT_GE(lazy->stats.StaleRatio(), 0.0);
  EXPECT_LE(lazy->stats.StaleRatio(), 1.0);
  EXPECT_EQ(lazy_parallel->stats.threads, 2u);
  EXPECT_GT(lazy_parallel->stats.parallel_batches, 0u);
  EXPECT_GT(lazy_parallel->stats.PoolUtilization(), 0.0);
  EXPECT_LE(lazy_parallel->stats.PoolUtilization(), 1.0);

  EXPECT_EQ(lazy_parallel->algorithm, "greedy-lazy-parallel");
}

}  // namespace
}  // namespace prefcover
