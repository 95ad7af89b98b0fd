// Differential battery for the coverage kernels: every dispatch level
// (scalar / word / AVX2 when the build and CPU provide it) must produce
// BIT-identical doubles to the scalar oracle — per GainOf call, per
// AddNode update, and end to end through all four greedy executions.
// No tolerances anywhere: the contract is byte equality, which is what
// makes solutions independent of the host CPU.
//
// Also covered: ragged in-edge counts (0, 1, and non-multiple-of-4/8
// tails, straddling the 64-bit word boundary at 63/64/65), the
// PREFCOVER_SIMD_LEVEL hook reaching CoverState, ClampKernelLevel
// demotion, and Reset/RefreshResiduals re-establishing the fresh-
// subtraction invariant.

#include "core/coverage_kernels.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover_state.h"
#include "core/greedy_solver.h"
#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "util/random.h"
#include "util/simd_dispatch.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

constexpr uint64_t kNumSeeds = 50;

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar, SimdLevel::kWord};
  if (MaxSupportedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

// Exact bit equality for doubles: distinguishes +0.0 from -0.0 and makes
// the failure message show the raw patterns.
::testing::AssertionResult BitsEqual(double expected, double actual) {
  const uint64_t e = std::bit_cast<uint64_t>(expected);
  const uint64_t a = std::bit_cast<uint64_t>(actual);
  if (e == a) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected " << expected << " (0x" << std::hex << e << ") got "
         << actual << " (0x" << a << ")";
}

// Derives a deterministic instance from (seed, variant), mirroring the
// greedy equivalence suite's shapes: 40-200 nodes, varying degree and
// popularity skew.
PreferenceGraph MakeSeededGraph(uint64_t seed, Variant variant) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  UniformGraphParams params;
  params.num_nodes = static_cast<uint32_t>(40 + (seed * 13) % 160);
  params.out_degree = static_cast<uint32_t>(3 + seed % 6);
  params.popularity_skew = 0.4 + 0.4 * static_cast<double>(seed % 4);
  params.normalized_out_weights = variant == Variant::kNormalized;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// A graph whose "hub" nodes carry exactly the requested in-degrees —
// 0, 1 and the word/vector boundary cases (non-multiple-of-4/8 tails,
// 63/64/65 straddling a bitset word, and one multi-word case).
constexpr size_t kHubDegrees[] = {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 100};

struct RaggedGraph {
  PreferenceGraph graph;
  std::vector<NodeId> hubs;     // hubs[i] has in-degree kHubDegrees[i]
  std::vector<NodeId> sources;  // in-degree 0, out-edges into the hubs
};

RaggedGraph MakeRaggedGraph() {
  constexpr size_t kNumSources = 100;  // == max hub degree
  GraphBuilder b;
  RaggedGraph out{PreferenceGraph{}, {}, {}};
  for (size_t d = 0; d < std::size(kHubDegrees); ++d) {
    out.hubs.push_back(b.AddNode(1.0, "hub" + std::to_string(d)));
  }
  for (size_t s = 0; s < kNumSources; ++s) {
    out.sources.push_back(b.AddNode(1.0, "src" + std::to_string(s)));
  }
  // Hub d draws its in-edges from sources 0..degree-1, so source s fans
  // out to every hub with degree > s. Source 0 has the max out-degree
  // (12 edges); 0.08 per edge keeps every out-weight sum under 1 for the
  // Normalized variant.
  for (size_t d = 0; d < std::size(kHubDegrees); ++d) {
    for (size_t s = 0; s < kHubDegrees[d]; ++s) {
      const double w = 0.08 - 0.0001 * static_cast<double>(s % 7);
      EXPECT_TRUE(b.AddEdge(out.sources[s], out.hubs[d], w).ok());
    }
  }
  EXPECT_TRUE(b.NormalizeNodeWeights().ok());
  auto g = b.Finalize();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  out.graph = std::move(g).value();
  return out;
}

// Replays one random AddNode order through a scalar-oracle state and a
// state at `level`, asserting bit-identical GainOf for every non-retained
// node and bit-identical cover / item contributions after every add.
void RunLockstepDifferential(const PreferenceGraph& g, Variant variant,
                             SimdLevel level,
                             const std::vector<NodeId>& add_order,
                             const std::string& label) {
  CoverState oracle(&g, variant, SimdLevel::kScalar);
  CoverState fast(&g, variant, level);
  ASSERT_EQ(oracle.simd_level(), SimdLevel::kScalar);
  ASSERT_EQ(fast.simd_level(), level) << label;

  for (size_t step = 0; step <= add_order.size(); ++step) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (oracle.IsRetained(v)) continue;
      ASSERT_TRUE(BitsEqual(oracle.GainOf(v), fast.GainOf(v)))
          << label << " GainOf(" << v << ") step " << step;
    }
    if (step == add_order.size()) break;
    const NodeId v = add_order[step];
    oracle.AddNode(v);
    fast.AddNode(v);
    ASSERT_TRUE(BitsEqual(oracle.cover(), fast.cover()))
        << label << " cover after step " << step;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      ASSERT_TRUE(BitsEqual(oracle.item_contributions()[u],
                            fast.item_contributions()[u]))
          << label << " I[" << u << "] after step " << step;
    }
  }
}

class KernelDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Variant, SimdLevel>> {
 protected:
  Variant variant() const { return std::get<0>(GetParam()); }
  SimdLevel level() const { return std::get<1>(GetParam()); }

  // AVX2 rows are instantiated unconditionally so the suite shape is
  // stable; on builds/CPUs without AVX2 they verify the clamp instead.
  bool LevelRunnable() const {
    return level() <= MaxSupportedSimdLevel();
  }
};

TEST_P(KernelDifferentialTest, GainAndAddNodeMatchOracleOnSeededGraphs) {
  if (!LevelRunnable()) {
    GTEST_SKIP() << "level not supported by this build/CPU";
  }
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    PreferenceGraph g = MakeSeededGraph(seed, variant());
    Rng rng(seed + 31);
    std::vector<NodeId> shuffled(g.NumNodes());
    for (NodeId v = 0; v < g.NumNodes(); ++v) shuffled[v] = v;
    rng.Shuffle(&shuffled);
    const std::vector<NodeId> order(
        shuffled.begin(),
        shuffled.begin() +
            static_cast<ptrdiff_t>(std::min<size_t>(shuffled.size(), 24)));
    RunLockstepDifferential(
        g, variant(), level(), order,
        "seed=" + std::to_string(seed) + " n=" +
            std::to_string(g.NumNodes()) + " level=" +
            std::string(SimdLevelName(level())));
  }
}

TEST_P(KernelDifferentialTest, RaggedInDegreesMatchOracle) {
  if (!LevelRunnable()) {
    GTEST_SKIP() << "level not supported by this build/CPU";
  }
  RaggedGraph ragged = MakeRaggedGraph();
  // Retain a spread of sources first (so gathers hit retained words with
  // mixed bits), then the hubs themselves, largest degree first.
  std::vector<NodeId> order;
  for (size_t s = 0; s < ragged.sources.size(); s += 3) {
    order.push_back(ragged.sources[s]);
  }
  for (size_t d = std::size(kHubDegrees); d-- > 0;) {
    order.push_back(ragged.hubs[d]);
  }
  RunLockstepDifferential(ragged.graph, variant(), level(), order,
                          std::string("ragged level=") +
                              std::string(SimdLevelName(level())));
}

TEST_P(KernelDifferentialTest, ResetRestoresBitIdenticalGains) {
  if (!LevelRunnable()) {
    GTEST_SKIP() << "level not supported by this build/CPU";
  }
  PreferenceGraph g = MakeSeededGraph(3, variant());
  CoverState fresh(&g, variant(), level());
  CoverState cycled(&g, variant(), level());
  for (NodeId v = 0; v < 20; ++v) cycled.AddNode(v);
  cycled.Reset();  // exercises RefreshResidualsKernel at this level
  EXPECT_TRUE(BitsEqual(fresh.cover(), cycled.cover()));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_TRUE(BitsEqual(fresh.GainOf(v), cycled.GainOf(v)))
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndLevels, KernelDifferentialTest,
    ::testing::Combine(::testing::Values(Variant::kIndependent,
                                         Variant::kNormalized),
                       ::testing::Values(SimdLevel::kScalar, SimdLevel::kWord,
                                         SimdLevel::kAvx2)),
    [](const auto& param_info) {
      return std::string(VariantName(std::get<0>(param_info.param))) + "_" +
             std::string(SimdLevelName(std::get<1>(param_info.param)));
    });

// ---------------------------------------------------------------------
// End-to-end: all four greedy executions, forced to each level via the
// PREFCOVER_SIMD_LEVEL hook, produce Solutions byte-identical to the
// scalar run — items, per-prefix covers, final cover and the I array.

class ScopedSimdLevelEnv {
 public:
  explicit ScopedSimdLevelEnv(const char* value) {
    const char* old = std::getenv("PREFCOVER_SIMD_LEVEL");
    if (old != nullptr) saved_ = old;
    ::setenv("PREFCOVER_SIMD_LEVEL", value, 1);
    ReinitActiveSimdLevelForTest();
  }
  ~ScopedSimdLevelEnv() {
    if (!saved_.empty()) {
      ::setenv("PREFCOVER_SIMD_LEVEL", saved_.c_str(), 1);
    } else {
      ::unsetenv("PREFCOVER_SIMD_LEVEL");
    }
    ReinitActiveSimdLevelForTest();
  }

 private:
  std::string saved_;
};

void ExpectSolutionsIdentical(const Solution& reference,
                              const Solution& other,
                              const std::string& label) {
  EXPECT_EQ(reference.items, other.items)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.cover_after_prefix, other.cover_after_prefix)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.cover, other.cover)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.item_contributions, other.item_contributions)
      << label << " [" << other.algorithm << "]";
}

struct LevelSolutions {
  Solution plain, lazy, parallel, lazy_parallel;
};

LevelSolutions SolveAllExecutions(const PreferenceGraph& g, size_t k,
                                  Variant variant, ThreadPool* pool,
                                  const std::string& label) {
  GreedyOptions options;
  options.variant = variant;
  LevelSolutions out;
  auto plain = SolveGreedy(g, k, options);
  auto lazy = SolveGreedyLazy(g, k, options);
  auto parallel = SolveGreedyParallel(g, k, pool, options);
  GreedyOptions batched = options;
  auto lazy_parallel = SolveGreedyLazyParallel(g, k, pool, batched);
  EXPECT_TRUE(plain.ok() && lazy.ok() && parallel.ok() &&
              lazy_parallel.ok())
      << label;
  out.plain = std::move(plain).value();
  out.lazy = std::move(lazy).value();
  out.parallel = std::move(parallel).value();
  out.lazy_parallel = std::move(lazy_parallel).value();
  return out;
}

TEST(KernelSolverDifferentialTest,
     AllExecutionsByteIdenticalAcrossDispatchLevels) {
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const Variant variant =
        seed % 2 == 0 ? Variant::kIndependent : Variant::kNormalized;
    PreferenceGraph g = MakeSeededGraph(seed, variant);
    const size_t k = std::max<size_t>(1, g.NumNodes() / 4);
    const std::string label = "seed=" + std::to_string(seed) +
                              " n=" + std::to_string(g.NumNodes()) +
                              " k=" + std::to_string(k);

    LevelSolutions reference;
    {
      ScopedSimdLevelEnv env("scalar");
      reference = SolveAllExecutions(g, k, variant, &pool, label);
      // The scalar run is internally consistent across executions.
      ExpectSolutionsIdentical(reference.plain, reference.lazy, label);
      ExpectSolutionsIdentical(reference.plain, reference.parallel, label);
      ExpectSolutionsIdentical(reference.plain, reference.lazy_parallel,
                               label);
    }
    for (SimdLevel level : SupportedLevels()) {
      if (level == SimdLevel::kScalar) continue;
      ScopedSimdLevelEnv env(std::string(SimdLevelName(level)).c_str());
      const std::string level_label =
          label + " level=" + std::string(SimdLevelName(level));
      LevelSolutions fast = SolveAllExecutions(g, k, variant, &pool,
                                               level_label);
      ExpectSolutionsIdentical(reference.plain, fast.plain, level_label);
      ExpectSolutionsIdentical(reference.plain, fast.lazy, level_label);
      ExpectSolutionsIdentical(reference.plain, fast.parallel, level_label);
      ExpectSolutionsIdentical(reference.plain, fast.lazy_parallel,
                               level_label);
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch plumbing.

TEST(KernelDispatchTest, CoverStateHonorsEnvOverride) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevelEnv env(std::string(SimdLevelName(level)).c_str());
    CoverState state(&g, Variant::kIndependent);
    EXPECT_EQ(state.simd_level(), level) << SimdLevelName(level);
  }
}

TEST(KernelDispatchTest, UnsupportedEnvOverrideFallsBackAndStaysCorrect) {
  // Request the highest level by name on every build: where it is not
  // supported the state must clamp, and either way it must agree with
  // the scalar oracle.
  PreferenceGraph g = MakeSeededGraph(2, Variant::kNormalized);
  ScopedSimdLevelEnv env("avx2");
  CoverState state(&g, Variant::kNormalized);
  EXPECT_LE(state.simd_level(), MaxSupportedSimdLevel());
  CoverState oracle(&g, Variant::kNormalized, SimdLevel::kScalar);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_TRUE(BitsEqual(oracle.GainOf(v), state.GainOf(v))) << v;
  }
}

TEST(KernelDispatchTest, ClampKeepsScalarAndWordVerbatim) {
  for (size_t n : {size_t{0}, size_t{100}, size_t{1} << 32}) {
    EXPECT_EQ(ClampKernelLevel(SimdLevel::kScalar, n), SimdLevel::kScalar);
    EXPECT_EQ(ClampKernelLevel(SimdLevel::kWord, n), SimdLevel::kWord);
  }
}

TEST(KernelDispatchTest, ClampDemotesAvx2OnHugeInstances) {
  // The AVX2 gathers use signed 32-bit indices; at >= 2^31 nodes the
  // kernel level must degrade to word regardless of CPU support.
  EXPECT_EQ(ClampKernelLevel(SimdLevel::kAvx2, size_t{1} << 31),
            SimdLevel::kWord);
  EXPECT_EQ(ClampKernelLevel(SimdLevel::kAvx2, 100),
            MaxSupportedSimdLevel());
}

TEST(KernelDispatchTest, StaticGainTableMatchesReferenceProducts) {
  PreferenceGraph g = MakeSeededGraph(5, Variant::kNormalized);
  std::vector<double> table = BuildStaticGainTable(g);
  ASSERT_EQ(table.size(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const auto in = g.InNeighbors(v);
    const size_t base = g.InEdgeOffset(v);
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_TRUE(BitsEqual(g.NodeWeight(in.nodes[i]) * in.weights[i],
                            table[base + i]))
          << "edge " << base + i;
    }
  }
}

}  // namespace
}  // namespace prefcover
