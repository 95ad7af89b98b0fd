// Brute-force differential lockdown of the constrained solver: on 40
// seeded small instances x 2 variants x {budget-only, quota-only,
// budget+quota}, the cost-ratio greedy must (a) return a feasible
// solution whenever the exhaustive enumeration finds one, (b) agree with
// it on infeasibility, (c) stay within the proven (1-1/e)/2 factor of
// the optimal constrained cover, and (d) produce byte-identical output
// at every supported SIMD level (scalar is the oracle).
//
// Instances stay at n <= 14 (2^14 subsets) with exactly-representable
// quarter-step costs so budget feasibility carries no rounding noise. An
// extra n = 20,000 instance truncates the seed: it checks (d) there, and
// the cost-keyed walk's early exit against an exhaustive ratio greedy.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_solver.h"
#include "core/constrained_solver.h"
#include "core/cover_state.h"
#include "graph/graph_generators.h"
#include "util/random.h"
#include "util/simd_dispatch.h"

namespace prefcover {
namespace {

constexpr uint64_t kNumSeeds = 40;
// Khuller-Moss-Naor: ratio greedy + best singleton is a (1-1/e)/2
// approximation of the budgeted optimum. Quota instances are locked to
// the same factor empirically (seeds are pinned, so this cannot flake).
constexpr double kGuarantee = 0.3160602794142788;  // (1 - 1/e) / 2

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

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar, SimdLevel::kWord};
  if (MaxSupportedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

PreferenceGraph MakeTinyGraph(uint64_t seed, Variant variant) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  UniformGraphParams params;
  params.num_nodes = static_cast<uint32_t>(8 + seed % 7);  // 8..14
  params.out_degree = static_cast<uint32_t>(2 + seed % 3);
  params.popularity_skew = 0.3 * static_cast<double>(seed % 4);
  params.normalized_out_weights = variant == Variant::kNormalized;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

std::vector<double> QuarterStepCosts(size_t n, Rng* rng) {
  std::vector<double> costs(n);
  for (double& c : costs) {
    c = 0.25 * static_cast<double>(1 + rng->NextUint64() % 16);
  }
  return costs;
}

enum class Combo { kBudgetOnly, kQuotaOnly, kBudgetAndQuota };

const char* ComboName(Combo combo) {
  switch (combo) {
    case Combo::kBudgetOnly:
      return "budget";
    case Combo::kQuotaOnly:
      return "quota";
    case Combo::kBudgetAndQuota:
      return "budget+quota";
  }
  return "?";
}

ConstraintSpec MakeSpec(const PreferenceGraph& graph, uint64_t seed,
                        Combo combo) {
  Rng rng(seed * 77 + static_cast<uint64_t>(combo));
  const size_t n = graph.NumNodes();
  ConstraintSpec spec;
  if (combo != Combo::kQuotaOnly) {
    spec.costs = QuarterStepCosts(n, &rng);
    double total = 0.0;
    for (double c : spec.costs) total += c;
    // 20%..65% of the catalog cost, quarter-aligned so sums compare
    // exactly against it.
    spec.budget =
        0.25 *
        static_cast<double>(static_cast<uint64_t>(
            total * (0.2 + 0.15 * static_cast<double>(seed % 4)) / 0.25));
  }
  if (combo != Combo::kBudgetOnly) {
    const uint32_t num_categories =
        static_cast<uint32_t>(2 + rng.NextUint64() % 2);
    spec.categories.resize(n);
    for (size_t v = 0; v < n; ++v) {
      spec.categories[v] = static_cast<uint32_t>(
          (v * 2654435761u + seed) % num_categories);
    }
    spec.quotas.resize(num_categories);
    for (auto& q : spec.quotas) {
      q.min_items = static_cast<uint32_t>(rng.NextUint64() % 2);
      if (rng.NextUint64() % 2 == 0) {
        q.max_items = static_cast<uint32_t>(1 + rng.NextUint64() % 4);
      }
      if (q.max_items < q.min_items) q.max_items = q.min_items;
    }
  }
  return spec;
}

void ExpectFeasible(const ConstraintSpec& spec,
                    const ConstrainedSolution& solved,
                    const std::string& label) {
  double total_cost = 0.0;
  for (NodeId v : solved.solution.items) total_cost += spec.CostOf(v);
  if (spec.HasBudget()) {
    EXPECT_LE(total_cost, spec.budget) << label;
  }
  if (spec.HasQuotas()) {
    std::vector<uint32_t> counts(spec.quotas.size(), 0);
    for (NodeId v : solved.solution.items) ++counts[spec.categories[v]];
    for (size_t c = 0; c < counts.size(); ++c) {
      EXPECT_GE(counts[c], spec.quotas[c].min_items)
          << label << " category " << c;
      EXPECT_LE(counts[c], spec.quotas[c].max_items)
          << label << " category " << c;
    }
  }
}

TEST(ConstrainedDifferential, GreedyFeasibleAndWithinFactorOfBruteForce) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      PreferenceGraph g = MakeTinyGraph(seed, variant);
      for (Combo combo : {Combo::kBudgetOnly, Combo::kQuotaOnly,
                          Combo::kBudgetAndQuota}) {
        const ConstraintSpec spec = MakeSpec(g, seed, combo);
        const std::string label =
            "seed=" + std::to_string(seed) + " variant=" +
            std::string(VariantName(variant)) + " combo=" +
            ComboName(combo);

        ConstrainedCoverOptions options;
        options.variant = variant;
        auto greedy = SolveConstrainedCover(g, spec, options);

        BruteForceOptions bf_options;
        bf_options.variant = variant;
        auto optimal =
            SolveBruteForceConstrained(g, /*max_items=*/0, spec, bf_options);

        if (!greedy.ok()) {
          // Both sides must agree that the instance is infeasible.
          EXPECT_TRUE(greedy.status().IsFailedPrecondition()) << label;
          EXPECT_TRUE(optimal.status().IsFailedPrecondition())
              << label << ": greedy says infeasible, brute force says "
              << optimal.status().ToString();
          continue;
        }
        ASSERT_TRUE(optimal.ok())
            << label << ": " << optimal.status().ToString();
        ExpectFeasible(spec, *greedy, label);
        EXPECT_LE(greedy->solution.cover, optimal->cover + 1e-12) << label;
        EXPECT_GE(greedy->solution.cover,
                  kGuarantee * optimal->cover - 1e-12)
            << label << ": greedy " << greedy->solution.cover
            << " vs optimal " << optimal->cover;
      }
    }
  }
}

TEST(ConstrainedDifferential, ByteIdenticalAcrossSimdLevels) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      PreferenceGraph g = MakeTinyGraph(seed, variant);
      for (Combo combo : {Combo::kBudgetOnly, Combo::kQuotaOnly,
                          Combo::kBudgetAndQuota}) {
        const ConstraintSpec spec = MakeSpec(g, seed, combo);
        ConstrainedCoverOptions options;
        options.variant = variant;

        Result<ConstrainedSolution> reference = Status::Internal("unset");
        {
          ScopedSimdLevelEnv env("scalar");
          reference = SolveConstrainedCover(g, spec, options);
        }
        for (SimdLevel level : SupportedLevels()) {
          if (level == SimdLevel::kScalar) continue;
          ScopedSimdLevelEnv env(
              std::string(SimdLevelName(level)).c_str());
          auto other = SolveConstrainedCover(g, spec, options);
          const std::string label =
              "seed=" + std::to_string(seed) + " variant=" +
              std::string(VariantName(variant)) + " combo=" +
              ComboName(combo) + " level=" +
              std::string(SimdLevelName(level));
          ASSERT_EQ(reference.ok(), other.ok()) << label;
          if (!reference.ok()) continue;
          EXPECT_EQ(reference->solution.items, other->solution.items)
              << label;
          EXPECT_EQ(reference->solution.cover, other->solution.cover)
              << label;
          EXPECT_EQ(reference->solution.cover_after_prefix,
                    other->solution.cover_after_prefix)
              << label;
          EXPECT_EQ(reference->total_cost, other->total_cost) << label;
          EXPECT_EQ(reference->greedy_won, other->greedy_won) << label;
        }
      }
    }
  }
}

// The tiny instances above never truncate the 1024-entry seed. Here
// n = 20,000 and costs from U[0.2, 1.2] make the cost-keyed walk stop
// early; every tier walks the same bound order, so this pins the kernels
// under a truncated seed. The exit itself is checked against an
// exhaustive reference by TruncatedCostKeyedSeedMatchesExhaustiveGreedy.
TEST(ConstrainedDifferential, TruncatedCostKeyedSeedByteIdenticalAtScale) {
  Rng rng(2020);
  UniformGraphParams params;
  params.num_nodes = 20'000;
  params.out_degree = 6;
  params.popularity_skew = 0.9;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ConstraintSpec spec;
  spec.costs.resize(params.num_nodes);
  for (double& c : spec.costs) c = rng.NextDouble(0.2, 1.2);
  spec.budget = 200.0;

  Result<ConstrainedSolution> reference = Status::Internal("unset");
  {
    ScopedSimdLevelEnv env("scalar");
    reference = SolveConstrainedCover(*g, spec);
  }
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->solution.items.size(), 200u);
  for (SimdLevel level : SupportedLevels()) {
    if (level == SimdLevel::kScalar) continue;
    const std::string name(SimdLevelName(level));
    ScopedSimdLevelEnv env(name.c_str());
    auto other = SolveConstrainedCover(*g, spec);
    ASSERT_TRUE(other.ok()) << name << ": " << other.status().ToString();
    EXPECT_EQ(reference->solution.items, other->solution.items) << name;
    EXPECT_EQ(reference->solution.cover_after_prefix,
              other->solution.cover_after_prefix)
        << name;
  }
}

// Cost-ratio greedy with no seed and no bound order: every round scores
// every affordable unretained item and keeps the best gain/cost, ties to
// the smaller id. Runs until nothing is affordable, as the solver does
// without an item bound.
std::vector<NodeId> ExhaustiveRatioGreedy(const PreferenceGraph& g,
                                          const ConstraintSpec& spec) {
  CoverState state(&g, Variant::kIndependent, SimdLevel::kScalar);
  double remaining = spec.budget;
  std::vector<NodeId> items;
  for (;;) {
    NodeId best = kInvalidNode;
    double best_ratio = 0.0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (state.IsRetained(v) || spec.CostOf(v) > remaining) continue;
      const double ratio = state.GainOf(v) / spec.CostOf(v);
      // Ids ascend, so a strict compare keeps the smaller id on ties.
      if (best == kInvalidNode || ratio > best_ratio) {
        best = v;
        best_ratio = ratio;
      }
    }
    if (best == kInvalidNode) return items;
    state.AddNode(best);
    remaining -= spec.CostOf(best);
    items.push_back(best);
  }
}

// The engine's capped seed walks the static-bound order and stops once
// bound(v)/c_min falls below the seed cut. With costs in U[0.2, 1.2] a
// ratio reaches 5x its gain, so an exit that compared the bare bound
// with the cut would stop before cheap candidates whose ratio beats it.
// The reference above never walks, so it sees those candidates.
TEST(ConstrainedDifferential, TruncatedCostKeyedSeedMatchesExhaustiveGreedy) {
  Rng rng(2020);
  UniformGraphParams params;
  params.num_nodes = 20'000;
  params.out_degree = 6;
  params.popularity_skew = 0.9;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ConstraintSpec spec;
  spec.costs.resize(params.num_nodes);
  for (double& c : spec.costs) c = rng.NextDouble(0.2, 1.2);
  spec.budget = 200.0;

  const std::vector<NodeId> expected = ExhaustiveRatioGreedy(*g, spec);
  ASSERT_GT(expected.size(), 200u);
  for (SimdLevel level : SupportedLevels()) {
    const std::string name(SimdLevelName(level));
    ScopedSimdLevelEnv env(name.c_str());
    auto solved = SolveConstrainedCover(*g, spec);
    ASSERT_TRUE(solved.ok()) << name << ": " << solved.status().ToString();
    ASSERT_TRUE(solved->greedy_won) << name;
    EXPECT_EQ(expected, solved->solution.items) << name;
  }
}

}  // namespace
}  // namespace prefcover
