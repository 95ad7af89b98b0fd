// Unit and property battery for the constrained-cover solver family:
// every ConstraintSpec field's shape validation, degenerate constraints
// (zero budget, infeasible quotas, a single affordable item), a fuzzed
// feasibility property (whatever the costs/quotas, the returned solution
// satisfies them), byte-identity of the unit-cost unconstrained solve
// with SolveGreedy, the (1-1/e)/2 singleton guard, and the Pareto
// frontier's non-domination/monotonicity contract.

#include "core/constrained_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover_function.h"
#include "core/greedy_solver.h"
#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "util/random.h"

namespace prefcover {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Deterministic instance shapes shared with the greedy equivalence
// suite: 40-200 nodes, varying degree and popularity skew.
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

// Exactly-representable random costs in {0.25, 0.5, ..., 4.0} so cost
// sums carry no rounding noise into budget-feasibility checks.
std::vector<double> FuzzCosts(size_t n, Rng* rng) {
  std::vector<double> costs(n);
  for (double& c : costs) {
    c = 0.25 * static_cast<double>(1 + rng->NextUint64() % 16);
  }
  return costs;
}

std::vector<uint32_t> RoundRobinCategories(size_t n,
                                           uint32_t num_categories) {
  std::vector<uint32_t> categories(n);
  for (size_t v = 0; v < n; ++v) {
    categories[v] = static_cast<uint32_t>(v % num_categories);
  }
  return categories;
}

// Asserts that `solved` satisfies every constraint in `spec` and that
// its accounting fields agree with a from-scratch evaluation.
void ExpectFeasible(const PreferenceGraph& graph, const ConstraintSpec& spec,
                    size_t k, const ConstrainedSolution& solved,
                    Variant variant, const std::string& label) {
  const Solution& sol = solved.solution;
  EXPECT_LE(sol.items.size(), k == 0 ? graph.NumNodes() : k) << label;
  std::vector<bool> seen(graph.NumNodes(), false);
  double total_cost = 0.0;
  for (NodeId v : sol.items) {
    ASSERT_LT(v, graph.NumNodes()) << label;
    EXPECT_FALSE(seen[v]) << label << " duplicate item " << v;
    seen[v] = true;
    total_cost += spec.CostOf(v);
  }
  EXPECT_EQ(total_cost, solved.total_cost) << label;
  if (spec.HasBudget()) {
    EXPECT_LE(solved.total_cost, spec.budget) << label;
  }
  if (spec.HasQuotas()) {
    std::vector<uint32_t> counts(spec.quotas.size(), 0);
    for (NodeId v : sol.items) ++counts[spec.categories[v]];
    ASSERT_EQ(counts.size(), solved.category_counts.size()) << label;
    for (size_t c = 0; c < counts.size(); ++c) {
      EXPECT_EQ(counts[c], solved.category_counts[c]) << label;
      EXPECT_GE(counts[c], spec.quotas[c].min_items)
          << label << " category " << c;
      EXPECT_LE(counts[c], spec.quotas[c].max_items)
          << label << " category " << c;
    }
  }
  auto expected_cover = EvaluateCover(graph, sol.items, variant);
  ASSERT_TRUE(expected_cover.ok()) << label;
  // Incremental kernel accumulation vs from-scratch evaluation: same
  // value up to a few ulps of summation-order noise.
  EXPECT_NEAR(sol.cover, *expected_cover, 1e-9) << label;
  ASSERT_EQ(sol.cover_after_prefix.size(), sol.items.size()) << label;
  if (!sol.items.empty()) {
    EXPECT_EQ(sol.cover, sol.cover_after_prefix.back()) << label;
  }
}

// --- spec shape validation, every field ---------------------------------

TEST(ConstraintSpecValidation, DefaultSpecIsValid) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  EXPECT_TRUE(ValidateConstraintSpec(g, ConstraintSpec()).ok());
}

TEST(ConstraintSpecValidation, CostsLengthMismatch) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  ConstraintSpec spec;
  spec.costs.assign(g.NumNodes() + 1, 1.0);
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
  spec.costs.assign(g.NumNodes() - 1, 1.0);
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
}

TEST(ConstraintSpecValidation, CostsMustBeFiniteAndPositive) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  for (double bad : {0.0, -1.0, kInf, -kInf, kNaN}) {
    ConstraintSpec spec;
    spec.costs.assign(g.NumNodes(), 1.0);
    spec.costs[g.NumNodes() / 2] = bad;
    EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument())
        << "cost " << bad;
  }
}

TEST(ConstraintSpecValidation, BudgetMustNotBeNaNOrNegative) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  ConstraintSpec spec;
  spec.budget = kNaN;
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
  spec.budget = -1.0;
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
  spec.budget = 0.0;  // degenerate but valid
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).ok());
}

TEST(ConstraintSpecValidation, CategoriesAndQuotasMustComeTogether) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 3);
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument())
      << "categories without quotas";
  spec.categories.clear();
  spec.quotas.resize(3);
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument())
      << "quotas without categories";
}

TEST(ConstraintSpecValidation, CategoriesLengthMismatch) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes() - 1, 3);
  spec.quotas.resize(3);
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
}

TEST(ConstraintSpecValidation, CategoryIdOutOfRange) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 3);
  spec.quotas.resize(3);
  spec.categories[0] = 3;  // quotas has ids 0..2
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
}

TEST(ConstraintSpecValidation, QuotaMinAboveMax) {
  PreferenceGraph g = MakeSeededGraph(1, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 2);
  spec.quotas.resize(2);
  spec.quotas[1].min_items = 3;
  spec.quotas[1].max_items = 2;
  EXPECT_TRUE(ValidateConstraintSpec(g, spec).IsInvalidArgument());
}

// --- degenerate constraints ---------------------------------------------

TEST(ConstrainedSolver, ZeroBudgetYieldsEmptySolution) {
  PreferenceGraph g = MakeSeededGraph(2, Variant::kIndependent);
  ConstraintSpec spec;
  spec.budget = 0.0;
  auto solved = SolveConstrainedCover(g, spec);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_TRUE(solved->solution.items.empty());
  EXPECT_EQ(solved->total_cost, 0.0);
  EXPECT_EQ(solved->solution.cover, 0.0);
}

TEST(ConstrainedSolver, NothingAffordableYieldsEmptySolution) {
  PreferenceGraph g = MakeSeededGraph(2, Variant::kIndependent);
  ConstraintSpec spec;
  spec.costs.assign(g.NumNodes(), 2.0);
  spec.budget = 1.0;
  auto solved = SolveConstrainedCover(g, spec);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_TRUE(solved->solution.items.empty());
}

TEST(ConstrainedSolver, SingleAffordableItemIsSelected) {
  PreferenceGraph g = MakeSeededGraph(3, Variant::kIndependent);
  const NodeId affordable = static_cast<NodeId>(g.NumNodes() / 2);
  ConstraintSpec spec;
  spec.costs.assign(g.NumNodes(), 10.0);
  spec.costs[affordable] = 1.0;
  spec.budget = 1.5;
  auto solved = SolveConstrainedCover(g, spec);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  ASSERT_EQ(solved->solution.items.size(), 1u);
  EXPECT_EQ(solved->solution.items[0], affordable);
  EXPECT_EQ(solved->total_cost, 1.0);
}

TEST(ConstrainedSolver, QuotaMinAboveCategorySizeIsFailedPrecondition) {
  PreferenceGraph g = MakeSeededGraph(4, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 4);
  spec.quotas.resize(4);
  spec.quotas[2].min_items = static_cast<uint32_t>(g.NumNodes());
  auto solved = SolveConstrainedCover(g, spec);
  EXPECT_TRUE(solved.status().IsFailedPrecondition())
      << solved.status().ToString();
}

TEST(ConstrainedSolver, QuotaMinimaAboveItemBudgetIsFailedPrecondition) {
  PreferenceGraph g = MakeSeededGraph(4, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 4);
  spec.quotas.resize(4);
  for (auto& q : spec.quotas) q.min_items = 2;  // 8 minima, k = 4
  ConstrainedCoverOptions options;
  options.max_items = 4;
  auto solved = SolveConstrainedCover(g, spec, options);
  EXPECT_TRUE(solved.status().IsFailedPrecondition())
      << solved.status().ToString();
}

TEST(ConstrainedSolver, QuotaMinimaAboveBudgetIsFailedPrecondition) {
  PreferenceGraph g = MakeSeededGraph(4, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 2);
  spec.quotas.resize(2);
  spec.quotas[0].min_items = 3;
  spec.quotas[1].min_items = 3;
  spec.costs.assign(g.NumNodes(), 1.0);
  spec.budget = 5.0;  // cheapest completion costs 6
  auto solved = SolveConstrainedCover(g, spec);
  EXPECT_TRUE(solved.status().IsFailedPrecondition())
      << solved.status().ToString();
}

// --- fuzzed feasibility property ----------------------------------------

TEST(ConstrainedSolverProperty, SolutionsAlwaysFeasible) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      PreferenceGraph g = MakeSeededGraph(seed, variant);
      Rng rng(seed * 1000 + 17);
      const size_t n = g.NumNodes();

      ConstraintSpec spec;
      spec.costs = FuzzCosts(n, &rng);
      double total = 0.0;
      for (double c : spec.costs) total += c;
      // Budgets from starved to generous across seeds.
      spec.budget = total * (0.05 + 0.3 * static_cast<double>(seed % 4));
      const uint32_t num_categories =
          static_cast<uint32_t>(2 + rng.NextUint64() % 4);
      spec.categories = RoundRobinCategories(n, num_categories);
      spec.quotas.resize(num_categories);
      for (auto& q : spec.quotas) {
        // min 0-1 keeps minima cheap enough to stay feasible under the
        // starved budgets; max occasionally binding.
        q.min_items = static_cast<uint32_t>(rng.NextUint64() % 2);
        if (rng.NextUint64() % 2 == 0) {
          q.max_items = static_cast<uint32_t>(1 + rng.NextUint64() % 8);
        }
      }
      for (auto& q : spec.quotas) {
        q.max_items = std::max(q.max_items, q.min_items);
      }
      ConstrainedCoverOptions options;
      options.variant = variant;
      options.max_items = 4 + seed % 24;

      const std::string label = "seed=" + std::to_string(seed) +
                                " variant=" +
                                std::string(VariantName(variant));
      auto solved = SolveConstrainedCover(g, spec, options);
      if (solved.status().IsFailedPrecondition()) {
        // The fuzzed minima can exceed k or the budget; that must be a
        // clean error, never an infeasible "solution".
        continue;
      }
      ASSERT_TRUE(solved.ok()) << label << ": " << solved.status().ToString();
      ExpectFeasible(g, spec, options.max_items, *solved, variant, label);
    }
  }
}

// --- unit costs + no constraints == plain greedy, byte for byte ---------

TEST(ConstrainedSolver, UnitCostsUnconstrainedMatchesGreedyByteIdentically) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      PreferenceGraph g = MakeSeededGraph(seed, variant);
      const size_t k = 1 + seed % 24;
      GreedyOptions greedy_options;
      greedy_options.variant = variant;
      auto greedy = SolveGreedy(g, k, greedy_options);
      ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();

      ConstrainedCoverOptions options;
      options.variant = variant;
      options.max_items = k;
      auto solved = SolveConstrainedCover(g, ConstraintSpec(), options);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();

      const std::string label = "seed=" + std::to_string(seed);
      EXPECT_EQ(greedy->items, solved->solution.items) << label;
      EXPECT_EQ(greedy->cover, solved->solution.cover) << label;
      EXPECT_EQ(greedy->cover_after_prefix,
                solved->solution.cover_after_prefix)
          << label;
      EXPECT_EQ(greedy->item_contributions,
                solved->solution.item_contributions)
          << label;
      EXPECT_TRUE(solved->greedy_won) << label;
    }
  }
}

TEST(ConstrainedSolver, UnitCostByteIdentityHoldsAtScale) {
  Rng rng(99);
  UniformGraphParams params;
  params.num_nodes = 20'000;
  params.out_degree = 6;
  params.popularity_skew = 0.9;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  constexpr size_t kItems = 400;

  auto greedy = SolveGreedy(*g, kItems);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  ConstrainedCoverOptions options;
  options.max_items = kItems;
  auto solved = SolveConstrainedCover(*g, ConstraintSpec(), options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(greedy->items, solved->solution.items);
  EXPECT_EQ(greedy->cover, solved->solution.cover);
  EXPECT_EQ(greedy->cover_after_prefix, solved->solution.cover_after_prefix);
}

// Once the remaining budget buys no item, the solve stops without touching
// the heap: at unit costs a budget of B does exactly the heap work of an
// unbudgeted solve capped at B items, on a truncated seed (n > 1024) and
// on an exhaustive one.
TEST(ConstrainedSolver, SpentUnitBudgetEndsWithoutFurtherHeapWork) {
  Rng rng(7);
  UniformGraphParams params;
  params.num_nodes = 5'000;
  params.out_degree = 6;
  params.popularity_skew = 0.9;
  auto large = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(large.ok()) << large.status().ToString();
  const PreferenceGraph small = MakeSeededGraph(3, Variant::kIndependent);
  const PreferenceGraph* graphs[] = {&large.value(), &small};
  for (const PreferenceGraph* g : graphs) {
    for (size_t budget : {size_t{1}, size_t{17}, size_t{30}}) {
      const std::string label = "n=" + std::to_string(g->NumNodes()) +
                                " budget=" + std::to_string(budget);
      ConstraintSpec spec;
      spec.budget = static_cast<double>(budget);
      auto budgeted = SolveConstrainedCover(*g, spec);
      ConstrainedCoverOptions capped_options;
      capped_options.max_items = budget;
      auto capped = SolveConstrainedCover(*g, ConstraintSpec(),
                                          capped_options);
      ASSERT_TRUE(budgeted.ok() && capped.ok()) << label;
      EXPECT_EQ(budgeted->solution.items, capped->solution.items) << label;
      EXPECT_EQ(budgeted->solution.stats.heap_pops,
                capped->solution.stats.heap_pops)
          << label;
      EXPECT_EQ(budgeted->solution.stats.seed_refills,
                capped->solution.stats.seed_refills)
          << label;
    }
  }
}

// --- the (1-1/e)/2 singleton guard --------------------------------------

// The classic budgeted-greedy trap: a cheap low-gain item with the best
// ratio exhausts the budget's headroom for the expensive high-gain one.
// The ratio greedy alone returns the crumb; the singleton guard must
// return the feast.
TEST(ConstrainedSolver, SingletonGuardBeatsRatioGreedyTrap) {
  GraphBuilder b;
  const NodeId feast = b.AddNode(0.998, "feast");
  b.AddNode(0.002, "crumb");
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok()) << g.status().ToString();

  ConstraintSpec spec;
  spec.costs = {1.0, 0.001};  // ratio(crumb) ~ 2.0 > ratio(feast) ~ 1.0
  spec.budget = 1.0;
  auto solved = SolveConstrainedCover(*g, spec);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  ASSERT_EQ(solved->solution.items.size(), 1u);
  EXPECT_EQ(solved->solution.items[0], feast);
  EXPECT_FALSE(solved->greedy_won);
  EXPECT_EQ(solved->total_cost, 1.0);
}

// --- quota mechanics -----------------------------------------------------

TEST(ConstrainedSolver, MaximumQuotaCapsACategory) {
  PreferenceGraph g = MakeSeededGraph(5, Variant::kIndependent);
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), 2);
  spec.quotas.resize(2);
  spec.quotas[0].max_items = 1;
  ConstrainedCoverOptions options;
  options.max_items = 10;
  auto solved = SolveConstrainedCover(g, spec, options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LE(solved->category_counts[0], 1u);
  ExpectFeasible(g, spec, options.max_items, *solved,
                 Variant::kIndependent, "max-quota");
}

TEST(ConstrainedSolver, MinimumQuotasAreFilledFirst) {
  PreferenceGraph g = MakeSeededGraph(6, Variant::kIndependent);
  const uint32_t num_categories = 4;
  ConstraintSpec spec;
  spec.categories = RoundRobinCategories(g.NumNodes(), num_categories);
  spec.quotas.resize(num_categories);
  spec.quotas[3].min_items = 3;
  ConstrainedCoverOptions options;
  options.max_items = 5;
  auto solved = SolveConstrainedCover(g, spec, options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_GE(solved->category_counts[3], 3u);
  // The quota fill runs before free selection: the first items already
  // satisfy the minimum.
  uint32_t in_category = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (spec.categories[solved->solution.items[i]] == 3) ++in_category;
  }
  EXPECT_EQ(in_category, 3u);
}

// --- Pareto frontier -----------------------------------------------------

TEST(ParetoFrontier, NonDominatedAndMonotone) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    PreferenceGraph g = MakeSeededGraph(seed, Variant::kIndependent);
    Rng rng(seed);
    ParetoSweepOptions options;
    options.costs = FuzzCosts(g.NumNodes(), &rng);
    options.num_points = 12;
    auto frontier = SolveParetoFrontier(g, options);
    ASSERT_TRUE(frontier.ok()) << frontier.status().ToString();
    ASSERT_FALSE(frontier->empty());
    for (size_t i = 1; i < frontier->size(); ++i) {
      const ParetoPoint& prev = (*frontier)[i - 1];
      const ParetoPoint& next = (*frontier)[i];
      EXPECT_LE(prev.total_cost, next.total_cost) << "seed " << seed;
      EXPECT_LT(prev.cover, next.cover) << "seed " << seed;
      EXPECT_LE(prev.budget, next.budget) << "seed " << seed;
    }
    for (const ParetoPoint& point : *frontier) {
      EXPECT_LE(point.total_cost, point.budget);
    }
  }
}

TEST(ParetoFrontier, PointsMatchDirectSolves) {
  PreferenceGraph g = MakeSeededGraph(10, Variant::kIndependent);
  Rng rng(10);
  ParetoSweepOptions options;
  options.costs = FuzzCosts(g.NumNodes(), &rng);
  options.budgets = {2.0, 8.0, 32.0};
  auto frontier = SolveParetoFrontier(g, options);
  ASSERT_TRUE(frontier.ok()) << frontier.status().ToString();
  for (const ParetoPoint& point : *frontier) {
    ConstraintSpec spec;
    spec.costs = options.costs;
    spec.budget = point.budget;
    auto solved = SolveConstrainedCover(g, spec);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(point.items, solved->solution.items);
    EXPECT_EQ(point.cover, solved->solution.cover);
    EXPECT_EQ(point.total_cost, solved->total_cost);
  }
}

TEST(ParetoFrontier, RejectsMalformedSchedules) {
  PreferenceGraph g = MakeSeededGraph(11, Variant::kIndependent);
  ParetoSweepOptions options;
  options.budgets = {1.0, -2.0};
  EXPECT_TRUE(
      SolveParetoFrontier(g, options).status().IsInvalidArgument());
  options.budgets = {1.0, kInf};
  EXPECT_TRUE(
      SolveParetoFrontier(g, options).status().IsInvalidArgument());
  options.budgets.clear();
  options.num_points = 0;
  EXPECT_TRUE(
      SolveParetoFrontier(g, options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace prefcover
