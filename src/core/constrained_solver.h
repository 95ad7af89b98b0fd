// Constrained-cover solver family: the paper's Section-7 "storage and
// revenue aware" future work as a first-class solver. One ConstraintSpec
// describes per-item costs with a knapsack budget, per-category min/max
// retention quotas (from the src/synth/ catalog model), or any
// combination, and SolveConstrainedCover maximizes C(S) subject to it
// with a cost-ratio lazy greedy over the same coverage kernels the
// unconstrained executions use.
//
// Algorithm. The greedy round loop (SolveGreedyWithEvaluator,
// core/greedy_solver.h) over a constrained evaluator, in two phases:
//
//   1. Quota fill: while any category is below its minimum, pick the
//      best-ratio admissible member of a deficient category. Under a
//      budget, admissibility reserves enough of the remaining budget to
//      finish every other deficit with its cheapest members, so phase 1
//      never strands the minima (see DESIGN.md "Constrained covers").
//   2. Free selection: the one CELF engine (CelfShardEngine) keyed by
//      gain/cost, with an admissibility filter (affordable, category
//      below its max), until the item budget k, the knapsack budget, or
//      the candidate pool runs out.
//
// Gains are non-increasing as S grows and costs are fixed positives, so
// ratios are non-increasing too and the lazy argument carries over. The
// engine's capped seed walks the graph's static gain-bound order, as the
// unconstrained one does, and stops once bound(v)/c_min is below the
// running cut, c_min being the smallest cost: Gain(v) <= bound(v) against
// any retained set, so bound(v)/c_min upper-bounds the ratio of v and of
// every node after it. Solutions and work are identical across
// scalar/word/avx2, and with unit costs and no constraints the selection
// reduces bitwise to SolveGreedy's (gain/1.0 is the gain, ties break to
// the smaller id in both). Once no quota deficit remains, a remaining
// budget below c_min buys nothing, so the solve ends there.
//
// Guarantee. With a budget and no minimum quotas, the returned solution
// is the better of the ratio-greedy run and the best affordable
// singleton, which achieves (1 - 1/e)/2 of the optimal budgeted cover
// (Khuller-Moss-Naor; cf. PAPERS.md "Maximum weighted independent sets
// with a budget"). The differential suite checks the bound against
// brute force on every constraint combination.

#ifndef PREFCOVER_CORE_CONSTRAINED_SOLVER_H_
#define PREFCOVER_CORE_CONSTRAINED_SOLVER_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/solution.h"
#include "core/variant.h"
#include "graph/preference_graph.h"
#include "util/status.h"

namespace prefcover {

/// \brief `CategoryQuota::max_items` value meaning "no maximum".
inline constexpr uint32_t kUnboundedQuota =
    std::numeric_limits<uint32_t>::max();

/// \brief Retention quota of one category: the solution must retain at
/// least `min_items` and at most `max_items` of its members.
struct CategoryQuota {
  uint32_t min_items = 0;
  uint32_t max_items = kUnboundedQuota;
};

/// \brief The unified constraint model: knapsack budget over per-item
/// costs, per-category retention quotas, or both. Default-constructed it
/// is unconstrained (unit costs, infinite budget, no quotas) and
/// SolveConstrainedCover degenerates to plain greedy.
struct ConstraintSpec {
  /// Per-item inventory costs; empty means unit cost for every item,
  /// otherwise one finite positive entry per node.
  std::vector<double> costs;

  /// Knapsack budget: sum of retained costs must stay <= budget.
  /// +infinity (the default) disables the budget; 0 is a valid
  /// degenerate budget (nothing is affordable).
  double budget = std::numeric_limits<double>::infinity();

  /// Category of every item (one entry per node, values indexing
  /// `quotas`); empty together with `quotas` means no quota constraints.
  /// Typically Catalog::CategoryAssignment() from src/synth/.
  std::vector<uint32_t> categories;

  /// Quota of each category, indexed by the ids in `categories`.
  std::vector<CategoryQuota> quotas;

  bool HasBudget() const { return std::isfinite(budget); }
  bool HasQuotas() const { return !quotas.empty(); }
  bool HasMinQuotas() const {
    for (const CategoryQuota& q : quotas) {
      if (q.min_items > 0) return true;
    }
    return false;
  }
  bool UnitCosts() const { return costs.empty(); }
  double CostOf(NodeId v) const { return costs.empty() ? 1.0 : costs[v]; }
};

/// \brief Options of a constrained solve.
struct ConstrainedCoverOptions {
  Variant variant = Variant::kIndependent;

  /// Maximum number of retained items (the paper's k); 0 means no
  /// cardinality bound beyond n.
  size_t max_items = 0;
};

/// \brief A constrained solve outcome: the Solution plus the constraint
/// accounting the caller needs to audit feasibility.
struct ConstrainedSolution {
  /// algorithm == "constrained-greedy". Items are in selection order
  /// (quota fill first, then free cost-ratio picks); when the singleton
  /// guard wins, the single item replaces the greedy sequence.
  Solution solution;

  /// Sum of CostOf over the retained items (<= spec.budget).
  double total_cost = 0.0;

  /// False when the best-affordable-singleton fallback beat the greedy
  /// run (the (1 - 1/e)/2 guard; only possible under a budget).
  bool greedy_won = true;

  /// Retained items per category, indexed like spec.quotas; empty when
  /// the spec carries no quotas.
  std::vector<uint32_t> category_counts;
};

/// \brief Shape validation of a spec against a graph: cost vector length
/// and positivity/finiteness, budget not NaN/negative, categories/quotas
/// lengths, category ids in range, min <= max per quota. Returns
/// InvalidArgument naming the offending field. (Feasibility against k
/// and the budget — sum of minima, reservation cost — is checked by
/// SolveConstrainedCover, which has the budget k.)
Status ValidateConstraintSpec(const PreferenceGraph& graph,
                              const ConstraintSpec& spec);

/// \brief Cost-ratio lazy greedy under `spec`, byte-identical at every
/// SIMD level. Infeasible minima (more than the category holds, more
/// than k in total, or unaffordable under the budget) return
/// FailedPrecondition; an over-tight budget with no minima is not an
/// error — the solution is simply small or empty.
Result<ConstrainedSolution> SolveConstrainedCover(
    const PreferenceGraph& graph, const ConstraintSpec& spec,
    const ConstrainedCoverOptions& options = ConstrainedCoverOptions());

/// \brief One point of the coverage-vs-inventory-cost frontier.
struct ParetoPoint {
  /// The budget this point was solved at.
  double budget = 0.0;
  /// Cost actually spent (<= budget) and the cover it buys.
  double total_cost = 0.0;
  double cover = 0.0;
  /// Retained items in selection order.
  std::vector<NodeId> items;
};

/// \brief Options of a frontier sweep.
struct ParetoSweepOptions {
  Variant variant = Variant::kIndependent;

  /// Per-item costs; empty = unit costs (see ConstraintSpec::costs).
  std::vector<double> costs;

  /// Explicit budget schedule. Empty = an automatic linear schedule of
  /// `num_points` budgets from the cheapest single item to the total
  /// catalog cost.
  std::vector<double> budgets;

  /// Size of the automatic schedule (>= 1); ignored when `budgets` is
  /// given.
  size_t num_points = 16;

  /// Cardinality bound per point; 0 = none (see ConstrainedCoverOptions).
  size_t max_items = 0;
};

/// \brief Sweeps SolveConstrainedCover across the budget schedule and
/// returns the non-dominated frontier: points sorted by ascending
/// total_cost with strictly increasing cover (dominated and duplicate
/// points dropped). Deterministic in (graph, options) — the bench
/// artifact emission (src/bench/pareto_json.h) is golden-locked on it.
Result<std::vector<ParetoPoint>> SolveParetoFrontier(
    const PreferenceGraph& graph, const ParetoSweepOptions& options);

}  // namespace prefcover

#endif  // PREFCOVER_CORE_CONSTRAINED_SOLVER_H_
