#include "core/constrained_solver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/candidate_evaluator.h"
#include "core/cover_state.h"
#include "core/greedy_solver.h"
#include "util/timer.h"

namespace prefcover {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Category member lists, ascending (cost, id) — the order both the
// reservation accounting and the feasibility check rely on. Empty
// without quotas.
std::vector<std::vector<NodeId>> CategoryMembers(const ConstraintSpec& spec,
                                                 size_t n) {
  std::vector<std::vector<NodeId>> members;
  if (!spec.HasQuotas()) return members;
  members.resize(spec.quotas.size());
  for (NodeId v = 0; v < n; ++v) members[spec.categories[v]].push_back(v);
  for (std::vector<NodeId>& list : members) {
    std::sort(list.begin(), list.end(), [&](NodeId a, NodeId b) {
      const double ca = spec.CostOf(a);
      const double cb = spec.CostOf(b);
      if (ca != cb) return ca < cb;
      return a < b;
    });
  }
  return members;
}

// The engine's seed walk order: descending bound(v)/cost(v), ties by id.
// Empty with unit costs, where the engine walks the graph's precomputed
// static-bound order — the hot unconstrained path pays no per-solve sort.
std::vector<NodeId> RatioOrder(const PreferenceGraph& graph,
                               const ConstraintSpec& spec) {
  std::vector<NodeId> order;
  if (spec.UnitCosts()) return order;
  const std::span<const double> bounds = graph.StaticGainBounds();
  const std::span<const NodeId> by_bound = graph.NodesByStaticGainBound();
  order.assign(by_bound.begin(), by_bound.end());
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const double ra = bounds[a] / spec.costs[a];
    const double rb = bounds[b] / spec.costs[b];
    if (ra != rb) return ra > rb;
    return a < b;
  });
  return order;
}

// The constrained solve as an evaluator of the greedy round loop. While any
// category is below its minimum, each round is the quota fill: the best
// gain/cost ratio among members of still-deficient categories that are
// admissible AND leave enough of the remaining budget to finish every
// other deficit with its cheapest members. The cheapest member of every
// deficient category always passes that test (picking it converts its
// own reservation into spend one-for-one), so the fill never strands a
// minimum that the feasibility check admitted. After that, each round is
// the CELF engine keyed by gain/cost over the admissible candidates
// (affordable, category below its maximum) — with unit costs and no
// constraints, bitwise the unconstrained lazy selection (gain/1.0 is the
// gain, ties break to the smaller id in both). Zero-gain candidates are
// still selected, matching plain greedy; only admissibility ends the
// solve early.
class ConstrainedEvaluator final : public CandidateEvaluator,
                                   public CandidateFilter {
 public:
  ConstrainedEvaluator(const EvaluatorContext& context,
                       const ConstraintSpec& spec)
      : state_(context.state),
        spec_(spec),
        members_(CategoryMembers(spec, context.graph->NumNodes())),
        order_(RatioOrder(*context.graph, spec)),
        remaining_(spec.HasBudget()
                       ? spec.budget
                       : std::numeric_limits<double>::infinity()),
        engine_(context.state, context.excluded, EngineConfig(context)) {
    if (spec.HasQuotas()) {
      count_.assign(spec.quotas.size(), 0);
      deficit_.resize(spec.quotas.size());
      for (size_t c = 0; c < spec.quotas.size(); ++c) {
        deficit_[c] = spec.quotas[c].min_items;
        total_deficit_ += deficit_[c];
      }
    }
  }

  const std::vector<std::vector<NodeId>>& members() const {
    return members_;
  }

  // A candidate is admissible when it is affordable and its category is
  // below its maximum (the engine checks it is unretained). Both only
  // tighten as S grows, so an inadmissible candidate is dead for the rest
  // of the solve.
  bool Admissible(NodeId v) const override {
    if (spec_.CostOf(v) > remaining_) return false;
    if (!count_.empty()) {
      const uint32_t c = spec_.categories[v];
      if (count_[c] >= spec_.quotas[c].max_items) return false;
    }
    return true;
  }

  Result<CandidateProposal> BestCandidate() override {
    if (total_deficit_ > 0) return QuotaFill();
    return engine_.Propose();
  }

  Status CommitWinner(NodeId v) override {
    if (spec_.HasBudget()) remaining_ -= spec_.CostOf(v);
    if (!count_.empty()) {
      const uint32_t c = spec_.categories[v];
      ++count_[c];
      if (deficit_[c] > 0) {
        --deficit_[c];
        --total_deficit_;
      }
    }
    engine_.OnCommitted(v);
    return Status::OK();
  }

  void DrainCounters(EvaluatorCounters* into) override {
    into->MergeFrom(&counters_);
    engine_.DrainCounters(into);
  }

  // Best affordable singleton at the empty state (quota maxima
  // respected), via the static-bound order with exact early exit.
  // Not found when nothing is affordable.
  CandidateProposal BestAffordableSingleton() {
    const PreferenceGraph& graph = state_->graph();
    const std::span<const double> bounds = graph.StaticGainBounds();
    CandidateProposal best;
    best.gain = kNegInf;
    for (const NodeId v : graph.NodesByStaticGainBound()) {
      if (bounds[v] < best.gain) break;  // strict, for equal-gain ties
      if (spec_.CostOf(v) > spec_.budget) continue;
      if (spec_.HasQuotas() &&
          spec_.quotas[spec_.categories[v]].max_items < 1) {
        continue;
      }
      const double gain = state_->GainOf(v);
      ++counters_.gain_evaluations;
      if (gain > best.gain || (gain == best.gain && v < best.node)) {
        best = {true, gain, v};
      }
    }
    return best;
  }

 private:
  CelfShardEngine::Config EngineConfig(const EvaluatorContext& context) {
    CelfShardEngine::Config config;
    config.shard_end = context.graph->NumNodes();
    config.costs = spec_.costs;
    config.seed_order = order_;
    // Without a budget or quotas every candidate is admissible.
    if (spec_.HasBudget() || spec_.HasQuotas()) config.filter = this;
    return config;
  }

  // Sum of the `take` cheapest unretained members of `members` (ascending
  // (cost, id) order), skipping `skip` — the budget a category still
  // needs reserved to finish its minimum quota.
  double ReserveCost(const std::vector<NodeId>& members, NodeId skip,
                     uint32_t take) const {
    double sum = 0.0;
    uint32_t taken = 0;
    for (NodeId v : members) {
      if (taken == take) break;
      if (v == skip || state_->IsRetained(v)) continue;
      sum += spec_.CostOf(v);
      ++taken;
    }
    return sum;
  }

  CandidateProposal QuotaFill() {
    const bool has_budget = spec_.HasBudget();
    // Per-category reservation under the current retained set.
    reserve_.assign(deficit_.size(), 0.0);
    double reserve_total = 0.0;
    if (has_budget) {
      for (size_t c = 0; c < deficit_.size(); ++c) {
        reserve_[c] = deficit_[c] == 0
                          ? 0.0
                          : ReserveCost(members_[c], kInvalidNode,
                                        deficit_[c]);
        reserve_total += reserve_[c];
      }
    }
    CandidateProposal best;
    best.gain = kNegInf;
    for (size_t c = 0; c < deficit_.size(); ++c) {
      if (deficit_[c] == 0) continue;
      for (NodeId v : members_[c]) {
        if (state_->IsRetained(v)) continue;
        const double cost = spec_.CostOf(v);
        if (has_budget) {
          if (cost > remaining_) continue;
          const double reserve_after =
              reserve_total - reserve_[c] +
              ReserveCost(members_[c], v, deficit_[c] - 1);
          if (remaining_ - cost < reserve_after) continue;
        }
        const double ratio = state_->GainOf(v) / cost;
        ++counters_.gain_evaluations;
        if (ratio > best.gain || (ratio == best.gain && v < best.node)) {
          best = {true, ratio, v};
        }
      }
    }
    return best;
  }

  const CoverState* state_;
  const ConstraintSpec& spec_;
  const std::vector<std::vector<NodeId>> members_;
  const std::vector<NodeId> order_;  // engine_'s seed walk, so declared first
  double remaining_;

  // Quota accounting, indexed by category (empty without quotas).
  std::vector<uint32_t> count_;
  std::vector<uint32_t> deficit_;
  uint64_t total_deficit_ = 0;
  std::vector<double> reserve_;

  CelfShardEngine engine_;
  EvaluatorCounters counters_;
};

// Feasibility of the minima against the instance: enough members per
// category, enough item budget k in total, and (under a budget) an
// affordable cheapest completion. These depend on k, so they live here
// rather than in ValidateConstraintSpec.
Status CheckQuotaFeasibility(const ConstraintSpec& spec, size_t k,
                             const std::vector<std::vector<NodeId>>& members) {
  uint64_t sum_min = 0;
  double reservation = 0.0;
  for (size_t c = 0; c < spec.quotas.size(); ++c) {
    const uint32_t min_items = spec.quotas[c].min_items;
    if (min_items == 0) continue;
    if (min_items > members[c].size()) {
      return Status::FailedPrecondition(
          "quota minimum of category " + std::to_string(c) + " is " +
          std::to_string(min_items) + " but it has only " +
          std::to_string(members[c].size()) + " members");
    }
    sum_min += min_items;
    if (spec.HasBudget()) {
      for (uint32_t i = 0; i < min_items; ++i) {
        reservation += spec.CostOf(members[c][i]);
      }
    }
  }
  if (sum_min > k) {
    return Status::FailedPrecondition(
        "quota minimums require " + std::to_string(sum_min) +
        " items but the item budget is " + std::to_string(k));
  }
  if (spec.HasBudget() && reservation > spec.budget) {
    return Status::FailedPrecondition(
        "cheapest completion of the quota minimums costs " +
        std::to_string(reservation) + ", above the budget " +
        std::to_string(spec.budget));
  }
  return Status::OK();
}

}  // namespace

Status ValidateConstraintSpec(const PreferenceGraph& graph,
                              const ConstraintSpec& spec) {
  const size_t n = graph.NumNodes();
  if (!spec.costs.empty() && spec.costs.size() != n) {
    return Status::InvalidArgument(
        "cost vector size " + std::to_string(spec.costs.size()) +
        " does not match the graph's " + std::to_string(n) + " nodes");
  }
  for (size_t v = 0; v < spec.costs.size(); ++v) {
    if (!std::isfinite(spec.costs[v]) || spec.costs[v] <= 0.0) {
      return Status::InvalidArgument(
          "cost of item " + std::to_string(v) +
          " must be a finite positive number");
    }
  }
  if (std::isnan(spec.budget)) {
    return Status::InvalidArgument("budget must not be NaN");
  }
  if (spec.budget < 0.0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  if (spec.categories.empty() != spec.quotas.empty()) {
    return Status::InvalidArgument(
        "categories and quotas must be given together");
  }
  if (!spec.categories.empty() && spec.categories.size() != n) {
    return Status::InvalidArgument(
        "category vector size " + std::to_string(spec.categories.size()) +
        " does not match the graph's " + std::to_string(n) + " nodes");
  }
  for (size_t v = 0; v < spec.categories.size(); ++v) {
    if (spec.categories[v] >= spec.quotas.size()) {
      return Status::InvalidArgument(
          "item " + std::to_string(v) + " has category " +
          std::to_string(spec.categories[v]) + " but only " +
          std::to_string(spec.quotas.size()) + " quotas were given");
    }
  }
  for (size_t c = 0; c < spec.quotas.size(); ++c) {
    if (spec.quotas[c].min_items > spec.quotas[c].max_items) {
      return Status::InvalidArgument(
          "quota of category " + std::to_string(c) +
          " has min_items above max_items");
    }
  }
  return Status::OK();
}

Result<ConstrainedSolution> SolveConstrainedCover(
    const PreferenceGraph& graph, const ConstraintSpec& spec,
    const ConstrainedCoverOptions& options) {
  Stopwatch timer;
  PREFCOVER_RETURN_NOT_OK(ValidateConstraintSpec(graph, spec));
  const size_t k =
      options.max_items == 0 ? graph.NumNodes() : options.max_items;
  GreedyOptions greedy_options;
  greedy_options.variant = options.variant;

  // The (1 - 1/e)/2 guard: under a budget the ratio rule alone has no
  // constant factor (a cheap low-gain item can crowd out one expensive
  // high-gain item), so the best affordable singleton is computed up
  // front — the state is still empty when SolveGreedyWithEvaluator
  // builds the evaluator — and compared at the end. Minimum quotas
  // disable it: one item cannot satisfy several minima.
  CandidateProposal single;
  const auto factory = [&](const EvaluatorContext& context)
      -> Result<std::unique_ptr<CandidateEvaluator>> {
    auto evaluator = std::make_unique<ConstrainedEvaluator>(context, spec);
    if (spec.HasQuotas()) {
      PREFCOVER_RETURN_NOT_OK(
          CheckQuotaFeasibility(spec, k, evaluator->members()));
    }
    if (spec.HasBudget() && !spec.HasMinQuotas() && k >= 1) {
      single = evaluator->BestAffordableSingleton();
    }
    return std::unique_ptr<CandidateEvaluator>(std::move(evaluator));
  };
  PREFCOVER_ASSIGN_OR_RETURN(
      Solution greedy, SolveGreedyWithEvaluator(graph, k, greedy_options,
                                                factory,
                                                "constrained-greedy"));

  ConstrainedSolution out;
  out.solution = std::move(greedy);
  if (single.found && single.gain > out.solution.cover) {
    CoverState state(&graph, options.variant);
    state.AddNode(single.node);
    out.solution.items = {single.node};
    out.solution.cover_after_prefix = {state.cover()};
    out.solution.cover = state.cover();
    out.solution.item_contributions = state.TakeItemContributions();
    out.greedy_won = false;
  }
  if (spec.HasQuotas()) out.category_counts.assign(spec.quotas.size(), 0);
  for (NodeId v : out.solution.items) {
    out.total_cost += spec.CostOf(v);
    if (spec.HasQuotas()) ++out.category_counts[spec.categories[v]];
  }
  out.solution.solve_seconds = timer.ElapsedSeconds();
  return out;
}

Result<std::vector<ParetoPoint>> SolveParetoFrontier(
    const PreferenceGraph& graph, const ParetoSweepOptions& options) {
  ConstraintSpec base;
  base.costs = options.costs;
  PREFCOVER_RETURN_NOT_OK(ValidateConstraintSpec(graph, base));
  std::vector<double> budgets = options.budgets;
  for (double b : budgets) {
    if (!std::isfinite(b) || b < 0.0) {
      return Status::InvalidArgument(
          "pareto budgets must be finite and non-negative");
    }
  }
  const size_t n = graph.NumNodes();
  if (budgets.empty()) {
    if (options.num_points == 0) {
      return Status::InvalidArgument("num_points must be >= 1");
    }
    if (n == 0) return std::vector<ParetoPoint>{};
    // Linear schedule from the cheapest single item to the full catalog.
    double min_cost = base.CostOf(0);
    double total = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      min_cost = std::min(min_cost, base.CostOf(v));
      total += base.CostOf(v);
    }
    const size_t p = options.num_points;
    budgets.reserve(p);
    for (size_t i = 0; i < p; ++i) {
      budgets.push_back(p == 1 ? total
                               : min_cost + (total - min_cost) *
                                                static_cast<double>(i) /
                                                static_cast<double>(p - 1));
    }
  }

  ConstrainedCoverOptions solve_options;
  solve_options.variant = options.variant;
  solve_options.max_items = options.max_items;
  std::vector<ParetoPoint> points;
  points.reserve(budgets.size());
  for (double budget : budgets) {
    ConstraintSpec spec = base;
    spec.budget = budget;
    PREFCOVER_ASSIGN_OR_RETURN(ConstrainedSolution solved,
                               SolveConstrainedCover(graph, spec,
                                                     solve_options));
    ParetoPoint point;
    point.budget = budget;
    point.total_cost = solved.total_cost;
    point.cover = solved.solution.cover;
    point.items = std::move(solved.solution.items);
    points.push_back(std::move(point));
  }

  // Non-dominated filter: ascending cost, strictly increasing cover.
  // Ties on cost keep the highest cover (then the smallest budget, so
  // the output is deterministic in the schedule order too).
  std::stable_sort(points.begin(), points.end(),
                   [](const ParetoPoint& a, const ParetoPoint& b) {
                     if (a.total_cost != b.total_cost) {
                       return a.total_cost < b.total_cost;
                     }
                     if (a.cover != b.cover) return a.cover > b.cover;
                     return a.budget < b.budget;
                   });
  std::vector<ParetoPoint> frontier;
  double best_cover = kNegInf;
  for (ParetoPoint& point : points) {
    if (point.cover > best_cover) {
      best_cover = point.cover;
      frontier.push_back(std::move(point));
    }
  }
  return frontier;
}

}  // namespace prefcover
