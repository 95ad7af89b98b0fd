// The paper's greedy scheme (Algorithm 1) as one round loop,
// SolveGreedyWithEvaluator, over interchangeable evaluators that only
// change how each round's argmax is computed (core/candidate_evaluator.h):
//
//   - plain:         the scan evaluator without a pool — the literal
//                    O(nkD) loop: each of the k rounds computes every
//                    unretained candidate's Gain;
//   - parallel:      the scan evaluator on a pool — the paper's
//                    parallelization: the per-round scan fans out over N
//                    threads in contiguous chunks, O(k + nkD/N);
//   - lazy:          the CELF evaluator with one CelfShardEngine. Both
//                    variants' cover functions are monotone submodular,
//                    so a candidate's gain only decreases as S grows;
//                    re-evaluating the heap top until it is fresh selects
//                    exactly the plain-greedy argmax;
//   - lazy-parallel: the same engine, whose seed sweep (when the seed
//                    keeps every candidate) runs on the pool; it does
//                    exactly lazy's work (see docs/ALGORITHMS.md).
//
// Ties break to the smaller id in every execution, so all four produce
// byte-identical solutions; so do the constrained solver
// (core/constrained_solver.h) at unit costs and the distributed solve
// (src/dist/), which run the same loop. Every execution fills
// `Solution::stats` (SolverStats) so pruning effectiveness and parallel
// utilization are measurable.
//
// Approximation guarantees (paper Theorems 3.1 / 4.1 and Table 1):
//   Independent: (1 - 1/e), tight unless P = NP.
//   Normalized:  max{(1 - 1/e), 1 - (1 - k/n)^2}.

#ifndef PREFCOVER_CORE_GREEDY_SOLVER_H_
#define PREFCOVER_CORE_GREEDY_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/candidate_evaluator.h"
#include "core/solution.h"
#include "core/variant.h"
#include "graph/preference_graph.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace prefcover {

/// \brief Periodic crash-safe checkpointing of a greedy solve (see
/// core/checkpoint.h for the file format and ROBUSTNESS.md for the
/// model).
///
/// When `path` is set, the solver writes the selected prefix every
/// `every_rounds` selections (and once more if the solve is truncated by
/// cancellation), via util::WriteFileAtomic so a crash never leaves a
/// torn file. A write failure degrades gracefully: the solve continues,
/// logs one warning, and bumps `checkpoint.write_failures` — the
/// solution is never affected by checkpoint IO.
struct CheckpointConfig {
  /// Checkpoint file path; empty disables checkpointing.
  std::string path;

  /// Write cadence in selection rounds (>= 1).
  uint32_t every_rounds = 16;

  /// Selections to replay before the search starts (loaded from a
  /// checkpoint by ReadCheckpoint + ValidateCheckpointForResume). The
  /// greedy prefix property guarantees the resumed run re-joins the
  /// deterministic selection order, so the final solution is identical
  /// to an uninterrupted run. When set, `force_include` is ignored (the
  /// prefix already contains it).
  std::vector<NodeId> resume_prefix;
};

/// \brief Options shared by the greedy-family entry points.
struct GreedyOptions {
  Variant variant = Variant::kIndependent;

  /// Stop early once C(S) reaches this threshold (the complementary
  /// minimization problem of Section 3.2); 1.0 keeps the budget semantics
  /// (C(S) can reach 1 exactly only when S covers everything).
  /// Must not be NaN.
  double stop_at_cover = 2.0;  // > 1 == never stop early

  /// Items that MUST be retained (e.g. contracted with a vendor). They are
  /// selected first, in the given order, and count toward the budget k.
  /// Must be distinct, within range, of size <= k, and disjoint from
  /// force_exclude.
  std::vector<NodeId> force_include;

  /// Items that must NOT be retained (e.g. restricted from cross-border
  /// shipping). They can still be *covered* by retained alternatives.
  /// Must be distinct and within range.
  std::vector<NodeId> force_exclude;

  /// Heap seed capacity T for the lazy executions: the seed keeps only
  /// the top-T candidates by (gain, id) and pulls the cut-off rest back
  /// in through exact threshold refills when the selection front drops
  /// below the cut (counted in `SolverStats::seed_refills`). 0 = default
  /// (1024); N distributed workers keep ceil(T / N) each. The selected
  /// node sequence is identical for every value — this is purely a
  /// performance knob; see core/candidate_evaluator.h for the seed rule
  /// and the exactness argument.
  size_t seed_heap_capacity = 0;

  /// Cooperative cancellation (explicit Cancel() or a deadline). Checked
  /// at round boundaries only: a tripped token stops the search and returns
  /// the best greedy prefix selected so far — never an error, never an
  /// empty solution when at least one selection was possible — with
  /// `Solution::stats.truncated` set and the `solver.cancelled` counter
  /// bumped. nullptr (the default) costs one pointer test per round.
  const CancelToken* cancel = nullptr;

  /// Periodic crash-safe checkpointing / resume; disabled by default.
  CheckpointConfig checkpoint;
};

/// \brief Validates a GreedyOptions instance against the problem size: NaN
/// stop_at_cover, duplicate or out-of-range force_include/force_exclude,
/// overlap between the two lists, force_include larger than k.
/// SolveGreedyWithEvaluator applies exactly this check, so every
/// execution accepts and rejects the same inputs with the same errors.
Status ValidateGreedyOptions(const PreferenceGraph& graph, size_t k,
                             const GreedyOptions& options);

/// \brief Plain greedy (Algorithm 1). k must be <= NumNodes().
Result<Solution> SolveGreedy(const PreferenceGraph& graph, size_t k,
                             const GreedyOptions& options = GreedyOptions());

/// \brief Parallel greedy: each round's candidate scan is split into one
/// contiguous chunk per `pool` thread (nullptr degrades to the plain
/// loop). Produces the same solution as SolveGreedy for any thread count.
Result<Solution> SolveGreedyParallel(
    const PreferenceGraph& graph, size_t k, ThreadPool* pool,
    const GreedyOptions& options = GreedyOptions());

/// \brief Lazy (CELF) greedy. Produces the same solution as SolveGreedy,
/// typically orders of magnitude faster for large n with small k/n.
Result<Solution> SolveGreedyLazy(
    const PreferenceGraph& graph, size_t k,
    const GreedyOptions& options = GreedyOptions());

/// \brief Builds the evaluator a SolveGreedyWithEvaluator run solves
/// against. Called once, after option validation and prefix seeding, with
/// a context whose CoverState already reflects any force_include / resume
/// prefix. Returning an error aborts the solve before any search round.
using CandidateEvaluatorFactory =
    std::function<Result<std::unique_ptr<CandidateEvaluator>>(
        const EvaluatorContext&)>;

/// \brief Algorithm 1's round loop over a CandidateEvaluator: per round
/// — cancellation / stop_at_cover checks, one BestCandidate() argmax,
/// AddNode on the shared state, one CommitWinner() — with prefix
/// seeding, checkpoint cadence, telemetry and Solution assembly.
///
/// Every execution is this loop: the four above over the in-process
/// scan and CELF evaluators, SolveConstrainedCover over a cost-keyed
/// engine, SolveGreedyDistributed (src/dist/) over the coordinator-side
/// evaluator. Any evaluator whose BestCandidate returns the exact
/// (gain, id)-argmax yields the canonical greedy solution, byte-identical
/// across executions.
Result<Solution> SolveGreedyWithEvaluator(
    const PreferenceGraph& graph, size_t k, const GreedyOptions& options,
    const CandidateEvaluatorFactory& factory, const char* algorithm);

/// \brief SolveGreedyLazy whose seed sweep, run when the seed keeps every
/// candidate, is one `pool` dispatch; rounds and a capped seed's walk run
/// on the calling thread. Produces the same solution as SolveGreedy for
/// any thread count, including under force_include/force_exclude and
/// stop_at_cover.
Result<Solution> SolveGreedyLazyParallel(
    const PreferenceGraph& graph, size_t k, ThreadPool* pool,
    const GreedyOptions& options = GreedyOptions());

/// \brief The theoretical greedy approximation guarantee for a problem
/// size (Table 1, "Greedy Algorithm" column):
/// Independent -> 1 - 1/e; Normalized -> max{1 - 1/e, 1 - (1 - k/n)^2}.
double GreedyApproximationGuarantee(Variant variant, size_t k, size_t n);

}  // namespace prefcover

#endif  // PREFCOVER_CORE_GREEDY_SOLVER_H_
