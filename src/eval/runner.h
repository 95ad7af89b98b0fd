// Shared experiment-harness pieces: running a suite of solvers over one
// instance and collecting comparable rows. Used by every bench binary.

#ifndef PREFCOVER_EVAL_RUNNER_H_
#define PREFCOVER_EVAL_RUNNER_H_

#include <string>
#include <vector>

#include "core/constrained_solver.h"
#include "core/greedy_solver.h"
#include "core/solution.h"
#include "core/variant.h"
#include "graph/preference_graph.h"
#include "util/random.h"
#include "util/status.h"

namespace prefcover {

/// \brief Solver identifiers for suite runs; mirrors the paper's
/// competitor list (Section 5.3).
enum class Algorithm {
  kGreedy,              // plain Algorithm 1
  kGreedyLazy,          // CELF execution of Algorithm 1 (same output)
  kGreedyParallel,      // thread-pooled execution of Algorithm 1 (same output)
  kGreedyLazyParallel,  // CELF, seed sweep on a thread pool (same output)
  kConstrainedGreedy,   // cost-ratio greedy under a ConstraintSpec
  kBruteForce,
  kTopKWeight,
  kTopKCoverage,
  kRandom,          // best of 10 draws, as the paper reports
};

/// "Greedy", "BF", "TopK-W", "TopK-C", "Random", ... (paper naming).
std::string AlgorithmDisplayName(Algorithm algorithm);

/// \brief One solver's outcome on one instance.
struct SuiteEntry {
  Algorithm algorithm;
  Solution solution;
};

/// \brief Runs `algorithm` on the instance. `rng` is used by Random only;
/// `num_threads` by the parallel greedy executions only.
///
/// Every run is wrapped in an `eval.run_algorithm` trace span (category
/// `eval`), so traces of CLI/bench solves show the experiment phase above
/// the solver's own spans.
Result<Solution> RunAlgorithm(Algorithm algorithm,
                              const PreferenceGraph& graph, size_t k,
                              Variant variant, Rng* rng,
                              size_t num_threads = 1);

/// \brief As above, but with full greedy options (stop_at_cover,
/// force_include, seed_heap_capacity, ...) for the greedy family;
/// `options.variant` is used for every algorithm. This is the entry point
/// the CLI uses so traced solves carry the eval phase span.
Result<Solution> RunAlgorithm(Algorithm algorithm,
                              const PreferenceGraph& graph, size_t k,
                              const GreedyOptions& options, Rng* rng,
                              size_t num_threads = 1);

/// \brief As above with a ConstraintSpec (budget / costs / quotas),
/// honored by kConstrainedGreedy only — the CLI's entry point for
/// `solve --budget/--costs/--quota`. Other algorithms reject a
/// non-default spec (they cannot honor it), and kConstrainedGreedy
/// rejects greedy-only options (force lists, stop_at_cover, resume).
/// With a default spec, kConstrainedGreedy is plain greedy in
/// constrained clothing — byte-identical to SolveGreedy.
Result<Solution> RunAlgorithm(Algorithm algorithm,
                              const PreferenceGraph& graph, size_t k,
                              const GreedyOptions& options,
                              const ConstraintSpec& spec, Rng* rng,
                              size_t num_threads = 1);

/// \brief Runs each algorithm on the same instance.
///
/// `cancel` is threaded into the greedy family (their solves become
/// anytime) and checked between algorithms: once it trips, remaining
/// algorithms are skipped and the entries finished so far are returned —
/// like a truncated solve, a cancelled suite is a valid prefix, not an
/// error. (If the token trips before the first algorithm completes, that
/// first — possibly truncated — entry is still produced.)
Result<std::vector<SuiteEntry>> RunSuite(
    const std::vector<Algorithm>& algorithms, const PreferenceGraph& graph,
    size_t k, Variant variant, Rng* rng, size_t num_threads = 1,
    const CancelToken* cancel = nullptr);

}  // namespace prefcover

#endif  // PREFCOVER_EVAL_RUNNER_H_
