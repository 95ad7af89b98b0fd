// Solver telemetry: every greedy execution drives a run-scoped
// obs::MetricsRegistry while it runs, and SolverStats is the end-of-run
// *view* over that registry (plus the timing fields, which are plain
// doubles measured by the run's stopwatch).
//
// Evaluators accumulate plain integer tallies that the round loop folds
// into the registry once per selection round. At the end of a run the
// totals are also merged into obs::MetricsRegistry::Global() under the
// same names, so a process-wide metrics snapshot (CLI --metrics_out,
// bench harness) accumulates solver work across runs.

#ifndef PREFCOVER_CORE_SOLVER_STATS_H_
#define PREFCOVER_CORE_SOLVER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace prefcover {

/// \brief Names of the counters every greedy execution publishes, both in
/// its run-scoped registry and (merged, cumulative) in the global one.
namespace solver_metric {
inline constexpr char kIterations[] = "solver.iterations";
inline constexpr char kGainEvaluations[] = "solver.gain_evaluations";
inline constexpr char kHeapPops[] = "solver.heap_pops";
inline constexpr char kStaleRefreshes[] = "solver.stale_refreshes";
inline constexpr char kSeedRefills[] = "solver.seed_refills";
inline constexpr char kParallelBatches[] = "solver.parallel_batches";
inline constexpr char kParallelItems[] = "solver.parallel_items";
/// Bumped once per solve that was truncated by cancellation or deadline
/// expiry (global registry only — a run registry would always read 0/1).
inline constexpr char kCancelled[] = "solver.cancelled";
}  // namespace solver_metric

/// \brief Execution counters for one solver run, surfaced in `Solution`.
///
/// Which fields are populated depends on the execution:
///   - every greedy execution fills `iterations`, `gain_evaluations` and
///     the iteration timings;
///   - the lazy executions additionally fill `heap_pops` /
///     `stale_refreshes`;
///   - the pooled executions additionally fill `threads`,
///     `parallel_batches` and `parallel_items`.
struct SolverStats {
  /// Greedy selection rounds performed by the search loop (force_include
  /// seeding is not counted — it performs no candidate search).
  uint64_t iterations = 0;

  /// Calls to `CoverState::GainOf`. The headline pruning metric: lazy
  /// executions should report far fewer than `iterations * n`.
  uint64_t gain_evaluations = 0;

  /// Heap pops in the lazy executions (including pops of retained or
  /// stale entries).
  uint64_t heap_pops = 0;

  /// Popped entries whose gain was stale and had to be re-evaluated.
  uint64_t stale_refreshes = 0;

  /// Full re-sweeps of the candidate gains triggered when the lazy heap's
  /// threshold seed could no longer certify the argmax (see
  /// GreedyOptions::seed_heap_capacity). 0 when every candidate fit in
  /// the seed.
  uint64_t seed_refills = 0;

  /// Pool dispatches (one per round of a pooled execution) and the total
  /// work items they carried (candidates scanned, or shards proposed).
  uint64_t parallel_batches = 0;
  uint64_t parallel_items = 0;

  /// Worker count of the pool the run used (1 for serial executions or a
  /// null pool).
  size_t threads = 1;

  /// Wall time spent inside search iterations, in total and for the single
  /// slowest iteration.
  double total_iteration_seconds = 0.0;
  double max_iteration_seconds = 0.0;

  /// True when the search stopped early because `GreedyOptions::cancel`
  /// tripped (explicit Cancel() or deadline expiry). The solution is the
  /// valid greedy prefix selected up to that point — shorter than k, but
  /// every guarantee about its own length still holds.
  bool truncated = false;

  /// \brief Fills the counter fields from a run-scoped registry snapshot
  /// (the `solver_metric` names); timing/threads fields are left
  /// untouched. This is how the greedy executions build their stats.
  void LoadCounters(const obs::MetricsSnapshot& snapshot);

  /// stale_refreshes / heap_pops — the fraction of pops that needed a
  /// re-evaluation; 0 when nothing was popped.
  double StaleRatio() const;

  /// total_iteration_seconds / iterations; 0 when nothing ran.
  double AvgIterationSeconds() const;

  /// How full the average parallel dispatch kept the pool:
  /// min(1, parallel_items / (parallel_batches * threads)).
  /// 0 when no parallel dispatch happened (or the divisor would be 0).
  double PoolUtilization() const;

  /// One-line human-readable rendering, e.g. for CLI and bench output.
  std::string ToString() const;
};

}  // namespace prefcover

#endif  // PREFCOVER_CORE_SOLVER_STATS_H_
