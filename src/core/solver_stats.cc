#include "core/solver_stats.h"

#include <algorithm>
#include <cstdio>

#include "util/timer.h"

namespace prefcover {

void SolverStats::LoadCounters(const obs::MetricsSnapshot& snapshot) {
  iterations = snapshot.CounterOr(solver_metric::kIterations);
  gain_evaluations = snapshot.CounterOr(solver_metric::kGainEvaluations);
  heap_pops = snapshot.CounterOr(solver_metric::kHeapPops);
  stale_refreshes = snapshot.CounterOr(solver_metric::kStaleRefreshes);
  seed_refills = snapshot.CounterOr(solver_metric::kSeedRefills);
  parallel_batches = snapshot.CounterOr(solver_metric::kParallelBatches);
  parallel_items = snapshot.CounterOr(solver_metric::kParallelItems);
}

double SolverStats::StaleRatio() const {
  if (heap_pops == 0) return 0.0;
  return static_cast<double>(stale_refreshes) /
         static_cast<double>(heap_pops);
}

double SolverStats::AvgIterationSeconds() const {
  if (iterations == 0) return 0.0;
  return total_iteration_seconds / static_cast<double>(iterations);
}

double SolverStats::PoolUtilization() const {
  if (parallel_batches == 0 || threads == 0) return 0.0;
  double per_dispatch = static_cast<double>(parallel_items) /
                        static_cast<double>(parallel_batches);
  return std::min(1.0, per_dispatch / static_cast<double>(threads));
}

std::string SolverStats::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "iters=%llu gains=%llu pops=%llu stale=%.1f%% "
                "avg-iter=%s max-iter=%s threads=%zu util=%.0f%%",
                static_cast<unsigned long long>(iterations),
                static_cast<unsigned long long>(gain_evaluations),
                static_cast<unsigned long long>(heap_pops),
                StaleRatio() * 100.0,
                FormatDuration(AvgIterationSeconds()).c_str(),
                FormatDuration(max_iteration_seconds).c_str(), threads,
                PoolUtilization() * 100.0);
  std::string out = buffer;
  if (truncated) out += " TRUNCATED";
  return out;
}

}  // namespace prefcover
