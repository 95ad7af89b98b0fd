// The coordinator half of the distributed sharded greedy solve.
//
// SolveGreedyDistributed is the generic greedy driver
// (core/greedy_solver.h, SolveGreedyWithEvaluator) over
// DistributedCandidateEvaluator: candidates are partitioned into
// contiguous shards across worker processes, each worker runs
// bound-ordered lazy CELF over its shard against a full-graph residual
// state, and each fan-out round the coordinator merges the per-shard
// exact top lists — max gain, ties toward the smaller node id, the
// canonical tie-break. Because the max of per-shard exact argmaxes IS the
// global exact argmax (the GreeDIMM decomposition), the first merged
// entry is the round's winner; later entries whose gain beats every
// shard's bound on its unsent candidates, and whose in-neighbourhood no
// earlier entry touched, are the exact winners of the following rounds.
// The driver takes that batch one item per round and one commit
// broadcasts it, so the selection sequence is byte-identical to
// SolveGreedyLazy for any worker count (DISTRIBUTED.md has the proof).
//
// Failure model (asserted by tests/dist/dist_chaos_test.cc): each verb
// travels through serve::ResilientClient, so transient faults (injected
// via the net.* failpoints or real) are retried transparently — worker
// state persists across connections and `commit` is exactly-once, so a
// reconnect-retry is always safe. A worker that stays unreachable past
// the client's retry budget is declared dead; the coordinator then
// re-partitions the candidate range over the survivors and re-inits them
// from the committed prefix (the PR 4 checkpoint resume semantics, over
// the wire), and the round is retried. The solve fails only when every
// worker is gone.
//
// POSIX-only, like the serve transport it rides on.

#ifndef PREFCOVER_DIST_DISTRIBUTED_SOLVER_H_
#define PREFCOVER_DIST_DISTRIBUTED_SOLVER_H_

#if defined(__unix__) || defined(__APPLE__)

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/greedy_solver.h"
#include "core/solution.h"
#include "graph/preference_graph.h"
#include "serve/client.h"
#include "util/simd_dispatch.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace dist {

/// \brief Where one worker process listens.
struct DistWorkerEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// \brief Coordinator knobs.
struct DistSolveOptions {
  /// One entry per worker process; must be non-empty. Shards are assigned
  /// contiguously in this order.
  std::vector<DistWorkerEndpoint> workers;

  /// Kernel dispatch tier the workers solve at (every tier is
  /// bit-identical, so this is purely a performance knob). Parsed with
  /// ParseSimdLevel; empty = the workers' own default dispatch.
  std::string simd_level = "";

  /// Template for each worker's ResilientClient (host/port and a
  /// per-worker jitter seed are overridden). The defaults suit loopback;
  /// raise request_timeout_ms for solves whose init replays a long
  /// prefix.
  serve::ResilientClientOptions client;

  /// Fan-out pool for the per-round propose/commit broadcasts; nullptr
  /// degrades to a serial loop (same result, one RTT per worker).
  ThreadPool* pool = nullptr;

  /// Test seam: called at the top of every selection round (also the
  /// ones served from a batch, without wire traffic) with the number of
  /// selections committed so far. The chaos harness uses it to kill a
  /// worker mid-solve at a deterministic point.
  std::function<void(size_t committed)> on_round;
};

/// \brief Builds the coordinator-side CandidateEvaluator. Exposed for
/// composition with SolveGreedyWithEvaluator in tests; SolveGreedyDistributed
/// is the packaged entry point. Fails when no worker is reachable or an
/// init cross-check (instance digest, replayed cover) mismatches.
CandidateEvaluatorFactory MakeDistributedEvaluatorFactory(
    const DistSolveOptions& dist_options);

/// \brief Distributed sharded greedy. Byte-identical to SolveGreedyLazy
/// (items, cover curve, item contributions) for any worker count;
/// `Solution::stats.algorithm` is "greedy-dist".
Result<Solution> SolveGreedyDistributed(const PreferenceGraph& graph,
                                        size_t k,
                                        const GreedyOptions& options,
                                        const DistSolveOptions& dist_options);

}  // namespace dist
}  // namespace prefcover

#endif  // __unix__ || __APPLE__

#endif  // PREFCOVER_DIST_DISTRIBUTED_SOLVER_H_
