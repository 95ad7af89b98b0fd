// The worker half of the distributed sharded greedy solve: owns one
// contiguous candidate shard of the graph and answers the dist protocol
// (src/dist/protocol.h) — `init` rebuilds a full-graph CoverState plus a
// CelfShardEngine over the shard, `propose` runs bound-ordered lazy CELF
// locally and returns the shard's exact top kProposeDepth candidates with
// a bound on the rest, `commit` applies a batch of committed winners (any
// shard's) so the local residuals track the global retained set.
//
// The worker is deliberately state-per-process, not state-per-connection:
// a coordinator whose connection dies mid-solve reconnects (the
// ResilientClient path) and finds its solve exactly where it left it —
// the commit sequence number plus the one-deep replay cache make retried
// `commit`s exactly-once, and `propose` is naturally repeatable.
//
// Threading: one session at a time. The CLI's dist-worker accept loop is
// serial (one coordinator per worker is the topology), so HandleLine
// needs no locking.

#ifndef PREFCOVER_DIST_WORKER_H_
#define PREFCOVER_DIST_WORKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/candidate_evaluator.h"
#include "core/cover_state.h"
#include "graph/preference_graph.h"
#include "util/bitset.h"
#include "util/status.h"

namespace prefcover {
namespace dist {

/// \brief One worker's in-memory solve state, driven line-by-line.
/// Transport-agnostic: the CLI serves it over TCP via
/// serve::ServeLineSessionLoop, tests call HandleLine directly.
class DistWorker {
 public:
  /// The graph must outlive the worker (loaded once per process; `init`
  /// validates the coordinator's digest against it).
  explicit DistWorker(const PreferenceGraph* graph);
  ~DistWorker();

  /// Answers one protocol line (no newline). Sets *stop_session on
  /// `quit`/`shutdown`, *stop_server on `shutdown`. Malformed or
  /// out-of-sequence requests get `ERR ...` replies; the worker itself
  /// never enters a broken state (a bad `init` leaves it uninitialized,
  /// a bad `commit` leaves the previous state intact).
  std::string HandleLine(const std::string& line, bool* stop_session,
                         bool* stop_server);

  /// True after a successful `init`.
  bool initialized() const { return state_ != nullptr; }

  /// Commits applied since `init` (the replay sequence number).
  uint64_t seq() const { return seq_; }

 private:
  std::string HandleHello();
  std::string HandleInit(const std::string& args);
  std::string HandlePropose(const std::string& args);
  std::string HandleCommit(const std::string& args);
  std::string HandleCkpt();
  std::string HandleStats();

  // Runs the engine's (repeatable) ProposeTop for the current round and
  // formats the shared proposal key/values (`found= [node= gain=] more=
  // bound= evals= pops= stale= refills=`) used by both the `propose`
  // reply and the piggyback on the `commit` reply.
  std::string ProposalFields();

  const PreferenceGraph* graph_;

  // Solve state; null until the first successful `init`.
  std::unique_ptr<CoverState> state_;
  Bitset excluded_;
  std::unique_ptr<CelfShardEngine> engine_;
  std::vector<NodeId> prefix_;  // every committed selection, in order
  uint64_t seq_ = 0;            // == prefix_.size()
  uint64_t k_ = 0;              // solve budget, bounds the piggyback
  // One-deep replay cache for retries: the last applied commit's seq,
  // list and reply.
  uint64_t last_commit_seq_ = 0;
  std::vector<NodeId> last_commit_nodes_;
  std::string last_commit_reply_;
  EvaluatorCounters totals_;       // cumulative since init, for `stats`
};

#if defined(__unix__) || defined(__APPLE__)

/// \brief Serves one DistWorker over TCP: binds `port` (0 = ephemeral),
/// prints `DIST_WORKER_PORT=<port>` on stdout (flushed, so a launcher
/// can parse it from a pipe), then accepts coordinator connections
/// serially — worker state persists across connections — until a
/// `shutdown` verb arrives. Returns only then (or on a listen error).
Status RunDistWorkerServer(const PreferenceGraph& graph, uint16_t port);

#endif  // __unix__ || __APPLE__

}  // namespace dist
}  // namespace prefcover

#endif  // PREFCOVER_DIST_WORKER_H_
