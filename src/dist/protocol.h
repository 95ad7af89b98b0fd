// Wire protocol of the distributed sharded greedy solve (DISTRIBUTED.md
// has the full narrative; this header is the normative grammar).
//
// Single-line, newline-terminated request/response exchanges over the
// serve transport (src/serve/transport.h) — the same framing, fault
// injection and `@<id>` multiplex tagging as the query protocol, served
// by the same ServeLineSessionLoop. All doubles travel as %.17g, which
// round-trips IEEE-754 binary64 exactly: the coordinator's merge compares
// bit-identical gain values, never re-derived ones.
//
// Verbs (coordinator -> worker):
//
//   hello
//     -> OK hello prefcover-dist v=2 nodes=<n>
//     The coordinator sends it before every init and refuses a worker
//     whose v= differs from its own kProtocolVersion.
//   init shard=<begin>:<end> variant=<name> k=<k> simd=<level>
//        seed_cap=<cap> digest=<u64> opts=<u64> exclude=<csv|->
//        prefix=<csv|->
//     Rebuilds worker state from scratch: a CoverState at <simd>, the
//     exclusion mask, the committed prefix replayed in order (the PR 4
//     checkpoint resume semantics — <digest>/<opts> are GraphDigest /
//     GreedyOptionsHash and the worker refuses a mismatched instance),
//     and a CelfShardEngine over [begin, end). Idempotent.
//     -> OK init seq=<P> cover=<f>
//   propose seq=<s>
//     The shard's exact top kProposeDepth candidates for commit sequence
//     <s>, by (gain desc, id asc), each settled to a fresh gain
//     (repeatable: proposing twice without a commit returns the same
//     list). The head travels as node/gain, the rest as `more`, a
//     comma-separated list of <v>:<gain> pairs ("-" when empty). `bound`
//     is U: no live candidate of the shard outside the list has a gain
//     above it (-inf when none is left). The tallies are the engine's
//     drained work counts, which the coordinator folds into SolverStats.
//     -> OK propose seq=<s> found=<0|1> [node=<v> gain=<f>]
//        more=<v:f,...|-> bound=<f> evals=<u> pops=<u> stale=<u>
//        refills=<u>
//   commit seq=<s> node=<v>[,<v>...]
//     Applies a batch of committed winners (any shard's), in order, as
//     sequences s, s+1, ...: AddNode for each, then the engine round
//     advances. A single winner is a list of length one. The list must
//     name distinct, unretained nodes; a refused list applies none of
//     them. Exactly-once with a replay window: seq == current applies;
//     the previous commit's seq with the same list returns its cached
//     reply byte for byte (a retry after a lost response); anything else
//     is ERR FailedPrecondition and the coordinator must re-init.
//     -> OK commit seq=<s+m> cover=<f> [proposal fields, as propose's,
//        for sequence s+m unless s+m reaches k]
//   ckpt
//     The worker's committed prefix, for coordinator cross-checks and
//     shard re-assignment.
//     -> OK ckpt seq=<P> prefix=<csv|->
//   stats
//     Cumulative work tallies since the last init.
//     -> OK stats seq=<P> evals=<u> pops=<u> stale=<u> refills=<u>
//   quit      ends this connection; worker state persists (a reconnect
//             resumes mid-solve — this is what makes ResilientClient
//             retries safe).
//   shutdown  ends the connection AND the worker process's accept loop.
//
// Errors are the serve protocol's `ERR <Code> <message>` lines.

#ifndef PREFCOVER_DIST_PROTOCOL_H_
#define PREFCOVER_DIST_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_evaluator.h"
#include "graph/preference_graph.h"
#include "util/status.h"

namespace prefcover {
namespace dist {

/// \brief Protocol version spoken by DistWorker; bumped on any breaking
/// grammar change. v=2: propose returns a settled top list plus a bound,
/// and commit carries a list.
inline constexpr int kProtocolVersion = 2;

/// \brief How many settled candidates a worker proposes per round: the
/// most one shard can contribute to a batch the coordinator commits with
/// one fan-out.
inline constexpr size_t kProposeDepth = 8;

/// \brief Names of the global `dist.*` instruments the coordinator
/// publishes (catalog in OBSERVABILITY.md).
namespace dist_metric {
inline constexpr char kRounds[] = "dist.rounds";
inline constexpr char kProposals[] = "dist.proposals";
inline constexpr char kCommits[] = "dist.commits";
inline constexpr char kWorkerFailures[] = "dist.worker_failures";
inline constexpr char kRebalances[] = "dist.rebalances";
inline constexpr char kBytesSent[] = "dist.bytes_sent";
inline constexpr char kBytesReceived[] = "dist.bytes_received";
/// Seconds histogram over one full propose fan-out + merge.
inline constexpr char kMergeSeconds[] = "dist.merge_seconds";
}  // namespace dist_metric

/// \brief %.17g — round-trips binary64 exactly (same formatter as the
/// serve protocol's probabilities).
std::string FormatF64(double value);

/// \brief `key=value` token accessor over a space-separated verb line.
/// Keys are unique per line in this protocol; the first match wins.
class KvArgs {
 public:
  /// Tokenizes everything after the verb word of `line`.
  explicit KvArgs(std::string_view line_after_verb);

  /// The raw value for `key`, or empty-not-found.
  bool Get(std::string_view key, std::string_view* value) const;

  /// Typed accessors: error when missing or malformed.
  Result<uint64_t> GetU64(std::string_view key) const;
  Result<double> GetF64(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// \brief Comma-separated node ids; "-" encodes the empty list (an empty
/// field would be indistinguishable from a missing key).
std::string FormatNodeCsv(std::span<const NodeId> nodes);
Result<std::vector<NodeId>> ParseNodeCsv(std::string_view text);

/// \brief Comma-separated `<v>:<gain>` pairs (gains as FormatF64); "-"
/// encodes the empty list. Parsed entries have `found` set.
std::string FormatScoredCsv(std::span<const CandidateProposal> entries);
Result<std::vector<CandidateProposal>> ParseScoredCsv(std::string_view text);

}  // namespace dist
}  // namespace prefcover

#endif  // PREFCOVER_DIST_PROTOCOL_H_
