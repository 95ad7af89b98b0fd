// Crash-safe checkpointing of greedy solves.
//
// Algorithm 1 is incremental: after j selections the state is entirely
// determined by the (ordered) selected prefix, so a checkpoint is just
//
//   (graph digest, options hash, variant, k, selected prefix)
//
// and resume is "replay AddNode over the prefix, then keep searching".
// Because every greedy execution breaks ties deterministically (smaller
// node id), the resumed run re-joins the exact selection order of an
// uninterrupted run — killed-and-resumed solves are byte-identical to
// never-killed ones (asserted by tests/integration/kill_resume_test.cc).
//
// File format (little-endian; see ROBUSTNESS.md for the layout diagram):
//
//   offset  size  field
//   0       8     magic "PCCKPT01"
//   8       4     version (currently 1)
//   12      8     graph digest   (GraphDigest of the instance)
//   20      8     options hash   (GreedyOptionsHash: k, variant,
//                                 stop_at_cover, force lists)
//   28      1     variant        (0 independent, 1 normalized)
//   29      8     budget k
//   37      8     prefix length P
//   45      4*P   prefix node ids, selection order
//   45+4P   4     CRC-32 (IEEE) over bytes [0, 45+4P)
//
// Checkpoints are written via util::WriteFileAtomic, so a crash at any
// instant leaves either the previous checkpoint or the new one — never a
// torn file. The CRC footer additionally rejects bit rot and files from
// foreign tools.

#ifndef PREFCOVER_CORE_CHECKPOINT_H_
#define PREFCOVER_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/greedy_solver.h"
#include "core/variant.h"
#include "graph/preference_graph.h"
#include "util/status.h"

namespace prefcover {

/// \brief Names of the counters the checkpoint layer publishes in
/// obs::MetricsRegistry::Global().
namespace checkpoint_metric {
inline constexpr char kWrites[] = "checkpoint.writes";
inline constexpr char kBytes[] = "checkpoint.bytes";
inline constexpr char kWriteFailures[] = "checkpoint.write_failures";
inline constexpr char kResumes[] = "checkpoint.resumes";
}  // namespace checkpoint_metric

/// \brief A solver checkpoint: enough to resume, plus enough to refuse
/// resuming against the wrong instance.
struct Checkpoint {
  uint64_t graph_digest = 0;
  uint64_t options_hash = 0;
  Variant variant = Variant::kIndependent;
  uint64_t k = 0;
  std::vector<NodeId> prefix;  // selection order
};

/// \brief Order-sensitive FNV-1a digest of a preference graph (node
/// count, weights, CSR adjacency with edge weights): PreferenceGraph::
/// Digest, which the graph computes once when it is finalized. O(1).
inline uint64_t GraphDigest(const PreferenceGraph& graph) {
  return graph.Digest();
}

/// \brief Digest of everything that determines the greedy selection
/// order: k, variant, stop_at_cover, force_include, force_exclude.
/// Deliberately excludes seed_heap_capacity/threads (every execution
/// selects the identical sequence) and the checkpoint/cancel fields
/// themselves, so a resume may use a different execution, pool width or
/// cadence.
uint64_t GreedyOptionsHash(const GreedyOptions& options, size_t k);

/// \brief Serializes `checkpoint` and atomically replaces `path`.
Status WriteCheckpoint(const std::string& path,
                       const Checkpoint& checkpoint);

/// \brief Loads and integrity-checks a checkpoint file (magic, version,
/// CRC, internal consistency). Fails with Corruption on any mismatch.
Result<Checkpoint> ReadCheckpoint(const std::string& path);

/// \brief Validates `checkpoint` against the instance about to resume:
/// graph digest, options hash, variant and k must match, and the prefix
/// must be a plausible selection (distinct, in range, within budget,
/// disjoint from force_exclude). Returns the prefix to install as
/// `CheckpointConfig::resume_prefix`, or FailedPrecondition describing
/// the first mismatch.
Result<std::vector<NodeId>> ValidateCheckpointForResume(
    const Checkpoint& checkpoint, const PreferenceGraph& graph, size_t k,
    const GreedyOptions& options);

}  // namespace prefcover

#endif  // PREFCOVER_CORE_CHECKPOINT_H_
