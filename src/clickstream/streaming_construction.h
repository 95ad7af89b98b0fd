// Streaming preference-graph construction: one pass over a clickstream
// CSV of any size, without materializing the sessions in memory.
//
// The paper's private corpora are tens of millions of sessions; loading
// them as a Clickstream costs gigabytes. The streaming construction reads
// the CSV through the same decoder as ReadClickstreamCsv
// (DecodeClickstreamCsv) and counts each session as it finishes, holding
// only the per-(purchase, alternative) fractional counts. The in-memory
// BuildPreferenceGraph feeds its sessions to the same builder, so the two
// graphs are bit-identical on the same data (asserted in tests).

#ifndef PREFCOVER_CLICKSTREAM_STREAMING_CONSTRUCTION_H_
#define PREFCOVER_CLICKSTREAM_STREAMING_CONSTRUCTION_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "clickstream/graph_construction.h"
#include "clickstream/session.h"
#include "util/status.h"

namespace prefcover {

/// \brief The one counting rule of graph construction (graph_construction.h
/// states it): feed sessions, then Finish().
///
/// Also usable directly by live systems that receive sessions one at a
/// time (e.g. from a message queue) rather than from a file.
///
/// Counting allocates nothing per session once its tables have grown: a
/// session's distinct alternatives are collected in place, each with its
/// longest dwell, through a per-item stamp into one reused vector, and
/// pair mass is summed in one flat open-addressing table keyed
/// (purchase << 32) | alternative. Each pair's mass still adds in session
/// order and Finish sorts every adjacency list, so the graph does not
/// depend on the table's layout.
class StreamingGraphBuilder {
 public:
  explicit StreamingGraphBuilder(
      const GraphConstructionOptions& options = GraphConstructionOptions());

  /// Counts one session. Its item ids must come from the dictionary later
  /// passed to Finish. Sessions without a purchase count only as sessions.
  void AddSession(const SessionView& session);

  /// Observed totals so far.
  uint64_t sessions_seen() const { return sessions_seen_; }
  uint64_t purchases_seen() const { return purchases_seen_; }

  /// Builds the preference graph from the accumulated statistics, with one
  /// node per item of `dictionary`. The builder remains usable (more
  /// sessions may be added and Finish called again).
  Result<PreferenceGraph> Finish(const ItemDictionary& dictionary) const;

 private:
  /// A distinct alternative of the session being counted, with the
  /// longest dwell among its clicks (-1 when the session has no dwell).
  struct Alternative {
    ItemId item;
    double dwell;
  };
  /// Per item: the purchase session (by purchases_seen_) that last
  /// listed it in alternatives_, and at which index.
  struct Stamp {
    uint64_t session = 0;
    uint32_t index = 0;
  };
  /// One slot of the pair-mass table; kEmptyPair marks a free slot.
  struct PairMass {
    uint64_t key;
    double mass;
  };

  /// Adds `mass` to the pair `key`, doubling the table first if the
  /// pair would fill more than half of it.
  void AddPairMass(uint64_t key, double mass);

  GraphConstructionOptions options_;
  std::vector<uint64_t> purchase_count_;
  std::vector<Stamp> stamps_;
  std::vector<Alternative> alternatives_;
  std::vector<PairMass> pair_mass_;  // power-of-two size
  size_t num_pairs_ = 0;
  uint64_t sessions_seen_ = 0;
  uint64_t purchases_seen_ = 0;
};

/// \brief One-pass construction from an event-CSV stream (the format of
/// clickstream_io.h, read by the same decoder as ReadClickstreamCsv).
///
/// The one difference from ReadClickstreamCsv: a session id that
/// reappears after other sessions starts a new session rather than being
/// rejected, because remembering every finished id would make the pass's
/// memory grow with the session count (and cost 15-37% more time).
///
/// Bumps the counters clickstream.rows, .sessions, .purchases and .edges
/// once per call, from its totals.
Result<PreferenceGraph> BuildPreferenceGraphStreaming(
    std::istream* events,
    const GraphConstructionOptions& options = GraphConstructionOptions());

/// File-path convenience.
Result<PreferenceGraph> BuildPreferenceGraphStreamingFile(
    const std::string& path,
    const GraphConstructionOptions& options = GraphConstructionOptions());

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_STREAMING_CONSTRUCTION_H_
