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
#include <unordered_map>
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
class StreamingGraphBuilder {
 public:
  explicit StreamingGraphBuilder(
      const GraphConstructionOptions& options = GraphConstructionOptions());

  /// Counts one session. Its item ids must come from the dictionary later
  /// passed to Finish. Sessions without a purchase count only as sessions.
  void AddSession(const Session& session);

  /// Observed totals so far.
  uint64_t sessions_seen() const { return sessions_seen_; }
  uint64_t purchases_seen() const { return purchases_seen_; }

  /// Builds the preference graph from the accumulated statistics, with one
  /// node per item of `dictionary`. The builder remains usable (more
  /// sessions may be added and Finish called again).
  Result<PreferenceGraph> Finish(const ItemDictionary& dictionary) const;

 private:
  GraphConstructionOptions options_;
  std::vector<uint64_t> purchase_count_;
  std::unordered_map<uint64_t, double> pair_mass_;
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
