// The Data Adaptation Engine: preference-graph construction from
// clickstream data (paper Section 5.2 / Figure 3).
//
// Rules, following the paper exactly:
//   - node weights: an item's share of all purchases;
//   - an edge A -> B exists iff some session purchased A and clicked B;
//     its weight is the fraction of A-purchase sessions in which B was
//     clicked (clicks are "intention to buy as an alternative");
//   - for the Normalized variant, a session with t > 1 clicked
//     alternatives counts each as a 1/t-fraction of a click, so per-node
//     outgoing weights sum to at most 1;
//   - sessions without a purchase carry no intent and are skipped.

#ifndef PREFCOVER_CLICKSTREAM_GRAPH_CONSTRUCTION_H_
#define PREFCOVER_CLICKSTREAM_GRAPH_CONSTRUCTION_H_

#include "clickstream/clickstream.h"
#include "core/variant.h"
#include "graph/preference_graph.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace prefcover {

/// \brief Tuning knobs for graph construction.
struct GraphConstructionOptions {
  /// Which variant's counting semantics to apply (Normalized uses the
  /// 1/t fractional-click rule).
  Variant variant = Variant::kIndependent;

  /// Drop edges whose weight comes out below this floor. Rarely-clicked
  /// pairings are noise (the paper: "rarely clicked items ... have
  /// negligible influence"); 0 keeps everything.
  double min_edge_weight = 0.0;

  /// Drop edges out of items with fewer purchases than this (weight
  /// estimates from a handful of sessions are unreliable). 0 keeps all.
  size_t min_purchases_for_edges = 0;

  /// Dwell-time correction (paper Section 5.2's suggested refinement:
  /// clicks overestimate purchase intent; "the amount of time spent
  /// viewing each item" separates consideration from idle browsing).
  /// When > 0 and a session carries dwell data, each click contributes
  /// min(1, dwell / dwell_saturation_seconds) instead of a full count.
  /// Sessions without dwell data always contribute full clicks.
  double dwell_saturation_seconds = 0.0;

  /// Cooperative cancellation for the streaming construction: checked at
  /// session-flush boundaries; a tripped token makes
  /// BuildPreferenceGraphStreaming return Status::Cancelled (unlike a
  /// solve, a half-built graph has no useful prefix to salvage). The
  /// in-memory BuildPreferenceGraph ignores it. nullptr disables.
  const CancelToken* cancel = nullptr;
};

/// \brief Builds the preference graph by feeding every session to a
/// StreamingGraphBuilder, the counting the streaming construction uses.
/// Node ids equal the clickstream's ItemIds; every dictionary item becomes
/// a node (possibly weight 0 when it was clicked but never purchased);
/// labels carry the dictionary names.
///
/// Fails with FailedPrecondition when the clickstream contains no items or
/// no purchases.
Result<PreferenceGraph> BuildPreferenceGraph(
    const Clickstream& clickstream,
    const GraphConstructionOptions& options = GraphConstructionOptions());

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_GRAPH_CONSTRUCTION_H_
