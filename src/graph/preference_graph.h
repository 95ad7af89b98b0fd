// The preference graph of the Preference Cover problem (paper Section 2).
//
// A directed graph with weighted nodes and edges:
//   - node weight W(v) in [0, 1]: probability item v is the one requested
//     (node weights sum to 1 over the catalog);
//   - edge weight W(v, u) in (0, 1]: probability a consumer requesting v
//     accepts u as an alternative when v is not retained.
//
// Storage is immutable compressed-sparse-row in BOTH orientations. The
// greedy solver's Gain/AddNode procedures iterate the *incoming* edges of a
// candidate (all nodes that list the candidate as an alternative), while
// construction and cover evaluation iterate outgoing edges; keeping both
// CSRs makes each access contiguous.

#ifndef PREFCOVER_GRAPH_PREFERENCE_GRAPH_H_
#define PREFCOVER_GRAPH_PREFERENCE_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/logging.h"

namespace prefcover {

/// Dense node identifier in [0, NumNodes).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// \brief One adjacency list: parallel spans of endpoints and weights.
struct AdjacencyView {
  std::span<const NodeId> nodes;
  std::span<const double> weights;

  size_t size() const { return nodes.size(); }
  bool empty() const { return nodes.empty(); }
};

/// \brief Immutable weighted directed preference graph.
///
/// Construct via GraphBuilder (graph_builder.h). Copyable (deep) and
/// movable; all read accessors are thread-safe.
class PreferenceGraph {
 public:
  /// The empty graph.
  PreferenceGraph();

  size_t NumNodes() const { return node_weights_.size(); }
  size_t NumEdges() const { return out_targets_.size(); }

  /// W(v): request probability of item v.
  double NodeWeight(NodeId v) const {
    PREFCOVER_DCHECK(v < NumNodes());
    return node_weights_[v];
  }

  /// All node weights, indexable by NodeId.
  std::span<const double> NodeWeights() const { return node_weights_; }

  /// Outgoing alternatives of v: nodes u with an edge (v, u) and W(v, u).
  AdjacencyView OutNeighbors(NodeId v) const {
    PREFCOVER_DCHECK(v < NumNodes());
    size_t b = out_offsets_[v], e = out_offsets_[v + 1];
    return {std::span(out_targets_).subspan(b, e - b),
            std::span(out_weights_).subspan(b, e - b)};
  }

  /// Incoming edges of v: nodes u with an edge (u, v) and W(u, v).
  AdjacencyView InNeighbors(NodeId v) const {
    PREFCOVER_DCHECK(v < NumNodes());
    size_t b = in_offsets_[v], e = in_offsets_[v + 1];
    return {std::span(in_sources_).subspan(b, e - b),
            std::span(in_weights_).subspan(b, e - b)};
  }

  /// Position of v's first incoming edge in the in-CSR edge order; the
  /// index base for edge-parallel side tables (e.g. the coverage
  /// kernels' static gain table).
  size_t InEdgeOffset(NodeId v) const {
    PREFCOVER_DCHECK(v < NumNodes());
    return in_offsets_[v];
  }

  /// Raw in-CSR arrays, for kernels that stream every in-edge of a node
  /// range in one pass instead of materializing per-node views: offsets
  /// (size NumNodes()+1; node v's in-edges live at [offsets[v],
  /// offsets[v+1])), sources and weights in in-edge order.
  std::span<const size_t> InEdgeOffsets() const { return in_offsets_; }
  std::span<const NodeId> InEdgeSources() const { return in_sources_; }
  std::span<const double> InEdgeWeights() const { return in_weights_; }

  /// Static per-node upper bound on the greedy marginal gain:
  ///   bound(v) = W(v) + sum over in-edges (u, v), u != v, of W(u)*W(u,v).
  /// Both variants' Gain procedures replace W with the current residual
  /// (Independent) or drop retained terms (Normalized), and residuals
  /// only shrink from W, so Gain(v) <= bound(v) against EVERY retained
  /// set — the bound never needs recomputing as a solve progresses. Built
  /// once at Finalize alongside the in-CSR.
  std::span<const double> StaticGainBounds() const {
    return static_gain_bounds_;
  }

  /// All node ids ordered by descending StaticGainBounds() (ties by
  /// ascending id). A scan in this order can stop as soon as a running
  /// top-T threshold exceeds the next bound — the kernel tiers' heap
  /// seed (core/greedy_solver.cc).
  std::span<const NodeId> NodesByStaticGainBound() const {
    return bound_order_;
  }

  size_t OutDegree(NodeId v) const {
    PREFCOVER_DCHECK(v < NumNodes());
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  size_t InDegree(NodeId v) const {
    PREFCOVER_DCHECK(v < NumNodes());
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Sum of outgoing edge weights of v (== 1 − "no alternative fits"
  /// probability under the Normalized variant).
  double OutWeightSum(NodeId v) const;

  /// Sum of all node weights (1.0 for a well-formed catalog; transforms may
  /// produce unnormalized graphs).
  double TotalNodeWeight() const;

  /// Maximum in-degree D (the paper's complexity parameter in O(nkD)).
  size_t MaxInDegree() const;

  /// Weight of edge (v, u), or 0 when absent. O(out-degree of v).
  double EdgeWeight(NodeId v, NodeId u) const;

  /// True if the edge (v, u) exists.
  bool HasEdge(NodeId v, NodeId u) const;

  /// Order-sensitive FNV-1a digest of the instance: node count, edge
  /// count, node weights, then each node's out-degree and (target,
  /// weight) list. Labels are not part of it. Computed once when the
  /// graph is finalized (a .pcg load takes it from the checksum pass), so
  /// reading it is O(1). Checkpoints, serving indexes and dist workers
  /// compare it to refuse a different instance.
  uint64_t Digest() const { return digest_; }

  /// Optional human-readable item labels. Empty when unlabeled.
  bool HasLabels() const { return !labels_.empty(); }
  const std::string& Label(NodeId v) const {
    PREFCOVER_DCHECK(HasLabels() && v < labels_.size());
    return labels_[v];
  }
  /// Label if present, otherwise "item<id>".
  std::string DisplayName(NodeId v) const;

 private:
  friend class GraphBuilder;

  // Digest() from scratch, over the CSR arrays.
  uint64_t ComputeDigest() const;

  std::vector<double> node_weights_;
  std::vector<size_t> out_offsets_;  // size NumNodes()+1
  std::vector<NodeId> out_targets_;
  std::vector<double> out_weights_;
  std::vector<size_t> in_offsets_;  // size NumNodes()+1
  std::vector<NodeId> in_sources_;
  std::vector<double> in_weights_;
  std::vector<double> static_gain_bounds_;  // size NumNodes()
  std::vector<NodeId> bound_order_;         // ids, descending bound
  std::vector<std::string> labels_;  // empty or size NumNodes()
  uint64_t digest_ = 0;
};

}  // namespace prefcover

#endif  // PREFCOVER_GRAPH_PREFERENCE_GRAPH_H_
