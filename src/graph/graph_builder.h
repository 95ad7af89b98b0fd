// Mutable builder producing validated immutable PreferenceGraphs.

#ifndef PREFCOVER_GRAPH_GRAPH_BUILDER_H_
#define PREFCOVER_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/preference_graph.h"
#include "util/status.h"

namespace prefcover {

/// \brief Validation applied by GraphBuilder::Finalize.
struct GraphValidationOptions {
  /// Require node weights to sum to 1 within `weight_sum_tolerance`
  /// (the paper's probability-distribution requirement). Transform
  /// intermediates may disable this.
  bool require_normalized_node_weights = true;

  /// Require the sum of outgoing edge weights of each node to be <= 1
  /// (+tolerance). Mandatory for the Normalized variant; meaningless for
  /// the Independent variant.
  bool require_normalized_out_weights = false;

  /// Reject self-loops (an item is trivially its own alternative; the only
  /// legitimate self-loops are those added by the VC_k reduction, which
  /// allows them explicitly).
  bool allow_self_loops = false;

  double weight_sum_tolerance = 1e-6;
};

/// \brief A graph's out-CSR before validation: what GraphBuilder buckets
/// its edges into, and what the .pcg decoder reads straight from a file.
struct OutCsr {
  std::vector<double> node_weights;
  std::vector<std::string> labels;  // empty or one per node
  // Node v's list is [offsets[v], offsets[v+1]) of targets/weights.
  std::vector<size_t> offsets;  // size n+1
  std::vector<NodeId> targets;
  std::vector<double> weights;
};

/// \brief Accumulates nodes and edges, then validates and freezes them into
/// CSR form.
///
/// Usage:
///   GraphBuilder b;
///   NodeId a = b.AddNode(0.33, "A");
///   ...
///   PREFCOVER_RETURN_NOT_OK(b.AddEdge(a, bnode, 0.66));
///   PREFCOVER_ASSIGN_OR_RETURN(PreferenceGraph g, b.Finalize());
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes internal storage.
  void Reserve(size_t num_nodes, size_t num_edges);

  /// Adds a node with request probability `weight`; returns its id.
  /// Weight range is validated at Finalize.
  NodeId AddNode(double weight, std::string label = "");

  /// Adds `count` unlabeled nodes with weight 0 (weights can be set later
  /// via SetNodeWeight); returns the id of the first.
  NodeId AddNodes(size_t count);

  /// Overwrites the weight of an existing node.
  Status SetNodeWeight(NodeId v, double weight);

  /// Adds edge (from, to) with alternative-probability `weight`.
  /// Returns InvalidArgument for unknown endpoints; weight range and
  /// duplicate detection happen at Finalize.
  Status AddEdge(NodeId from, NodeId to, double weight);

  /// If the edge exists, adds `weight` to it; otherwise creates it.
  /// Used by construction pipelines that accumulate fractional counts.
  /// Accumulation only tracks edges added through this method: mixing
  /// AddEdge and AddOrAccumulateEdge on the same endpoint pair creates a
  /// duplicate, which Finalize rejects.
  Status AddOrAccumulateEdge(NodeId from, NodeId to, double weight);

  /// Divides all node weights by their sum so they form a distribution.
  /// Returns FailedPrecondition if the sum is not positive.
  Status NormalizeNodeWeights();

  size_t NumNodes() const { return node_weights_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Validates and produces the immutable graph. The builder is left
  /// empty and reusable afterwards, whether or not validation passed.
  Result<PreferenceGraph> Finalize(
      const GraphValidationOptions& options = GraphValidationOptions());

  /// The one finalize routine, behind Finalize() and the .pcg decoder:
  /// validates weights and edges, sorts any adjacency list not already
  /// in ascending target order (rejecting repeated edges), then builds
  /// the in-CSR, the static gain-bound index and the digest. `digest`,
  /// when given, must be the digest of `csr` exactly as passed; it is
  /// kept if no list needed sorting and recomputed otherwise.
  static Result<PreferenceGraph> FinalizeCsr(
      OutCsr csr, const GraphValidationOptions& options,
      std::optional<uint64_t> digest = std::nullopt);

 private:
  struct Edge {
    NodeId from;
    NodeId to;
    double weight;
  };

  std::vector<double> node_weights_;
  std::vector<std::string> labels_;
  std::vector<Edge> edges_;
  // (from << 32 | to) -> index into edges_, for AddOrAccumulateEdge.
  std::unordered_map<uint64_t, size_t> edge_index_;
};

}  // namespace prefcover

#endif  // PREFCOVER_GRAPH_GRAPH_BUILDER_H_
