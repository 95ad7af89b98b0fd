#include "graph/preference_graph.h"

#include "util/hash.h"

namespace prefcover {

PreferenceGraph::PreferenceGraph() { digest_ = ComputeDigest(); }

uint64_t PreferenceGraph::ComputeDigest() const {
  Fnv1a hash;
  const uint64_t n = NumNodes();
  const uint64_t m = NumEdges();
  hash.UpdateScalar(n);
  hash.UpdateScalar(m);
  hash.Update(node_weights_.data(), node_weights_.size() * sizeof(double));
  for (NodeId v = 0; v < n; ++v) {
    AdjacencyView adj = OutNeighbors(v);
    hash.UpdateScalar(static_cast<uint32_t>(adj.size()));
    for (size_t i = 0; i < adj.size(); ++i) {
      hash.UpdateScalar(adj.nodes[i]);
      hash.UpdateScalar(adj.weights[i]);
    }
  }
  return hash.digest();
}

double PreferenceGraph::OutWeightSum(NodeId v) const {
  AdjacencyView out = OutNeighbors(v);
  double sum = 0.0;
  for (double w : out.weights) sum += w;
  return sum;
}

double PreferenceGraph::TotalNodeWeight() const {
  double sum = 0.0;
  for (double w : node_weights_) sum += w;
  return sum;
}

size_t PreferenceGraph::MaxInDegree() const {
  size_t d = 0;
  for (NodeId v = 0; v < NumNodes(); ++v) {
    size_t dv = InDegree(v);
    if (dv > d) d = dv;
  }
  return d;
}

double PreferenceGraph::EdgeWeight(NodeId v, NodeId u) const {
  AdjacencyView out = OutNeighbors(v);
  for (size_t i = 0; i < out.size(); ++i) {
    if (out.nodes[i] == u) return out.weights[i];
  }
  return 0.0;
}

bool PreferenceGraph::HasEdge(NodeId v, NodeId u) const {
  AdjacencyView out = OutNeighbors(v);
  for (NodeId t : out.nodes) {
    if (t == u) return true;
  }
  return false;
}

std::string PreferenceGraph::DisplayName(NodeId v) const {
  if (HasLabels()) return labels_[v];
  return "item" + std::to_string(v);
}

}  // namespace prefcover
