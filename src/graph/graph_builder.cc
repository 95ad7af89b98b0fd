#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace prefcover {

void GraphBuilder::Reserve(size_t num_nodes, size_t num_edges) {
  node_weights_.reserve(num_nodes);
  labels_.reserve(num_nodes);
  edges_.reserve(num_edges);
}

NodeId GraphBuilder::AddNode(double weight, std::string label) {
  NodeId id = static_cast<NodeId>(node_weights_.size());
  node_weights_.push_back(weight);
  labels_.push_back(std::move(label));
  return id;
}

NodeId GraphBuilder::AddNodes(size_t count) {
  NodeId first = static_cast<NodeId>(node_weights_.size());
  node_weights_.resize(node_weights_.size() + count, 0.0);
  labels_.resize(labels_.size() + count);
  return first;
}

Status GraphBuilder::SetNodeWeight(NodeId v, double weight) {
  if (v >= node_weights_.size()) {
    return Status::InvalidArgument("SetNodeWeight: unknown node " +
                                   std::to_string(v));
  }
  node_weights_[v] = weight;
  return Status::OK();
}

Status GraphBuilder::AddEdge(NodeId from, NodeId to, double weight) {
  if (from >= node_weights_.size() || to >= node_weights_.size()) {
    return Status::InvalidArgument(
        "AddEdge: unknown endpoint (" + std::to_string(from) + ", " +
        std::to_string(to) + ") with " + std::to_string(node_weights_.size()) +
        " nodes");
  }
  edges_.push_back({from, to, weight});
  return Status::OK();
}

Status GraphBuilder::AddOrAccumulateEdge(NodeId from, NodeId to,
                                         double weight) {
  if (from >= node_weights_.size() || to >= node_weights_.size()) {
    return Status::InvalidArgument("AddOrAccumulateEdge: unknown endpoint");
  }
  // Linear probe over this node's recent edges would be quadratic for hub
  // nodes; construction pipelines instead accumulate into a map keyed by the
  // packed endpoint pair.
  uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
  auto [it, inserted] = edge_index_.try_emplace(key, edges_.size());
  if (inserted) {
    edges_.push_back({from, to, weight});
  } else {
    edges_[it->second].weight += weight;
  }
  return Status::OK();
}

Status GraphBuilder::NormalizeNodeWeights() {
  double sum = 0.0;
  for (double w : node_weights_) sum += w;
  if (!(sum > 0.0)) {
    return Status::FailedPrecondition(
        "NormalizeNodeWeights: node weight sum must be positive");
  }
  for (double& w : node_weights_) w /= sum;
  return Status::OK();
}

Result<PreferenceGraph> GraphBuilder::Finalize(
    const GraphValidationOptions& options) {
  // Bucket the edges by source (a stable counting sort, so each list
  // keeps insertion order until FinalizeCsr sorts it).
  const size_t n = node_weights_.size();
  OutCsr csr;
  csr.offsets.assign(n + 1, 0);
  for (const Edge& e : edges_) ++csr.offsets[e.from + 1];
  for (size_t v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
  csr.targets.resize(edges_.size());
  csr.weights.resize(edges_.size());
  {
    std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
    for (const Edge& e : edges_) {
      const size_t idx = cursor[e.from]++;
      csr.targets[idx] = e.to;
      csr.weights[idx] = e.weight;
    }
  }
  csr.node_weights = std::move(node_weights_);
  csr.labels = std::move(labels_);

  // Leave the builder reusable-but-empty.
  node_weights_.clear();
  labels_.clear();
  std::vector<Edge>().swap(edges_);
  edge_index_.clear();

  return FinalizeCsr(std::move(csr), options);
}

Result<PreferenceGraph> GraphBuilder::FinalizeCsr(
    OutCsr csr, const GraphValidationOptions& options,
    std::optional<uint64_t> digest) {
  const size_t n = csr.node_weights.size();
  PREFCOVER_DCHECK(csr.offsets.size() == n + 1);
  PREFCOVER_DCHECK(csr.labels.empty() || csr.labels.size() == n);

  for (size_t v = 0; v < n; ++v) {
    double w = csr.node_weights[v];
    if (!(w >= 0.0) || w > 1.0 || std::isnan(w)) {
      return Status::InvalidArgument("node " + std::to_string(v) +
                                     " weight out of [0,1]: " +
                                     std::to_string(w));
    }
  }
  if (options.require_normalized_node_weights) {
    double sum = 0.0;
    for (double w : csr.node_weights) sum += w;
    if (std::fabs(sum - 1.0) > options.weight_sum_tolerance) {
      return Status::InvalidArgument(
          "node weights must sum to 1 (got " + std::to_string(sum) +
          "); call NormalizeNodeWeights() or disable the check");
    }
  }

  for (size_t v = 0; v < n; ++v) {
    for (size_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
      const NodeId to = csr.targets[i];
      const double w = csr.weights[i];
      if (!options.allow_self_loops && to == v) {
        return Status::InvalidArgument("self-loop on node " +
                                       std::to_string(v));
      }
      if (!(w > 0.0) || w > 1.0 + 1e-12 || std::isnan(w)) {
        return Status::InvalidArgument(
            "edge (" + std::to_string(v) + ", " + std::to_string(to) +
            ") weight out of (0,1]: " + std::to_string(w));
      }
    }
  }

  // Lists must be in ascending target order. A .pcg file stores them that
  // way, so usually this is one comparison per edge; a list that is not
  // gets sorted, which also lines up any repeated edge for rejection.
  bool reordered = false;
  std::vector<std::pair<NodeId, double>> scratch;
  for (size_t v = 0; v < n; ++v) {
    const size_t b = csr.offsets[v], e = csr.offsets[v + 1];
    size_t i = b + 1;
    while (i < e && csr.targets[i - 1] < csr.targets[i]) ++i;
    if (i >= e) continue;
    scratch.clear();
    for (size_t j = b; j < e; ++j) {
      scratch.emplace_back(csr.targets[j], csr.weights[j]);
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (size_t j = b; j < e; ++j) {
      csr.targets[j] = scratch[j - b].first;
      csr.weights[j] = scratch[j - b].second;
      if (j > b && csr.targets[j] == csr.targets[j - 1]) {
        return Status::InvalidArgument("duplicate edge (" + std::to_string(v) +
                                       ", " + std::to_string(csr.targets[j]) +
                                       ")");
      }
    }
    reordered = true;
  }

  if (options.require_normalized_out_weights) {
    for (size_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (size_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
        sum += csr.weights[i];
      }
      if (sum > 1.0 + options.weight_sum_tolerance) {
        return Status::InvalidArgument(
            "Normalized variant requires out-weight sum <= 1; node " +
            std::to_string(v) + " has " + std::to_string(sum));
      }
    }
  }

  PreferenceGraph g;
  g.node_weights_ = std::move(csr.node_weights);
  if (std::any_of(csr.labels.begin(), csr.labels.end(),
                  [](const std::string& label) { return !label.empty(); })) {
    g.labels_ = std::move(csr.labels);
  }
  g.out_offsets_ = std::move(csr.offsets);
  g.out_targets_ = std::move(csr.targets);
  g.out_weights_ = std::move(csr.weights);

  // In-CSR: scattering the out-lists in source order leaves every in-list
  // in ascending source order.
  const size_t m = g.out_targets_.size();
  g.in_offsets_.assign(n + 1, 0);
  g.in_sources_.resize(m);
  g.in_weights_.resize(m);
  for (NodeId to : g.out_targets_) ++g.in_offsets_[to + 1];
  for (size_t v = 0; v < n; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];
  {
    std::vector<size_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (size_t v = 0; v < n; ++v) {
      for (size_t i = g.out_offsets_[v]; i < g.out_offsets_[v + 1]; ++i) {
        const size_t idx = cursor[g.out_targets_[i]]++;
        g.in_sources_[idx] = static_cast<NodeId>(v);
        g.in_weights_[idx] = g.out_weights_[i];
      }
    }
  }

  // Static gain-bound index (see PreferenceGraph::StaticGainBounds):
  // bound(v) = W(v) + sum_{(u,v), u != v} W(u) * W(u,v), over the in-CSR
  // just built, plus the descending-bound node order. One O(m) pass and
  // one O(n log n) sort at build time buys the solvers a seed scan that
  // can stop after the plausible candidates instead of touching every
  // edge (ties order by ascending id, so the index is deterministic).
  g.static_gain_bounds_.resize(n);
  g.bound_order_.resize(n);
  std::vector<std::pair<double, NodeId>> by_bound(n);
  for (size_t v = 0; v < n; ++v) {
    double bound = g.node_weights_[v];
    for (size_t i = g.in_offsets_[v]; i < g.in_offsets_[v + 1]; ++i) {
      const NodeId u = g.in_sources_[i];
      if (u == v) continue;
      bound += g.node_weights_[u] * g.in_weights_[i];
    }
    g.static_gain_bounds_[v] = bound;
    by_bound[v] = {bound, static_cast<NodeId>(v)};
  }
  // Sorting (bound, id) pairs keeps the comparisons off the bounds array.
  std::sort(by_bound.begin(), by_bound.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (size_t i = 0; i < n; ++i) g.bound_order_[i] = by_bound[i].second;

  g.digest_ = digest.has_value() && !reordered ? *digest : g.ComputeDigest();
  return g;
}

}  // namespace prefcover
