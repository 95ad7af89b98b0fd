#include "core/inventory_maintainer.h"

#include <algorithm>
#include <unordered_map>

#include "core/cover_state.h"
#include "core/greedy_solver.h"

namespace prefcover {

namespace {

// Snapshot plus the dense <-> stable mappings solver calls need.
struct SnapshotBundle {
  PreferenceGraph graph;
  std::vector<StableId> stable_of_node;
  std::unordered_map<StableId, NodeId> node_of_stable;
};

Result<SnapshotBundle> TakeSnapshot(const DynamicPreferenceGraph& dynamic) {
  SnapshotBundle bundle;
  PREFCOVER_ASSIGN_OR_RETURN(bundle.graph,
                             dynamic.Snapshot(&bundle.stable_of_node));
  bundle.node_of_stable.reserve(bundle.stable_of_node.size());
  for (NodeId v = 0; v < bundle.stable_of_node.size(); ++v) {
    bundle.node_of_stable.emplace(bundle.stable_of_node[v], v);
  }
  return bundle;
}

}  // namespace

std::string_view MaintenanceActionName(MaintenanceAction action) {
  switch (action) {
    case MaintenanceAction::kNone:
      return "none";
    case MaintenanceAction::kEvaluated:
      return "evaluated";
    case MaintenanceAction::kRepaired:
      return "repaired";
    case MaintenanceAction::kResolved:
      return "resolved";
  }
  return "?";
}

InventoryMaintainer::InventoryMaintainer(const DynamicPreferenceGraph* graph,
                                         const MaintainerOptions& options)
    : graph_(graph), options_(options) {
  PREFCOVER_CHECK(graph != nullptr);
}

Status InventoryMaintainer::Resolve() {
  PREFCOVER_ASSIGN_OR_RETURN(SnapshotBundle bundle, TakeSnapshot(*graph_));
  size_t k = std::min(options_.k, bundle.graph.NumNodes());
  GreedyOptions greedy_options;
  greedy_options.variant = options_.variant;
  PREFCOVER_ASSIGN_OR_RETURN(Solution solution,
                             SolveGreedyLazy(bundle.graph, k,
                                             greedy_options));
  retained_.clear();
  retained_.reserve(solution.items.size());
  for (NodeId v : solution.items) {
    retained_.push_back(bundle.stable_of_node[v]);
  }
  current_cover_ = solution.cover;
  last_solved_cover_ = solution.cover;
  last_seen_version_ = graph_->version();
  changes_since_resolve_ = 0;
  solved_once_ = true;
  ++full_resolves_;
  return Status::OK();
}

Result<size_t> InventoryMaintainer::RescoreOnCurrentGraph() {
  PREFCOVER_ASSIGN_OR_RETURN(SnapshotBundle bundle, TakeSnapshot(*graph_));
  CoverState state(&bundle.graph, options_.variant);
  size_t dropped = 0;
  std::vector<StableId> survivors;
  survivors.reserve(retained_.size());
  for (StableId id : retained_) {
    auto it = bundle.node_of_stable.find(id);
    if (it == bundle.node_of_stable.end()) {
      ++dropped;
      continue;
    }
    state.AddNode(it->second);
    survivors.push_back(id);
  }
  retained_ = std::move(survivors);
  current_cover_ = state.cover();
  return dropped;
}

Status InventoryMaintainer::GreedyRefill() {
  PREFCOVER_ASSIGN_OR_RETURN(SnapshotBundle bundle, TakeSnapshot(*graph_));
  GreedyOptions greedy_options;
  greedy_options.variant = options_.variant;
  greedy_options.force_include.reserve(retained_.size());
  for (StableId id : retained_) {
    auto it = bundle.node_of_stable.find(id);
    if (it == bundle.node_of_stable.end()) {
      return Status::Internal("refill called with dead retained item");
    }
    greedy_options.force_include.push_back(it->second);
  }
  size_t target = std::min(options_.k, bundle.graph.NumNodes());
  PREFCOVER_ASSIGN_OR_RETURN(Solution solution,
                             SolveGreedyLazy(bundle.graph, target,
                                             greedy_options));
  for (size_t i = retained_.size(); i < solution.items.size(); ++i) {
    retained_.push_back(bundle.stable_of_node[solution.items[i]]);
  }
  current_cover_ = solution.cover;
  return Status::OK();
}

Result<MaintenanceAction> InventoryMaintainer::Maintain() {
  ++maintain_calls_;
  if (!solved_once_) {
    PREFCOVER_RETURN_NOT_OK(Resolve());
    return MaintenanceAction::kResolved;
  }
  if (graph_->version() == last_seen_version_) {
    return MaintenanceAction::kNone;
  }
  last_seen_version_ = graph_->version();
  ++changes_since_resolve_;

  if (options_.force_resolve_every != 0 &&
      changes_since_resolve_ >= options_.force_resolve_every) {
    PREFCOVER_RETURN_NOT_OK(Resolve());
    return MaintenanceAction::kResolved;
  }

  PREFCOVER_ASSIGN_OR_RETURN(size_t dropped, RescoreOnCurrentGraph());
  size_t target = std::min(options_.k, graph_->NumItems());
  bool needs_refill = retained_.size() < target;

  if (needs_refill) {
    PREFCOVER_RETURN_NOT_OK(GreedyRefill());
  }
  if (current_cover_ + options_.resolve_drift_tolerance <
      last_solved_cover_) {
    PREFCOVER_RETURN_NOT_OK(Resolve());
    return MaintenanceAction::kResolved;
  }
  if (needs_refill || dropped > 0) {
    ++repairs_;
    return MaintenanceAction::kRepaired;
  }
  return MaintenanceAction::kEvaluated;
}

}  // namespace prefcover
