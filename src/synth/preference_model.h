// Ground-truth consumer preference model over a synthetic catalog.
//
// The model IS a preference graph — item popularity plus alternative
// acceptance probabilities — built from catalog structure at three levels:
//
//   - variant groups: the same product in different colors/sizes (the
//     paper's Figure 3 is literally iPhone color variants). Members are
//     near-perfect substitutes (acceptance ~0.65-0.95) with correlated
//     popularity — best sellers come in whole groups, which is exactly why
//     retaining every top seller (TopK-W) wastes budget;
//   - within-category product edges: weaker alternatives (a different TV),
//     boosted by shared brand, dampened by price-tier distance;
//   - rare cross-category edges (accessory/upgrade links).
//
// Sessions generated from the model (session_generator.h) feed the Data
// Adaptation Engine, whose reconstructed graph can be compared back
// against this ground truth — making construction accuracy testable,
// which the paper's private data could not offer.

#ifndef PREFCOVER_SYNTH_PREFERENCE_MODEL_H_
#define PREFCOVER_SYNTH_PREFERENCE_MODEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/preference_graph.h"
#include "synth/catalog.h"
#include "util/random.h"
#include "util/status.h"

namespace prefcover {

/// \brief Model parameters.
struct PreferenceModelParams {
  /// Zipf skew of popularity across the variant groups of a category.
  double popularity_skew = 1.05;

  /// Zipf skew of popularity across categories: an item's weight is
  /// category factor x group factor x within-group factor. Correlated
  /// popularity concentrates best sellers in hot categories and hot
  /// variant groups. 0 removes the correlation.
  double category_popularity_skew = 1.0;

  /// Zipf skew among the variants of one group (mild: the silver iPhone
  /// outsells the gold one, but not by orders of magnitude).
  double within_group_skew = 0.5;

  /// Mean variant-group size (1 + Poisson(mean - 1), capped by category).
  double variant_group_mean_size = 2.5;

  /// Acceptance range between variants of the same group.
  double group_acceptance_lo = 0.65;
  double group_acceptance_hi = 0.95;

  /// Mean number of cross-product alternatives (beyond the variant group);
  /// per-item degree is Poisson and capped by category size.
  double mean_alternatives = 2.5;

  /// Share of cross-product edges that cross categories.
  double cross_category_share = 0.05;

  /// Base acceptance range for a within-category cross-product edge.
  double base_acceptance_lo = 0.1;
  double base_acceptance_hi = 0.5;

  /// Additive acceptance boost when brands match (clamped to <= 0.95).
  double same_brand_boost = 0.15;

  /// Multiplicative dampening per price-tier step of distance.
  double tier_distance_damping = 0.55;

  /// Acceptance range for cross-category edges.
  double cross_category_lo = 0.03;
  double cross_category_hi = 0.2;

  /// When true, out-weights are scaled to sum to <= 1 (a target sum drawn
  /// from [0.4, 0.95]) — the Normalized-variant world where consumers have
  /// at most one acceptable alternative in expectation.
  bool normalized = false;
};

/// \brief An immutable ground-truth model: the catalog plus its true
/// preference graph (node labels = catalog item names).
class PreferenceModel {
 public:
  /// Builds the model; deterministic in (catalog, params, rng seed).
  static Result<PreferenceModel> Build(const Catalog* catalog,
                                       const PreferenceModelParams& params,
                                       Rng* rng);

  /// The true preference graph (nodes = catalog items, in catalog order).
  const PreferenceGraph& graph() const& { return graph_; }
  /// Moves the graph out of a model that is about to go.
  PreferenceGraph graph() && { return std::move(graph_); }
  const Catalog& catalog() const { return *catalog_; }
  bool normalized() const { return normalized_; }

  /// Variant-group id of each item (dense, catalog-wide).
  const std::vector<uint32_t>& group_of() const { return group_of_; }

 private:
  const Catalog* catalog_ = nullptr;
  PreferenceGraph graph_;
  std::vector<uint32_t> group_of_;
  bool normalized_ = false;
};

}  // namespace prefcover

#endif  // PREFCOVER_SYNTH_PREFERENCE_MODEL_H_
