#include "synth/session_generator.h"

#include <vector>

namespace prefcover {

Result<Clickstream> GenerateSessions(const PreferenceModel& model,
                                     const SessionGeneratorParams& params,
                                     Rng* rng) {
  const PreferenceGraph& graph = model.graph();
  const uint32_t n = static_cast<uint32_t>(graph.NumNodes());
  if (n == 0) return Status::InvalidArgument("model graph is empty");
  if (params.browse_only_share < 0.0 || params.browse_only_share >= 1.0) {
    return Status::InvalidArgument("browse_only_share must be in [0, 1)");
  }
  if (params.noise_clicks_mean > 0.0 &&
      params.behavior ==
          SessionGeneratorParams::ClickBehavior::kSingleAlternative) {
    return Status::InvalidArgument(
        "noise clicks are incompatible with SingleAlternative behavior");
  }

  constexpr double kAlternativeDwellMean = 30.0;
  constexpr double kPurchaseDwellMean = 45.0;
  constexpr double kNoiseDwellMean = 4.0;
  auto push_click = [&params](Session* session, NodeId item, double mean,
                              Rng* r) {
    session->clicks.push_back(item);
    if (params.emit_dwell_times) {
      session->dwell_seconds.push_back(r->NextExponential(1.0 / mean));
    }
  };

  Clickstream clickstream;
  clickstream.Reserve(params.num_sessions);
  ItemDictionary* dict = clickstream.mutable_dictionary();
  for (uint32_t i = 0; i < n; ++i) {
    ItemId id = dict->Intern(model.catalog().ItemName(i));
    PREFCOVER_CHECK(id == i);  // dense, catalog-ordered interning
  }

  // Popularity sampler over node weights.
  std::vector<double> weights(graph.NodeWeights().begin(),
                              graph.NodeWeights().end());
  AliasSampler popularity(weights);

  // One Session, cleared per visit, carries each one into the clickstream.
  Session session;
  for (uint64_t s = 0; s < params.num_sessions; ++s) {
    session.Clear();
    if (rng->NextBernoulli(params.browse_only_share)) {
      // Browse-only: clicks on popular items, no purchase.
      uint64_t clicks = rng->NextPoisson(params.browse_clicks_mean);
      if (clicks == 0) clicks = 1;
      for (uint64_t c = 0; c < clicks; ++c) {
        push_click(&session, popularity.Sample(rng), kNoiseDwellMean, rng);
      }
      clickstream.AddSession(session);
      continue;
    }

    NodeId desired = popularity.Sample(rng);
    session.purchase = desired;
    if (rng->NextBernoulli(params.click_purchase_share)) {
      push_click(&session, desired, kPurchaseDwellMean, rng);
    }

    AdjacencyView out = graph.OutNeighbors(desired);
    switch (params.behavior) {
      case SessionGeneratorParams::ClickBehavior::kIndependent:
        for (size_t i = 0; i < out.size(); ++i) {
          if (rng->NextBernoulli(out.weights[i])) {
            push_click(&session, out.nodes[i], kAlternativeDwellMean, rng);
          }
        }
        if (params.noise_clicks_mean > 0.0) {
          uint64_t noise = rng->NextPoisson(params.noise_clicks_mean);
          for (uint64_t c = 0; c < noise; ++c) {
            NodeId browsed = popularity.Sample(rng);
            if (browsed != desired) {
              push_click(&session, browsed, kNoiseDwellMean, rng);
            }
          }
        }
        break;
      case SessionGeneratorParams::ClickBehavior::kSingleAlternative: {
        // Inverse-CDF over the edge weights; the residual mass (the
        // admissible graph guarantees sum <= 1) means no alternative.
        double u = rng->NextDouble();
        double acc = 0.0;
        for (size_t i = 0; i < out.size(); ++i) {
          acc += out.weights[i];
          if (u < acc) {
            push_click(&session, out.nodes[i], kAlternativeDwellMean, rng);
            break;
          }
        }
        break;
      }
    }
    clickstream.AddSession(session);
  }
  return clickstream;
}

}  // namespace prefcover
