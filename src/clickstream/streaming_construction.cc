#include "clickstream/streaming_construction.h"

#include <algorithm>
#include <fstream>
#include <istream>

#include "clickstream/clickstream_io.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace prefcover {

StreamingGraphBuilder::StreamingGraphBuilder(
    const GraphConstructionOptions& options)
    : options_(options) {}

void StreamingGraphBuilder::AddSession(const Session& session) {
  ++sessions_seen_;
  if (!session.HasPurchase()) return;
  ItemId p = session.purchase;
  if (p >= purchase_count_.size()) purchase_count_.resize(size_t{p} + 1, 0);
  ++purchase_count_[p];
  ++purchases_seen_;
  std::vector<std::pair<ItemId, double>> alts =
      session.AlternativesWithDwell();
  if (alts.empty()) return;
  // Independent: each alternative counts fully. Normalized: a session
  // with t > 1 alternatives counts each as 1/t, so edge weights per node
  // sum to at most 1 across all sessions. The dwell correction (<= 1)
  // scales each click's contribution and therefore preserves the
  // Normalized bound.
  double mass = 1.0;
  if (options_.variant == Variant::kNormalized && alts.size() > 1) {
    mass = 1.0 / static_cast<double>(alts.size());
  }
  for (const auto& [b, dwell] : alts) {
    double corrected = mass;
    if (options_.dwell_saturation_seconds > 0.0 && dwell >= 0.0) {
      corrected *=
          std::min(1.0, dwell / options_.dwell_saturation_seconds);
    }
    if (corrected <= 0.0) continue;
    pair_mass_[(static_cast<uint64_t>(p) << 32) | b] += corrected;
  }
}

Result<PreferenceGraph> StreamingGraphBuilder::Finish(
    const ItemDictionary& dictionary) const {
  const size_t num_items = dictionary.size();
  if (num_items == 0) {
    return Status::FailedPrecondition("no items observed");
  }
  if (purchases_seen_ == 0) {
    return Status::FailedPrecondition(
        "no purchase sessions observed; cannot infer preferences");
  }
  PREFCOVER_CHECK_MSG(purchase_count_.size() <= num_items,
                      "purchase id not in the dictionary");
  GraphBuilder builder;
  builder.Reserve(num_items, pair_mass_.size());
  for (ItemId item = 0; item < num_items; ++item) {
    const uint64_t purchases =
        item < purchase_count_.size() ? purchase_count_[item] : 0;
    builder.AddNode(static_cast<double>(purchases) /
                        static_cast<double>(purchases_seen_),
                    dictionary.Name(item));
  }
  for (const auto& [key, mass] : pair_mass_) {
    ItemId from = static_cast<ItemId>(key >> 32);
    ItemId to = static_cast<ItemId>(key & 0xFFFFFFFFu);
    if (options_.min_purchases_for_edges > 0 &&
        purchase_count_[from] < options_.min_purchases_for_edges) {
      continue;
    }
    double weight = mass / static_cast<double>(purchase_count_[from]);
    // Fractional accumulation can land a hair above 1 (e.g. every session
    // clicking the same single alternative); clamp the fp excess.
    if (weight > 1.0) weight = 1.0;
    if (weight < options_.min_edge_weight) continue;
    PREFCOVER_RETURN_NOT_OK(builder.AddEdge(from, to, weight));
  }
  GraphValidationOptions validation;
  validation.require_normalized_out_weights =
      options_.variant == Variant::kNormalized;
  // Edge dropping can only lower out-sums, so Normalized admissibility is
  // preserved by construction.
  return builder.Finalize(validation);
}

Result<PreferenceGraph> BuildPreferenceGraphStreaming(
    std::istream* events, const GraphConstructionOptions& options) {
  obs::Span build_span("clickstream.build", "clickstream");
  ItemDictionary dictionary;
  StreamingGraphBuilder builder(options);
  uint64_t rows = 0;
  PREFCOVER_RETURN_NOT_OK(DecodeClickstreamCsv(
      events, &dictionary,
      [&options, &builder, &rows](std::string_view, Session* session) {
        obs::Span flush_span("clickstream.flush", "clickstream");
        flush_span.Arg("clicks",
                       static_cast<uint64_t>(session->clicks.size()));
        // Every record is one click or the purchase.
        rows += session->clicks.size() + (session->HasPurchase() ? 1 : 0);
        builder.AddSession(*session);
        // Session boundaries are the construction's round boundaries:
        // cheap (one flag read per session, not per row) and always at a
        // consistent point — no half-consumed session ever reaches the
        // builder.
        if (options.cancel != nullptr && options.cancel->IsCancelled()) {
          return Status::Cancelled(
              "graph construction cancelled after " +
              std::to_string(builder.sessions_seen()) + " sessions");
        }
        return Status::OK();
      }));
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("clickstream.rows")->Increment(rows);
  metrics.GetCounter("clickstream.sessions")
      ->Increment(builder.sessions_seen());
  metrics.GetCounter("clickstream.purchases")
      ->Increment(builder.purchases_seen());
  build_span.Arg("rows", rows);
  build_span.Arg("sessions", builder.sessions_seen());

  obs::Span finish_span("clickstream.finish", "clickstream");
  finish_span.Arg("items", static_cast<uint64_t>(dictionary.size()));
  finish_span.Arg("sessions", builder.sessions_seen());
  Result<PreferenceGraph> graph = builder.Finish(dictionary);
  if (graph.ok()) {
    const uint64_t edges = graph->NumEdges();
    metrics.GetCounter("clickstream.edges")->Increment(edges);
    finish_span.Arg("edges", edges);
  }
  return graph;
}

Result<PreferenceGraph> BuildPreferenceGraphStreamingFile(
    const std::string& path, const GraphConstructionOptions& options) {
  PREFCOVER_FAILPOINT_STATUS("clickstream.read");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return BuildPreferenceGraphStreaming(&in, options);
}

}  // namespace prefcover
