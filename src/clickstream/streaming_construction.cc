#include "clickstream/streaming_construction.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <istream>
#include <string>

#include "clickstream/clickstream_io.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace prefcover {

namespace {

// Never a real pair: the purchase half would be kInvalidItem.
constexpr uint64_t kEmptyPair = ~uint64_t{0};

// Fibonacci hashing: the top log2(slots) bits of key * 2^64/phi index a
// table of `slots` (a power of two) slots.
size_t PairSlot(uint64_t key, size_t slots) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                             (64 - std::countr_zero(slots)));
}

}  // namespace

StreamingGraphBuilder::StreamingGraphBuilder(
    const GraphConstructionOptions& options)
    : options_(options) {}

void StreamingGraphBuilder::AddPairMass(uint64_t key, double mass) {
  if (2 * (num_pairs_ + 1) > pair_mass_.size()) {
    std::vector<PairMass> old(std::max<size_t>(1024, 2 * pair_mass_.size()),
                              PairMass{kEmptyPair, 0.0});
    old.swap(pair_mass_);
    const size_t mask = pair_mass_.size() - 1;
    for (const PairMass& pair : old) {
      if (pair.key == kEmptyPair) continue;
      size_t i = PairSlot(pair.key, pair_mass_.size());
      while (pair_mass_[i].key != kEmptyPair) i = (i + 1) & mask;
      pair_mass_[i] = pair;
    }
  }
  const size_t mask = pair_mass_.size() - 1;
  for (size_t i = PairSlot(key, pair_mass_.size());; i = (i + 1) & mask) {
    PairMass& pair = pair_mass_[i];
    if (pair.key == key) {
      pair.mass += mass;
      return;
    }
    if (pair.key == kEmptyPair) {
      pair = {key, mass};
      ++num_pairs_;
      return;
    }
  }
}

void StreamingGraphBuilder::AddSession(const SessionView& session) {
  ++sessions_seen_;
  if (!session.HasPurchase()) return;
  PREFCOVER_DCHECK(!session.HasDwell() ||
                   session.dwell_seconds.size() == session.clicks.size());
  const ItemId p = session.purchase;
  if (p >= purchase_count_.size()) purchase_count_.resize(size_t{p} + 1, 0);
  ++purchase_count_[p];
  ++purchases_seen_;
  // The session's distinct alternatives in click order, each keeping its
  // longest dwell; a stamp from this session marks an item already listed.
  alternatives_.clear();
  for (size_t c = 0; c < session.clicks.size(); ++c) {
    const ItemId b = session.clicks[c];
    if (b == p) continue;
    const double dwell = session.HasDwell() ? session.dwell_seconds[c] : -1.0;
    if (b >= stamps_.size()) stamps_.resize(size_t{b} + 1);
    Stamp& stamp = stamps_[b];
    if (stamp.session == purchases_seen_) {
      double& longest = alternatives_[stamp.index].dwell;
      if (dwell > longest) longest = dwell;
      continue;
    }
    stamp = {purchases_seen_, static_cast<uint32_t>(alternatives_.size())};
    alternatives_.push_back({b, dwell});
  }
  if (alternatives_.empty()) return;
  // Independent: each alternative counts fully. Normalized: a session
  // with t > 1 alternatives counts each as 1/t, so edge weights per node
  // sum to at most 1 across all sessions. The dwell correction (<= 1)
  // scales each click's contribution and therefore preserves the
  // Normalized bound.
  double mass = 1.0;
  if (options_.variant == Variant::kNormalized && alternatives_.size() > 1) {
    mass = 1.0 / static_cast<double>(alternatives_.size());
  }
  for (const Alternative& alternative : alternatives_) {
    double corrected = mass;
    if (options_.dwell_saturation_seconds > 0.0 && alternative.dwell >= 0.0) {
      corrected *= std::min(
          1.0, alternative.dwell / options_.dwell_saturation_seconds);
    }
    if (corrected <= 0.0) continue;
    AddPairMass((static_cast<uint64_t>(p) << 32) | alternative.item,
                corrected);
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
  builder.Reserve(num_items, num_pairs_);
  for (ItemId item = 0; item < num_items; ++item) {
    const uint64_t purchases =
        item < purchase_count_.size() ? purchase_count_[item] : 0;
    builder.AddNode(static_cast<double>(purchases) /
                        static_cast<double>(purchases_seen_),
                    std::string(dictionary.Name(item)));
  }
  for (const auto& [key, mass] : pair_mass_) {
    if (key == kEmptyPair) continue;
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
      [&options, &builder, &rows](std::string_view, const Session& session) {
        obs::Span flush_span("clickstream.flush", "clickstream");
        flush_span.Arg("clicks", static_cast<uint64_t>(session.clicks.size()));
        // Every record is one click or the purchase.
        rows += session.clicks.size() + (session.HasPurchase() ? 1 : 0);
        builder.AddSession(session);
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
