// Differential acceptance test: every serving answer must be
// byte-identical to what a direct CoverFunction/graph lookup produces.
//
// Three implementations of each answer are compared across 20 seeded
// graphs x both cover variants:
//
//   expected  — computed HERE from the raw graph + retained Bitset with
//               CoverOfItem and an independent sort/truncate of the
//               substitute lists (no serve/ code involved);
//   direct    — AnswerOnIndex on the built ServingIndex;
//   engine    — QueryEngine::Answer on the engine's index snapshot.
//
// Any divergence — a reordered substitute, a probability formatted from a
// rounded value — fails with the exact request that differed.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cover_function.h"
#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "graph/graph_transforms.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "util/bitset.h"
#include "util/random.h"

namespace prefcover {
namespace serve {
namespace {

constexpr uint64_t kSeeds = 20;
constexpr size_t kTopM = 6;

struct Instance {
  PreferenceGraph graph;
  Solution solution;
  Bitset retained;
};

Instance MakeInstance(uint64_t seed, Variant variant) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = 50 + static_cast<uint32_t>(seed % 7) * 10;
  params.out_degree = 3 + static_cast<uint32_t>(seed % 4);
  auto generated = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(generated.ok());
  // The Normalized variant requires out-weight sums <= 1; clamping is
  // harmless for Independent and keeps the two variants on the same
  // topology.
  auto graph = ClampOutWeights(*generated);
  EXPECT_TRUE(graph.ok());
  GreedyOptions options;
  options.variant = variant;
  auto solution = SolveGreedyLazy(*graph, params.num_nodes / 5, options);
  EXPECT_TRUE(solution.ok());
  Bitset retained(graph->NumNodes());
  for (NodeId v : solution->items) retained.Set(v);
  return {std::move(graph).value(), std::move(solution).value(),
          std::move(retained)};
}

// Independent reconstruction of the substitute list: v's retained
// out-neighbors, weight desc / id asc, truncated to top_m. Deliberately
// re-implemented from the spec, not shared with ServingIndex::Build.
std::vector<std::pair<NodeId, double>> ExpectedSubs(const Instance& in,
                                                    NodeId v) {
  std::vector<std::pair<NodeId, double>> subs;
  if (in.retained.Test(v)) return subs;
  AdjacencyView out = in.graph.OutNeighbors(v);
  for (size_t i = 0; i < out.size(); ++i) {
    if (in.retained.Test(out.nodes[i])) {
      subs.emplace_back(out.nodes[i], out.weights[i]);
    }
  }
  std::sort(subs.begin(), subs.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (subs.size() > kTopM) subs.resize(kTopM);
  return subs;
}

std::string ExpectedCoveredLine(const Instance& in, NodeId v,
                                Variant variant) {
  bool covered = in.retained.Test(v);
  if (!covered) {
    AdjacencyView out = in.graph.OutNeighbors(v);
    for (size_t i = 0; i < out.size() && !covered; ++i) {
      covered = in.retained.Test(out.nodes[i]);
    }
  }
  const double p = CoverOfItem(in.graph, in.retained, v, variant);
  return std::string("OK covered ") + (covered ? "1" : "0") + " " +
         FormatProbability(p);
}

std::string ExpectedSubsLine(const Instance& in, NodeId v, uint32_t top_j) {
  std::vector<std::pair<NodeId, double>> subs = ExpectedSubs(in, v);
  const size_t count = std::min<size_t>(top_j, subs.size());
  std::string line = "OK subs " + std::to_string(count);
  for (size_t i = 0; i < count; ++i) {
    line += " " + std::to_string(subs[i].first) + ":" +
            FormatProbability(subs[i].second);
  }
  return line;
}

TEST(ServeDifferentialTest, EveryAnswerMatchesDirectLookup) {
  for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("variant=" + std::string(VariantName(variant)) +
                   " seed=" + std::to_string(seed));
      Instance in = MakeInstance(seed, variant);
      ServingIndexOptions index_options;
      index_options.top_m = kTopM;
      auto built = ServingIndex::Build(in.graph, in.solution, index_options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      auto index =
          std::make_shared<const ServingIndex>(std::move(built).value());
      QueryEngine engine(index);

      const uint32_t top_js[] = {1, 3, kTopM, kTopM + 5};
      for (NodeId v = 0; v < in.graph.NumNodes(); ++v) {
        // covered
        {
          Request request;
          request.type = QueryType::kCovered;
          request.v = v;
          const std::string expected =
              ExpectedCoveredLine(in, v, variant);
          EXPECT_EQ(AnswerOnIndex(*index, request).line, expected)
              << "covered " << v << " (direct)";
          EXPECT_EQ(engine.Answer(request).line, expected)
              << "covered " << v << " (engine)";
        }
        // subs at several j — issued twice through the engine; a
        // repeated request must get the same bytes.
        for (uint32_t top_j : top_js) {
          Request request;
          request.type = QueryType::kSubstitutes;
          request.v = v;
          request.top_j = top_j;
          const std::string expected = ExpectedSubsLine(in, v, top_j);
          EXPECT_EQ(AnswerOnIndex(*index, request).line, expected)
              << "subs " << v << " " << top_j << " (direct)";
          EXPECT_EQ(engine.Answer(request).line, expected)
              << "subs " << v << " " << top_j << " (engine, cold)";
          EXPECT_EQ(engine.Answer(request).line, expected)
              << "subs " << v << " " << top_j << " (engine, cached)";
        }
      }

      // coverk over the whole prefix: must render the solver's own
      // cover_after_prefix values exactly.
      for (size_t k = 0; k <= in.solution.items.size(); ++k) {
        Request request;
        request.type = QueryType::kCoverageAtK;
        request.coverage_k = k;
        const double expected_value =
            k == 0 ? 0.0 : in.solution.cover_after_prefix[k - 1];
        const std::string expected =
            "OK coverk " + FormatProbability(expected_value);
        EXPECT_EQ(AnswerOnIndex(*index, request).line, expected);
        EXPECT_EQ(engine.Answer(request).line, expected);
      }

      // batch: bits agree with per-node covered answers.
      Request batch;
      batch.type = QueryType::kBatchCovered;
      std::string bits;
      for (NodeId v = 0; v < in.graph.NumNodes(); ++v) {
        batch.batch.push_back(v);
        bits += ExpectedCoveredLine(in, v, variant)[11];  // the 0/1 flag
      }
      const std::string expected_batch =
          "OK batch " + std::to_string(batch.batch.size()) + " " + bits;
      EXPECT_EQ(AnswerOnIndex(*index, batch).line, expected_batch);
      EXPECT_EQ(engine.Answer(batch).line, expected_batch);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace prefcover
