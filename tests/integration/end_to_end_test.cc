// Full-pipeline integration tests: synthetic catalog -> ground-truth model
// -> sessions -> CSV round trip -> Data Adaptation Engine (variant
// selection + graph construction) -> solver -> solution validation.
// This is the system architecture of the paper's Figure 2 exercised end to
// end, including persistence layers.

#include <sstream>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/variant_selection.h"
#include "core/complementary_solver.h"
#include "core/greedy_solver.h"
#include "eval/runner.h"
#include "graph/graph_io.h"
#include "synth/dataset_profiles.h"
#include "synth/session_generator.h"

namespace prefcover {
namespace {

TEST(EndToEndTest, FullPipelineIndependentProfile) {
  // 1. Generate a PE-like clickstream.
  auto cs = GenerateProfileClickstream(DatasetProfile::kPE, 0.002, 42);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();

  // 2. Persist and reload the clickstream (CSV round trip).
  std::stringstream csv;
  ASSERT_TRUE(WriteClickstreamCsv(*cs, &csv).ok());
  auto reloaded = ReadClickstreamCsv(&csv);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->NumSessions(), cs->NumSessions());

  // 3. Data Adaptation Engine: pick the variant, build the graph.
  VariantRecommendation rec = RecommendVariant(*reloaded);
  EXPECT_EQ(rec.variant, Variant::kIndependent);
  GraphConstructionOptions gopt;
  gopt.variant = rec.variant;
  auto graph = BuildPreferenceGraph(*reloaded, gopt);
  ASSERT_TRUE(graph.ok());

  // 4. Persist and reload the graph (binary round trip).
  const std::string pcg = SerializeGraphBinary(*graph);
  auto graph2 = DeserializeGraphBinary(pcg);
  ASSERT_TRUE(graph2.ok());

  // 5. Solve and validate.
  const size_t k = graph2->NumNodes() / 10;
  GreedyOptions options;
  options.variant = rec.variant;
  auto sol = SolveGreedyLazy(*graph2, k, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->Validate(*graph2).ok());
  EXPECT_GT(sol->cover, 0.0);

  // 6. The greedy solution dominates the baselines on the same graph.
  Rng rng(7);
  auto topw = RunAlgorithm(Algorithm::kTopKWeight, *graph2, k, rec.variant,
                           &rng);
  ASSERT_TRUE(topw.ok());
  EXPECT_GE(sol->cover, topw->cover - 1e-9);
}

TEST(EndToEndTest, FullPipelineNormalizedProfile) {
  auto cs = GenerateProfileClickstream(DatasetProfile::kPM, 0.002, 43);
  ASSERT_TRUE(cs.ok());
  VariantRecommendation rec = RecommendVariant(*cs);
  EXPECT_EQ(rec.variant, Variant::kNormalized);

  GraphConstructionOptions gopt;
  gopt.variant = rec.variant;
  auto graph = BuildPreferenceGraph(*cs, gopt);
  ASSERT_TRUE(graph.ok());

  const size_t k = graph->NumNodes() / 5;
  GreedyOptions options;
  options.variant = rec.variant;
  auto greedy = SolveGreedyLazy(*graph, k, options);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(greedy->Validate(*graph).ok());

  // Complementary problem on the same graph: greedy threshold sets are
  // consistent with the budget solution prefixes.
  auto threshold = SolveCoverageThreshold(*graph, greedy->cover * 0.99,
                                          rec.variant,
                                          ThresholdAlgorithm::kGreedy);
  ASSERT_TRUE(threshold.ok());
  EXPECT_TRUE(threshold->reached);
  EXPECT_LE(threshold->set_size, greedy->items.size());
}

TEST(EndToEndTest, SuiteOrderingOnProfileGraph) {
  // Figure 4c's qualitative ordering on a YC-shaped graph:
  // Greedy >= TopK-C, TopK-W >= Random (approximately; random uses best
  // of 10).
  auto graph = GenerateProfileGraph(DatasetProfile::kYC, 0.02, 44);
  ASSERT_TRUE(graph.ok());
  const size_t k = graph->NumNodes() / 10;
  Rng rng(45);
  auto entries = RunSuite(
      {Algorithm::kGreedyLazy, Algorithm::kTopKCoverage,
       Algorithm::kTopKWeight, Algorithm::kRandom},
      *graph, k, Variant::kIndependent, &rng);
  ASSERT_TRUE(entries.ok());
  double greedy = (*entries)[0].solution.cover;
  double topc = (*entries)[1].solution.cover;
  double topw = (*entries)[2].solution.cover;
  double random = (*entries)[3].solution.cover;
  EXPECT_GE(greedy, topc - 1e-9);
  EXPECT_GE(greedy, topw - 1e-9);
  EXPECT_GT(topw, random);  // informed baselines beat random
}

}  // namespace
}  // namespace prefcover
