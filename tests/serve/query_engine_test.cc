// QueryEngine: answers on the caller's thread match AnswerOnIndex, and
// hot reload publishes the new index.

#include "serve/query_engine.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "serve/protocol.h"
#include "serve/serving_index.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace prefcover {
namespace serve {
namespace {

std::shared_ptr<const ServingIndex> MakeIndex(uint64_t seed = 3,
                                              uint32_t num_nodes = 60,
                                              size_t k = 12) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = num_nodes;
  params.out_degree = 4;
  auto graph = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(graph.ok());
  auto solution = SolveGreedyLazy(*graph, k, GreedyOptions());
  EXPECT_TRUE(solution.ok());
  auto index = ServingIndex::Build(*graph, *solution);
  EXPECT_TRUE(index.ok());
  return std::make_shared<const ServingIndex>(std::move(index).value());
}

Request Covered(NodeId v) {
  Request request;
  request.type = QueryType::kCovered;
  request.v = v;
  return request;
}

Request Subs(NodeId v, uint32_t top_j) {
  Request request;
  request.type = QueryType::kSubstitutes;
  request.v = v;
  request.top_j = top_j;
  return request;
}

TEST(QueryEngineTest, AnswersMatchAnswerOnIndex) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  for (NodeId v = 0; v < index->NumNodes(); ++v) {
    Response served = engine.Answer(Covered(v));
    Response direct = AnswerOnIndex(*index, Covered(v));
    EXPECT_EQ(served.line, direct.line);

    Response served_subs = engine.Answer(Subs(v, 4));
    EXPECT_EQ(served_subs.line, AnswerOnIndex(*index, Subs(v, 4)).line);
  }
  // Out-of-catalog errors travel through the engine unchanged.
  const NodeId bad = static_cast<NodeId>(index->NumNodes());
  EXPECT_TRUE(engine.Answer(Covered(bad)).status.IsNotFound());
}

TEST(QueryEngineTest, SwapIndexPublishesNewAnswersAndFreshCache) {
  auto first = MakeIndex(3, 60, 12);
  auto second = MakeIndex(99, 60, 12);
  QueryEngine engine(first);

  NodeId v = 0;
  while (first->Retained(v)) ++v;
  Response before = engine.Answer(Subs(v, 4));
  ASSERT_TRUE(before.status.ok());

  ASSERT_TRUE(engine.SwapIndex(second).ok());
  EXPECT_EQ(engine.index().get(), second.get());
  EXPECT_EQ(engine.Stats().index_reloads, 1u);

  // Answers now come from the second index.
  Response after = engine.Answer(Subs(v, 4));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.line, AnswerOnIndex(*second, Subs(v, 4)).line);
}

TEST(QueryEngineTest, SwapIndexRejectsNull) {
  QueryEngine engine(MakeIndex());
  EXPECT_TRUE(engine.SwapIndex(nullptr).IsInvalidArgument());
  EXPECT_EQ(engine.Stats().index_reloads, 0u);
}

TEST(QueryEngineTest, ReloadSwapFailpointInjectsError) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  QueryEngine engine(MakeIndex());
  auto replacement = MakeIndex(7);
  ASSERT_TRUE(failpoint::Set("serve.reload_swap", "error").ok());
  Status status = engine.SwapIndex(replacement);
  failpoint::Clear();
  EXPECT_FALSE(status.ok());
  // The failed swap must not have been published.
  EXPECT_NE(engine.index().get(), replacement.get());
  EXPECT_EQ(engine.Stats().index_reloads, 0u);
  // And the engine still serves.
  EXPECT_TRUE(engine.Answer(Covered(0)).status.ok());
}

}  // namespace
}  // namespace serve
}  // namespace prefcover
