#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/preference_graph.h"
#include "util/random.h"

namespace prefcover {
namespace {

TEST(GraphBuilderTest, BuildsSmallGraph) {
  GraphBuilder b;
  NodeId a = b.AddNode(0.5, "A");
  NodeId c = b.AddNode(0.5, "C");
  ASSERT_TRUE(b.AddEdge(a, c, 0.7).ok());
  auto result = b.Finalize();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PreferenceGraph& g = *result;
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.NodeWeight(a), 0.5);
  EXPECT_TRUE(g.HasEdge(a, c));
  EXPECT_FALSE(g.HasEdge(c, a));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(a, c), 0.7);
  EXPECT_TRUE(g.HasLabels());
  EXPECT_EQ(g.Label(a), "A");
}

TEST(GraphBuilderTest, InOutAdjacencyConsistent) {
  GraphBuilder b;
  NodeId n0 = b.AddNode(0.25);
  NodeId n1 = b.AddNode(0.25);
  NodeId n2 = b.AddNode(0.25);
  NodeId n3 = b.AddNode(0.25);
  ASSERT_TRUE(b.AddEdge(n0, n2, 0.1).ok());
  ASSERT_TRUE(b.AddEdge(n1, n2, 0.2).ok());
  ASSERT_TRUE(b.AddEdge(n3, n2, 0.3).ok());
  ASSERT_TRUE(b.AddEdge(n2, n0, 0.4).ok());
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->InDegree(n2), 3u);
  EXPECT_EQ(g->OutDegree(n2), 1u);
  AdjacencyView in = g->InNeighbors(n2);
  double sum = 0.0;
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(g->EdgeWeight(in.nodes[i], n2), in.weights[i]);
    sum += in.weights[i];
  }
  EXPECT_NEAR(sum, 0.6, 1e-12);
}

TEST(GraphBuilderTest, RejectsBadNodeWeight) {
  {
    GraphBuilder b;
    b.AddNode(-0.1);
    b.AddNode(1.1);
    EXPECT_TRUE(b.Finalize().status().IsInvalidArgument());
  }
  {
    GraphBuilder b;
    b.AddNode(1.5);
    EXPECT_TRUE(b.Finalize().status().IsInvalidArgument());
  }
}

TEST(GraphBuilderTest, RequiresWeightsSumToOneByDefault) {
  GraphBuilder b;
  b.AddNode(0.3);
  b.AddNode(0.3);
  EXPECT_TRUE(b.Finalize().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, NormalizeNodeWeightsFixesSum) {
  GraphBuilder b;
  b.AddNode(0.3);
  b.AddNode(0.3);
  ASSERT_TRUE(b.NormalizeNodeWeights().ok());
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->NodeWeight(0), 0.5);
  EXPECT_DOUBLE_EQ(g->NodeWeight(1), 0.5);
}

TEST(GraphBuilderTest, NormalizeFailsOnZeroSum) {
  GraphBuilder b;
  b.AddNode(0.0);
  EXPECT_TRUE(b.NormalizeNodeWeights().IsFailedPrecondition());
}

TEST(GraphBuilderTest, DisableNodeWeightCheck) {
  GraphBuilder b;
  b.AddNode(0.3);
  GraphValidationOptions options;
  options.require_normalized_node_weights = false;
  EXPECT_TRUE(b.Finalize(options).ok());
}

TEST(GraphBuilderTest, RejectsSelfLoopByDefault) {
  GraphBuilder b;
  NodeId v = b.AddNode(1.0);
  ASSERT_TRUE(b.AddEdge(v, v, 0.5).ok());
  EXPECT_TRUE(b.Finalize().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, AllowsSelfLoopWhenConfigured) {
  GraphBuilder b;
  NodeId v = b.AddNode(1.0);
  ASSERT_TRUE(b.AddEdge(v, v, 0.5).ok());
  GraphValidationOptions options;
  options.allow_self_loops = true;
  auto g = b.Finalize(options);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->HasEdge(v, v));
}

TEST(GraphBuilderTest, RejectsEdgeWeightOutOfRange) {
  for (double w : {0.0, -0.5, 1.5}) {
    GraphBuilder b;
    NodeId a = b.AddNode(0.5);
    NodeId c = b.AddNode(0.5);
    ASSERT_TRUE(b.AddEdge(a, c, w).ok());
    EXPECT_TRUE(b.Finalize().status().IsInvalidArgument()) << "w=" << w;
  }
}

TEST(GraphBuilderTest, RejectsDuplicateEdges) {
  GraphBuilder b;
  NodeId a = b.AddNode(0.5);
  NodeId c = b.AddNode(0.5);
  ASSERT_TRUE(b.AddEdge(a, c, 0.2).ok());
  ASSERT_TRUE(b.AddEdge(a, c, 0.3).ok());
  EXPECT_TRUE(b.Finalize().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsUnknownEndpoints) {
  GraphBuilder b;
  b.AddNode(1.0);
  EXPECT_TRUE(b.AddEdge(0, 5, 0.5).IsInvalidArgument());
  EXPECT_TRUE(b.AddEdge(5, 0, 0.5).IsInvalidArgument());
}

TEST(GraphBuilderTest, NormalizedOutWeightValidation) {
  GraphBuilder b;
  NodeId a = b.AddNode(0.5);
  NodeId c = b.AddNode(0.25);
  NodeId d = b.AddNode(0.25);
  ASSERT_TRUE(b.AddEdge(a, c, 0.7).ok());
  ASSERT_TRUE(b.AddEdge(a, d, 0.7).ok());  // sums to 1.4
  GraphValidationOptions options;
  options.require_normalized_out_weights = true;
  EXPECT_TRUE(b.Finalize(options).status().IsInvalidArgument());
}

TEST(GraphBuilderTest, NormalizedOutWeightAcceptsExactlyOne) {
  GraphBuilder b;
  NodeId a = b.AddNode(0.5);
  NodeId c = b.AddNode(0.25);
  NodeId d = b.AddNode(0.25);
  ASSERT_TRUE(b.AddEdge(a, c, 0.4).ok());
  ASSERT_TRUE(b.AddEdge(a, d, 0.6).ok());
  GraphValidationOptions options;
  options.require_normalized_out_weights = true;
  EXPECT_TRUE(b.Finalize(options).ok());
}

TEST(GraphBuilderTest, AddOrAccumulateEdgeSums) {
  GraphBuilder b;
  NodeId a = b.AddNode(0.5);
  NodeId c = b.AddNode(0.5);
  ASSERT_TRUE(b.AddOrAccumulateEdge(a, c, 0.2).ok());
  ASSERT_TRUE(b.AddOrAccumulateEdge(a, c, 0.3).ok());
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_NEAR(g->EdgeWeight(a, c), 0.5, 1e-12);
}

TEST(GraphBuilderTest, AddNodesBulk) {
  GraphBuilder b;
  NodeId first = b.AddNodes(5);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(b.NumNodes(), 5u);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_TRUE(b.SetNodeWeight(v, 0.2).ok());
  }
  EXPECT_TRUE(b.Finalize().ok());
}

TEST(GraphBuilderTest, SetNodeWeightUnknownNodeFails) {
  GraphBuilder b;
  b.AddNode(1.0);
  EXPECT_TRUE(b.SetNodeWeight(3, 0.5).IsInvalidArgument());
}

TEST(GraphBuilderTest, BuilderReusableAfterFinalize) {
  GraphBuilder b;
  b.AddNode(1.0);
  ASSERT_TRUE(b.Finalize().ok());
  EXPECT_EQ(b.NumNodes(), 0u);
  b.AddNode(1.0);
  auto g2 = b.Finalize();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->NumNodes(), 1u);
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  GraphValidationOptions options;
  options.require_normalized_node_weights = false;
  auto g = b.Finalize(options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 0u);
  EXPECT_EQ(g->NumEdges(), 0u);
}

TEST(PreferenceGraphTest, AccessorsOnPaperExampleShape) {
  GraphBuilder b;
  NodeId a = b.AddNode(0.6, "A");
  NodeId c = b.AddNode(0.4, "C");
  ASSERT_TRUE(b.AddEdge(a, c, 0.9).ok());
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->TotalNodeWeight(), 1.0);
  EXPECT_DOUBLE_EQ(g->OutWeightSum(a), 0.9);
  EXPECT_DOUBLE_EQ(g->OutWeightSum(c), 0.0);
  EXPECT_EQ(g->MaxInDegree(), 1u);
  EXPECT_EQ(g->DisplayName(a), "A");
}

TEST(PreferenceGraphTest, StaticGainBoundIndex) {
  // bound(v) = W(v) + sum over in-edges (u, v), u != v, of W(u)*W(u,v);
  // the order lists ids by descending bound, ties by ascending id.
  GraphBuilder b;
  NodeId n0 = b.AddNode(0.1);
  NodeId n1 = b.AddNode(0.2);
  NodeId n2 = b.AddNode(0.3);
  NodeId n3 = b.AddNode(0.4);
  ASSERT_TRUE(b.AddEdge(n0, n2, 0.5).ok());  // n2 gains 0.1 * 0.5
  ASSERT_TRUE(b.AddEdge(n1, n2, 1.0).ok());  // n2 gains 0.2 * 1.0
  ASSERT_TRUE(b.AddEdge(n3, n0, 0.25).ok());  // n0 gains 0.4 * 0.25
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  const auto bounds = g->StaticGainBounds();
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[n0], 0.1 + 0.4 * 0.25);
  EXPECT_DOUBLE_EQ(bounds[n1], 0.2);
  EXPECT_DOUBLE_EQ(bounds[n2], 0.3 + 0.1 * 0.5 + 0.2 * 1.0);
  EXPECT_DOUBLE_EQ(bounds[n3], 0.4);
  const auto order = g->NodesByStaticGainBound();
  ASSERT_EQ(order.size(), 4u);
  // Bounds: n2 = 0.55, n3 = 0.4, n0 = 0.2, n1 = 0.2 (tie -> smaller id).
  EXPECT_EQ(order[0], n2);
  EXPECT_EQ(order[1], n3);
  EXPECT_EQ(order[2], n0);
  EXPECT_EQ(order[3], n1);
}

// The bound order by a test-local std::sort: descending bound, ties by
// ascending id (-0.0 compares equal to +0.0).
std::vector<NodeId> SortedBoundOrder(const PreferenceGraph& g) {
  std::vector<NodeId> order(g.NumNodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  const auto bounds = g.StaticGainBounds();
  std::sort(order.begin(), order.end(), [&bounds](NodeId a, NodeId b) {
    if (bounds[a] != bounds[b]) return bounds[a] > bounds[b];
    return a < b;
  });
  return order;
}

// Seeded graphs whose weights come from a few levels, so many bounds tie;
// every fourth has all-zero node weights, and every other one gives a node
// without in-edges the weight -0.0, whose bound keeps the sign.
TEST(PreferenceGraphTest, BoundOrderMatchesASortOnSeededGraphs) {
  const double kNodeLevels[] = {0.0, 0.125, 0.25, 0.5};
  const double kEdgeLevels[] = {0.25, 0.5, 1.0};
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.NextBounded(400);
    const bool all_zero = trial % 4 == 0;
    const bool negative_zero = trial % 2 == 1;
    GraphBuilder b;
    for (size_t v = 0; v < n; ++v) {
      b.AddNode(all_zero ? 0.0 : kNodeLevels[rng.NextBounded(4)]);
    }
    if (negative_zero) {
      ASSERT_TRUE(b.SetNodeWeight(0, -0.0).ok());
    }
    std::set<std::pair<NodeId, NodeId>> added;
    const size_t edges = rng.NextBounded(3 * n);
    for (size_t e = 0; e < edges; ++e) {
      const NodeId from = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId to = static_cast<NodeId>(rng.NextBounded(n));
      if (from == to || (negative_zero && to == 0) ||
          !added.emplace(from, to).second) {
        continue;
      }
      ASSERT_TRUE(b.AddEdge(from, to, kEdgeLevels[rng.NextBounded(3)]).ok());
    }
    GraphValidationOptions options;
    options.require_normalized_node_weights = false;
    auto g = b.Finalize(options);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    if (negative_zero) {
      EXPECT_TRUE(std::signbit(g->StaticGainBounds()[0]));
    }
    const auto order = g->NodesByStaticGainBound();
    EXPECT_TRUE(std::ranges::equal(order, SortedBoundOrder(*g)))
        << "trial " << trial << " n " << n;
  }
}

TEST(PreferenceGraphTest, BoundOrderOfZeroAndOneNodes) {
  GraphValidationOptions options;
  options.require_normalized_node_weights = false;
  GraphBuilder empty;
  auto g0 = empty.Finalize(options);
  ASSERT_TRUE(g0.ok());
  EXPECT_TRUE(g0->NodesByStaticGainBound().empty());
  GraphBuilder one;
  one.AddNode(1.0);
  auto g1 = one.Finalize(options);
  ASSERT_TRUE(g1.ok());
  ASSERT_EQ(g1->NodesByStaticGainBound().size(), 1u);
  EXPECT_EQ(g1->NodesByStaticGainBound()[0], 0u);
}

TEST(PreferenceGraphTest, StaticGainBoundSkipsSelfLoops) {
  GraphBuilder b;
  b.AddNode(0.5);
  b.AddNode(0.5);
  GraphValidationOptions options;
  options.allow_self_loops = true;
  ASSERT_TRUE(b.AddEdge(0, 0, 1.0).ok());
  auto g = b.Finalize(options);
  ASSERT_TRUE(g.ok());
  // The Gain procedures mask u == v, so the bound excludes it too.
  EXPECT_DOUBLE_EQ(g->StaticGainBounds()[0], 0.5);
}

TEST(PreferenceGraphTest, DisplayNameWithoutLabels) {
  GraphBuilder b;
  b.AddNode(1.0);
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->HasLabels());
  EXPECT_EQ(g->DisplayName(0), "item0");
}

}  // namespace
}  // namespace prefcover
