// Digest-once differential: every way a PreferenceGraph is made must
// leave it carrying the digest a from-scratch hash of its CSR gives.
// GraphDigest reads the value stored at finalize (or taken from the .pcg
// checksum pass); OracleDigest hashes the CSR independently.

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "core/checkpoint.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "graph/graph_transforms.h"
#include "synth/dataset_profiles.h"
#include "util/random.h"

namespace prefcover {
namespace {

// The digest's definition, hashed byte by byte through the public
// accessors: n, m, node weights, then per node its out-degree and
// (target, weight) pairs.
uint64_t OracleDigest(const PreferenceGraph& graph) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  auto update = [&hash](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 0x100000001B3ULL;
    }
  };
  const uint64_t n = graph.NumNodes();
  const uint64_t m = graph.NumEdges();
  update(&n, sizeof(n));
  update(&m, sizeof(m));
  for (NodeId v = 0; v < n; ++v) {
    const double w = graph.NodeWeight(v);
    update(&w, sizeof(w));
  }
  for (NodeId v = 0; v < n; ++v) {
    AdjacencyView adj = graph.OutNeighbors(v);
    const auto deg = static_cast<uint32_t>(adj.size());
    update(&deg, sizeof(deg));
    for (size_t i = 0; i < adj.size(); ++i) {
      update(&adj.nodes[i], sizeof(NodeId));
      update(&adj.weights[i], sizeof(double));
    }
  }
  return hash;
}

void ExpectDigestMatchesOracle(const Result<PreferenceGraph>& graph,
                               const std::string& how) {
  ASSERT_TRUE(graph.ok()) << how << ": " << graph.status().ToString();
  EXPECT_EQ(GraphDigest(*graph), OracleDigest(*graph)) << how;
}

PreferenceGraph Uniform(uint64_t seed, bool normalized = false) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = 80;
  params.out_degree = 5;
  params.normalized_out_weights = normalized;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::string ClickstreamCsv() {
  auto clicks = GenerateProfileClickstream(DatasetProfile::kYC, 0.002, 11);
  EXPECT_TRUE(clicks.ok());
  std::ostringstream out;
  EXPECT_TRUE(WriteClickstreamCsv(*clicks, &out).ok());
  return out.str();
}

TEST(GraphDigestOnceTest, BuilderFinalize) {
  ExpectDigestMatchesOracle(PreferenceGraph(), "default-constructed");
  GraphBuilder empty;
  GraphValidationOptions permissive;
  permissive.require_normalized_node_weights = false;
  ExpectDigestMatchesOracle(empty.Finalize(permissive), "empty builder");
  EXPECT_EQ(GraphDigest(PreferenceGraph()),
            GraphDigest(*GraphBuilder().Finalize(permissive)));

  // Edges added out of order and interleaved across sources.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddNode(0.25);
  ASSERT_TRUE(b.AddEdge(2, 0, 0.5).ok());
  ASSERT_TRUE(b.AddEdge(0, 3, 0.1).ok());
  ASSERT_TRUE(b.AddEdge(2, 1, 0.25).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(b.AddOrAccumulateEdge(3, 2, 0.2).ok());
  ASSERT_TRUE(b.AddOrAccumulateEdge(3, 2, 0.3).ok());
  ExpectDigestMatchesOracle(b.Finalize(), "unsorted builder");

  ExpectDigestMatchesOracle(Uniform(1), "GenerateUniformGraph");
  ExpectDigestMatchesOracle(MakePaperExampleGraph(), "paper example");
}

TEST(GraphDigestOnceTest, PcgDecodeWithAndWithoutLabels) {
  for (const PreferenceGraph& graph :
       {MakePaperExampleGraph(), Uniform(2), Uniform(3, true)}) {
    ASSERT_EQ(graph.HasLabels(), graph.NumNodes() == 5);
    auto decoded = DeserializeGraphBinary(SerializeGraphBinary(graph));
    ExpectDigestMatchesOracle(decoded, "DeserializeGraphBinary");
    EXPECT_EQ(GraphDigest(*decoded), GraphDigest(graph));

    const std::string path = ::testing::TempDir() + "/graph_digest_test.pcg";
    ASSERT_TRUE(WriteGraphBinaryFile(graph, path).ok());
    ExpectDigestMatchesOracle(ReadGraphBinaryFile(path),
                              "ReadGraphBinaryFile");
  }
}

TEST(GraphDigestOnceTest, CsvRead) {
  const PreferenceGraph graph = MakePaperExampleGraph();
  std::stringstream nodes, edges;
  ASSERT_TRUE(WriteGraphCsv(graph, &nodes, &edges).ok());
  auto read = ReadGraphCsv(&nodes, &edges);
  ExpectDigestMatchesOracle(read, "ReadGraphCsv");
  EXPECT_EQ(GraphDigest(*read), GraphDigest(graph));
}

TEST(GraphDigestOnceTest, ClickstreamConstruction) {
  const std::string csv = ClickstreamCsv();
  for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
    GraphConstructionOptions options;
    options.variant = variant;
    std::istringstream in(csv);
    auto clicks = ReadClickstreamCsv(&in);
    ASSERT_TRUE(clicks.ok());
    auto built = BuildPreferenceGraph(*clicks, options);
    ExpectDigestMatchesOracle(built, "BuildPreferenceGraph");

    std::istringstream events(csv);
    auto streamed = BuildPreferenceGraphStreaming(&events, options);
    ExpectDigestMatchesOracle(streamed, "BuildPreferenceGraphStreaming");
    EXPECT_EQ(GraphDigest(*streamed), GraphDigest(*built));
  }
}

TEST(GraphDigestOnceTest, EveryTransform) {
  const PreferenceGraph g = Uniform(4);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.NumNodes(); v += 3) nodes.push_back(v);
  ExpectDigestMatchesOracle(ReverseGraph(g), "ReverseGraph");
  ExpectDigestMatchesOracle(InducedSubgraph(g, nodes), "InducedSubgraph");
  ExpectDigestMatchesOracle(InducedSubgraph(g, nodes, false),
                            "InducedSubgraph unnormalized");
  ExpectDigestMatchesOracle(TopWeightSubgraph(g, 20), "TopWeightSubgraph");
  ExpectDigestMatchesOracle(NormalizeNodeWeights(g), "NormalizeNodeWeights");
  ExpectDigestMatchesOracle(CompleteWithSelfLoops(Uniform(6, true)),
                            "CompleteWithSelfLoops");
  ExpectDigestMatchesOracle(ClampOutWeights(g), "ClampOutWeights");
  ExpectDigestMatchesOracle(KeepStrongestEdges(g, 2), "KeepStrongestEdges");
}

TEST(GraphDigestOnceTest, DynamicGraphSnapshot) {
  DynamicPreferenceGraph dynamic;
  std::vector<StableId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(dynamic.AddItem(1.0 + i));
  ASSERT_TRUE(dynamic.UpsertEdge(ids[5], ids[0], 0.4).ok());
  ASSERT_TRUE(dynamic.UpsertEdge(ids[1], ids[4], 0.3).ok());
  ASSERT_TRUE(dynamic.UpsertEdge(ids[1], ids[2], 0.6).ok());
  ExpectDigestMatchesOracle(dynamic.Snapshot(), "Snapshot");
  ASSERT_TRUE(dynamic.RemoveItem(ids[2]).ok());
  ASSERT_TRUE(dynamic.SetItemWeight(ids[0], 7.0).ok());
  ExpectDigestMatchesOracle(dynamic.Snapshot(), "Snapshot after churn");
}

TEST(GraphDigestOnceTest, CopyAndMove) {
  const PreferenceGraph original = Uniform(5);
  const uint64_t digest = OracleDigest(original);
  PreferenceGraph copy(original);
  EXPECT_EQ(GraphDigest(copy), digest);
  PreferenceGraph assigned;
  assigned = copy;
  EXPECT_EQ(GraphDigest(assigned), digest);
  PreferenceGraph moved(std::move(copy));
  EXPECT_EQ(GraphDigest(moved), digest);
  PreferenceGraph move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(GraphDigest(move_assigned), digest);
  EXPECT_EQ(OracleDigest(move_assigned), digest);
}

}  // namespace
}  // namespace prefcover
