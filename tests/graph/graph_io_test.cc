#include "graph/graph_io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "graph/graph_generators.h"
#include "util/random.h"

namespace prefcover {
namespace {

// Structural equality check between two graphs.
void ExpectGraphsEqual(const PreferenceGraph& a, const PreferenceGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.HasLabels(), b.HasLabels());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_DOUBLE_EQ(a.NodeWeight(v), b.NodeWeight(v)) << "node " << v;
    if (a.HasLabels()) {
      EXPECT_EQ(a.Label(v), b.Label(v));
    }
    AdjacencyView oa = a.OutNeighbors(v);
    AdjacencyView ob = b.OutNeighbors(v);
    ASSERT_EQ(oa.size(), ob.size()) << "node " << v;
    for (size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa.nodes[i], ob.nodes[i]);
      EXPECT_DOUBLE_EQ(oa.weights[i], ob.weights[i]);
    }
  }
}

TEST(GraphBinaryIoTest, RoundTripPaperExample) {
  PreferenceGraph g = MakePaperExampleGraph();
  const std::string buf = SerializeGraphBinary(g);
  auto read = DeserializeGraphBinary(buf);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectGraphsEqual(g, *read);
}

TEST(GraphBinaryIoTest, RoundTripRandomGraph) {
  Rng rng(5);
  UniformGraphParams params;
  params.num_nodes = 200;
  params.out_degree = 6;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok());
  const std::string buf = SerializeGraphBinary(*g);
  auto read = DeserializeGraphBinary(buf);
  ASSERT_TRUE(read.ok());
  ExpectGraphsEqual(*g, *read);
}

TEST(GraphBinaryIoTest, RoundTripUnlabeledGraph) {
  GraphBuilder b;
  b.AddNode(0.5);
  b.AddNode(0.5);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.3).ok());
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  const std::string buf = SerializeGraphBinary(*g);
  auto read = DeserializeGraphBinary(buf);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->HasLabels());
  ExpectGraphsEqual(*g, *read);
}

TEST(GraphBinaryIoTest, BadMagicRejected) {
  const std::string buf = "NOTAGRAPHFILE_____";
  auto read = DeserializeGraphBinary(buf);
  EXPECT_TRUE(read.status().IsCorruption());
}

TEST(GraphBinaryIoTest, TruncationDetected) {
  PreferenceGraph g = MakePaperExampleGraph();
  std::string data = SerializeGraphBinary(g);
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{10}}) {
    const std::string truncated = data.substr(0, cut);
    auto read = DeserializeGraphBinary(truncated);
    EXPECT_TRUE(read.status().IsCorruption()) << "cut at " << cut;
  }
}

TEST(GraphBinaryIoTest, BitFlipDetectedByChecksum) {
  PreferenceGraph g = MakePaperExampleGraph();
  std::string data = SerializeGraphBinary(g);
  // Flip a bit in the node-weight payload region (after magic+header).
  data[32] = static_cast<char>(data[32] ^ 0x40);
  auto read = DeserializeGraphBinary(data);
  EXPECT_FALSE(read.ok());
}

TEST(GraphBinaryIoTest, FileRoundTrip) {
  PreferenceGraph g = MakePaperExampleGraph();
  std::string path = ::testing::TempDir() + "/graph_io_test.pcg";
  ASSERT_TRUE(WriteGraphBinaryFile(g, path).ok());
  auto read = ReadGraphBinaryFile(path);
  ASSERT_TRUE(read.ok());
  ExpectGraphsEqual(g, *read);
}

TEST(GraphBinaryIoTest, MissingFileIsIOError) {
  auto read = ReadGraphBinaryFile("/nonexistent/path/graph.pcg");
  EXPECT_TRUE(read.status().IsIOError());
}

TEST(GraphCsvIoTest, RoundTripLabeled) {
  PreferenceGraph g = MakePaperExampleGraph();
  std::stringstream nodes, edges;
  ASSERT_TRUE(WriteGraphCsv(g, &nodes, &edges).ok());
  GraphValidationOptions options;
  options.require_normalized_out_weights = true;
  auto read = ReadGraphCsv(&nodes, &edges, options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectGraphsEqual(g, *read);
}

TEST(GraphCsvIoTest, NodesHeaderValidated) {
  std::stringstream nodes("wrong,header\n"), edges("from,to,weight\n");
  EXPECT_FALSE(ReadGraphCsv(&nodes, &edges).ok());
}

TEST(GraphCsvIoTest, EdgesHeaderValidated) {
  std::stringstream nodes("id,weight\n0,1.0\n"), edges("bad\n");
  EXPECT_FALSE(ReadGraphCsv(&nodes, &edges).ok());
}

TEST(GraphCsvIoTest, NonDenseIdsRejected) {
  std::stringstream nodes("id,weight\n0,0.5\n2,0.5\n");
  std::stringstream edges("from,to,weight\n");
  auto read = ReadGraphCsv(&nodes, &edges);
  EXPECT_TRUE(read.status().IsInvalidArgument());
}

TEST(GraphCsvIoTest, EdgeReferencingUnknownNodeRejected) {
  std::stringstream nodes("id,weight\n0,1.0\n");
  std::stringstream edges("from,to,weight\n0,9,0.5\n");
  EXPECT_FALSE(ReadGraphCsv(&nodes, &edges).ok());
}

TEST(GraphCsvIoTest, WeightsSurviveFullPrecision) {
  GraphBuilder b;
  b.AddNode(1.0 / 3.0);
  b.AddNode(2.0 / 3.0);
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0 / 7.0).ok());
  auto g = b.Finalize();
  ASSERT_TRUE(g.ok());
  std::stringstream nodes, edges;
  ASSERT_TRUE(WriteGraphCsv(*g, &nodes, &edges).ok());
  auto read = ReadGraphCsv(&nodes, &edges);
  ASSERT_TRUE(read.ok());
  EXPECT_DOUBLE_EQ(read->NodeWeight(0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(read->EdgeWeight(0, 1), 1.0 / 7.0);
}

}  // namespace
}  // namespace prefcover
