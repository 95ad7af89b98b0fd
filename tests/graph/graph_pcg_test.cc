// The .pcg codec against fixed bytes and hand-made images.
//
// GraphGoldenTest locks the emission byte for byte on two pinned graphs
// and pins their GraphDigest values. A diff here means the format (or the
// digest every checkpoint, serving index and dist worker compares)
// changed: bump the version instead of silently breaking old artifacts.
// Regenerate the files with PREFCOVER_REGENERATE_GOLDEN=1.
//
// PcgDecodeTest covers images no writer produces: adjacency lists out of
// order, repeated edges, and paths that are not files.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "util/hash.h"
#include "util/random.h"

namespace prefcover {
namespace {

PreferenceGraph UniformSeed5() {
  Rng rng(5);
  UniformGraphParams params;
  params.num_nodes = 64;
  params.out_degree = 4;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

void ExpectSameGraph(const PreferenceGraph& a, const PreferenceGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(a.HasLabels(), b.HasLabels());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.NodeWeight(v), b.NodeWeight(v)) << "node " << v;
    if (a.HasLabels()) {
      EXPECT_EQ(a.Label(v), b.Label(v)) << "node " << v;
    }
    AdjacencyView oa = a.OutNeighbors(v), ob = b.OutNeighbors(v);
    ASSERT_EQ(oa.size(), ob.size()) << "node " << v;
    for (size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa.nodes[i], ob.nodes[i]);
      EXPECT_EQ(oa.weights[i], ob.weights[i]);
    }
  }
}

void CheckGolden(const PreferenceGraph& graph, const std::string& name,
                 uint64_t expected_digest) {
  const std::string bytes = SerializeGraphBinary(graph);
  const std::string path = std::string(PREFCOVER_GOLDEN_DIR) + "/" + name;
  if (std::getenv("PREFCOVER_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    std::printf("%s digest 0x%016llX\n", name.c_str(),
                static_cast<unsigned long long>(GraphDigest(graph)));
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path
      << " missing; run with PREFCOVER_REGENERATE_GOLDEN=1 to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(bytes, golden.str())
      << ".pcg emission diverged from " << name;

  auto decoded = DeserializeGraphBinary(golden.str());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameGraph(graph, *decoded);
  EXPECT_EQ(GraphDigest(graph), expected_digest);
  EXPECT_EQ(GraphDigest(*decoded), expected_digest);
}

TEST(GraphGoldenTest, PaperExampleLabeled) {
  CheckGolden(MakePaperExampleGraph(), "graph_paper_example.pcg",
              0x0175F9483F9B2260ULL);
}

TEST(GraphGoldenTest, UniformSeed5Unlabeled) {
  CheckGolden(UniformSeed5(), "graph_uniform_seed5.pcg",
              0x270B338FE691784CULL);
}

// Byte offset of v's out-degree field in `graph`'s image.
size_t ListOffset(const PreferenceGraph& graph, NodeId v) {
  size_t offset = 8 + 4 + 8 + 8 + 1 + 8 * graph.NumNodes();
  for (NodeId u = 0; u < v; ++u) offset += 4 + 12 * graph.OutDegree(u);
  return offset;
}

// Rewrites the trailing checksum so a hand-edited image passes it.
void Reseal(std::string* image) {
  Fnv1a checksum;
  checksum.Update(image->data() + 8, image->size() - 16);
  const uint64_t digest = checksum.digest();
  std::memcpy(image->data() + image->size() - 8, &digest, sizeof(digest));
}

// A node with at least three alternatives in `graph`.
NodeId WideNode(const PreferenceGraph& graph) {
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (graph.OutDegree(v) >= 3) return v;
  }
  ADD_FAILURE() << "no node with out-degree >= 3";
  return 0;
}

TEST(PcgDecodeTest, DescendingAdjacencyLoadsAsItsSortedTwin) {
  const PreferenceGraph sorted = UniformSeed5();
  const NodeId v = WideNode(sorted);
  std::string image = SerializeGraphBinary(sorted);
  // Reverse v's (target, weight) records in place.
  const size_t first = ListOffset(sorted, v) + 4;
  const size_t deg = sorted.OutDegree(v);
  std::vector<std::string> records;
  for (size_t i = 0; i < deg; ++i) {
    records.push_back(image.substr(first + 12 * i, 12));
  }
  std::reverse(records.begin(), records.end());
  for (size_t i = 0; i < deg; ++i) {
    image.replace(first + 12 * i, 12, records[i]);
  }
  Reseal(&image);
  ASSERT_NE(image, SerializeGraphBinary(sorted));

  auto decoded = DeserializeGraphBinary(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameGraph(sorted, *decoded);
  // The digest is of the sorted graph, not of the file's byte order.
  EXPECT_EQ(GraphDigest(*decoded), GraphDigest(sorted));
  EXPECT_EQ(SerializeGraphBinary(*decoded), SerializeGraphBinary(sorted));
}

TEST(PcgDecodeTest, RepeatedEdgeRejected) {
  const PreferenceGraph graph = UniformSeed5();
  const NodeId v = WideNode(graph);
  std::string image = SerializeGraphBinary(graph);
  // Point v's second edge at its first edge's target.
  const size_t first = ListOffset(graph, v) + 4;
  image.replace(first + 12, 4, image.substr(first, 4));
  Reseal(&image);

  auto decoded = DeserializeGraphBinary(image);
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

TEST(PcgDecodeTest, DirectoryIsIOError) {
  auto read = ReadGraphBinaryFile(::testing::TempDir());
  EXPECT_TRUE(read.status().IsIOError()) << read.status().ToString();
}

}  // namespace
}  // namespace prefcover
