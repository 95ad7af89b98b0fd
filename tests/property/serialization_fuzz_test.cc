// Corruption-coverage properties of the serialization layers:
//   - every single-bit flip anywhere in a .pcg stream must be detected
//     (error), never silently accepted as a different graph;
//   - CSV round-trips are identity for arbitrary field content.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "util/csv.h"
#include "util/random.h"

namespace prefcover {
namespace {

bool GraphsEqual(const PreferenceGraph& a, const PreferenceGraph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    if (a.NodeWeight(v) != b.NodeWeight(v)) return false;
    AdjacencyView oa = a.OutNeighbors(v), ob = b.OutNeighbors(v);
    if (oa.size() != ob.size()) return false;
    for (size_t i = 0; i < oa.size(); ++i) {
      if (oa.nodes[i] != ob.nodes[i] || oa.weights[i] != ob.weights[i]) {
        return false;
      }
    }
  }
  return true;
}

TEST(SerializationFuzzTest, EverySingleBitFlipIsDetected) {
  Rng rng(3);
  UniformGraphParams params;
  params.num_nodes = 12;
  params.out_degree = 3;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok());
  const std::string original = SerializeGraphBinary(*g);

  size_t silent_corruptions = 0;
  for (size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = original;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      auto read = DeserializeGraphBinary(corrupted);
      if (read.ok() && !GraphsEqual(*g, *read)) {
        ++silent_corruptions;
      }
      // A flip in the node-weight/edge-weight payload changes the FNV
      // digest, a flip in the header fails structurally, a flip in the
      // stored checksum mismatches the recomputed one: read.ok() should
      // be false for every flip. (If a flip were somehow undetected, it
      // must at least decode to the identical graph, e.g. flips that
      // cannot occur here; count anything else as a failure.)
      EXPECT_FALSE(read.ok() && !GraphsEqual(*g, *read))
          << "undetected corruption at byte " << byte << " bit " << bit;
    }
  }
  EXPECT_EQ(silent_corruptions, 0u);
}

TEST(SerializationFuzzTest, RandomTruncationsAreDetected) {
  PreferenceGraph g = MakePaperExampleGraph();
  const std::string original = SerializeGraphBinary(g);
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    size_t cut = static_cast<size_t>(rng.NextBounded(original.size()));
    auto read = DeserializeGraphBinary(original.substr(0, cut));
    EXPECT_FALSE(read.ok()) << "cut at " << cut;
  }
}

TEST(SerializationFuzzTest, CsvRoundTripsArbitraryContent) {
  Rng rng(17);
  const std::string alphabet =
      "abcXYZ0189,\";\n\r\t '|\\~`!@#$%^&*()";
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> fields;
    size_t num_fields = 1 + rng.NextBounded(6);
    for (size_t f = 0; f < num_fields; ++f) {
      std::string field;
      size_t len = rng.NextBounded(20);
      for (size_t c = 0; c < len; ++c) {
        field += alphabet[rng.NextBounded(alphabet.size())];
      }
      fields.push_back(std::move(field));
    }
    auto parsed = ParseCsvLine(FormatCsvLine(fields));
    ASSERT_TRUE(parsed.ok()) << "trial " << trial;
    EXPECT_EQ(*parsed, fields) << "trial " << trial;
  }
}

TEST(SerializationFuzzTest, CsvReaderWriterStreamRoundTrip) {
  Rng rng(23);
  const std::string alphabet = "ab,\"\n xyz";
  std::vector<std::vector<std::string>> records;
  std::ostringstream out;
  CsvWriter writer(&out);
  for (int r = 0; r < 100; ++r) {
    std::vector<std::string> fields;
    size_t num_fields = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < num_fields; ++f) {
      std::string field;
      size_t len = rng.NextBounded(12);
      for (size_t c = 0; c < len; ++c) {
        field += alphabet[rng.NextBounded(alphabet.size())];
      }
      fields.push_back(std::move(field));
    }
    writer.WriteRecord(fields);
    records.push_back(std::move(fields));
  }
  std::istringstream in(out.str());
  CsvReader reader(&in);
  std::vector<std::string> fields;
  for (const auto& expected : records) {
    ASSERT_TRUE(reader.Next(&fields));
    EXPECT_EQ(fields, expected);
  }
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_TRUE(reader.status().ok());
}

TEST(SerializationFuzzTest, GraphRoundTripManyRandomGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    UniformGraphParams params;
    params.num_nodes = 20 + static_cast<uint32_t>(rng.NextBounded(100));
    params.out_degree = 1 + static_cast<uint32_t>(rng.NextBounded(8));
    params.normalized_out_weights = seed % 2 == 0;
    auto g = GenerateUniformGraph(params, &rng);
    ASSERT_TRUE(g.ok());
    const std::string buf = SerializeGraphBinary(*g);
    auto read = DeserializeGraphBinary(buf);
    ASSERT_TRUE(read.ok()) << "seed " << seed;
    EXPECT_TRUE(GraphsEqual(*g, *read)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace prefcover
