// Malformed-input corpus: every load path must reject corrupt, truncated
// or absurd inputs with a descriptive Status — never a crash, a hang, an
// unbounded allocation, or a silently wrong in-memory object.

#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/streaming_construction.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"

namespace prefcover {
namespace {

std::string ValidGraphBytes() {
  PreferenceGraph g = MakePaperExampleGraph();
  return SerializeGraphBinary(g);
}

TEST(MalformedGraphTest, TruncationAtEveryOffsetRejected) {
  const std::string bytes = ValidGraphBytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string truncated = bytes.substr(0, cut);
    auto read = DeserializeGraphBinary(truncated);
    EXPECT_FALSE(read.ok()) << "cut at " << cut;
  }
}

TEST(MalformedGraphTest, SingleByteFlipAtEveryOffsetRejected) {
  // Every byte after the magic is covered by the trailing digest, and the
  // magic itself is compared literally, so no single-byte flip can load.
  const std::string bytes = ValidGraphBytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    auto read = DeserializeGraphBinary(corrupted);
    EXPECT_FALSE(read.ok()) << "flip at byte " << i;
  }
}

TEST(MalformedGraphTest, AbsurdNodeCountRejectedWithoutAllocation) {
  // Patch the node-count field (offset 12: 8 magic + 4 version) to 2^64-1.
  // The reader must fail on the short payload, not try to reserve memory
  // for 2^64 nodes.
  std::string bytes = ValidGraphBytes();
  ASSERT_GT(bytes.size(), 20u);
  std::memset(&bytes[12], 0xFF, 8);
  auto read = DeserializeGraphBinary(bytes);
  EXPECT_FALSE(read.ok());
}

TEST(MalformedGraphTest, AbsurdEdgeCountRejected) {
  // Edge-count field lives at offset 20.
  std::string bytes = ValidGraphBytes();
  ASSERT_GT(bytes.size(), 28u);
  std::memset(&bytes[20], 0xFF, 8);
  auto read = DeserializeGraphBinary(bytes);
  EXPECT_FALSE(read.ok());
}

TEST(MalformedGraphTest, EmptyAndGarbagePrefixRejected) {
  for (const char* garbage :
       {"", "PCG", "PCGRAPH2________", "<html>not a graph</html>",
        "PCGRAPH1"}) {
    auto read = DeserializeGraphBinary(std::string(garbage));
    EXPECT_FALSE(read.ok()) << "input: " << garbage;
  }
}

TEST(MalformedClickstreamTest, BadHeaderRejected) {
  for (const char* text :
       {"not,a,clickstream\n1,click,a\n",
        "session_id,event_type\n",  // too few header columns
        ""}) {
    std::stringstream in{std::string(text)};
    auto read = ReadClickstreamCsv(&in);
    // An empty stream yields an empty clickstream; anything with a wrong
    // header must fail.
    if (std::string(text).empty()) {
      EXPECT_TRUE(read.ok());
    } else {
      EXPECT_FALSE(read.ok()) << "input: " << text;
    }
  }
}

TEST(MalformedClickstreamTest, WrongFieldCountRejected) {
  std::stringstream in{std::string(
      "session_id,event_type,item_id\n1,click\n")};
  auto read = ReadClickstreamCsv(&in);
  EXPECT_TRUE(read.status().IsInvalidArgument());
}

TEST(MalformedClickstreamTest, UnknownEventTypeRejected) {
  std::stringstream in{std::string(
      "session_id,event_type,item_id\n1,view,itemA\n")};
  auto read = ReadClickstreamCsv(&in);
  EXPECT_TRUE(read.status().IsInvalidArgument());
}

TEST(MalformedClickstreamTest, MultiplePurchasesRejected) {
  std::stringstream in{std::string(
      "session_id,event_type,item_id\n"
      "1,click,a\n1,purchase,a\n1,purchase,b\n")};
  auto read = ReadClickstreamCsv(&in);
  EXPECT_TRUE(read.status().IsInvalidArgument());
}

TEST(MalformedClickstreamTest, InterleavedSessionsRejected) {
  std::stringstream in{std::string(
      "session_id,event_type,item_id\n"
      "1,click,a\n2,click,b\n1,click,c\n")};
  auto read = ReadClickstreamCsv(&in);
  EXPECT_TRUE(read.status().IsInvalidArgument());
}

TEST(MalformedClickstreamTest, BadDwellValueRejected) {
  std::stringstream in{std::string(
      "session_id,event_type,item_id,dwell_seconds\n"
      "1,click,a,not_a_number\n")};
  auto read = ReadClickstreamCsv(&in);
  EXPECT_TRUE(read.status().IsInvalidArgument());
}

TEST(MalformedClickstreamTest, StreamingConstructionRejectsSameCorpus) {
  // The streaming path parses the same format and must reject the same
  // malformations (it cannot detect interleaving, which is documented).
  for (const char* text :
       {"not,a,clickstream\n1,click,a\n",
        "session_id,event_type,item_id\n1,click\n",
        "session_id,event_type,item_id\n1,view,itemA\n",
        "session_id,event_type,item_id\n1,purchase,a\n1,purchase,b\n"}) {
    std::stringstream in{std::string(text)};
    auto built = BuildPreferenceGraphStreaming(&in);
    EXPECT_FALSE(built.ok()) << "input: " << text;
  }
}

TEST(MalformedClickstreamTest, MissingStreamingFileIsIOError) {
  auto built = BuildPreferenceGraphStreamingFile(
      ::testing::TempDir() + "/malformed_input_test_missing.csv");
  EXPECT_FALSE(built.ok());
}

}  // namespace
}  // namespace prefcover
