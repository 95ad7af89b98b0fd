// A stream that fails partway must stop every CSV reader with an IOError,
// never read as a shorter input: CsvReader itself, and through it the
// clickstream reader, the streaming construction and the graph CSV
// reader.

#include <algorithm>
#include <functional>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/streaming_construction.h"
#include "graph/graph_io.h"
#include "util/csv.h"

namespace prefcover {
namespace {

// CsvReader's block size.
constexpr size_t kBlock = 64 * 1024;

// Serves `text` and throws from the read that reaches byte `fail_at`,
// like a device that fails partway through a file. An istream turns the
// throw into badbit, and libstdc++ keeps none of that read's bytes.
class FailingStreambuf : public std::streambuf {
 public:
  FailingStreambuf(std::string text, size_t fail_at)
      : text_(std::move(text)), fails_(fail_at < text_.size()) {
    char* begin = text_.data();
    setg(begin, begin, begin + std::min(fail_at, text_.size()));
  }

 protected:
  int_type underflow() override {
    if (fails_) throw std::runtime_error("device error");
    return traits_type::eof();
  }

 private:
  std::string text_;
  bool fails_;
};

// `header`, then record(0), record(1), ... up to exactly the first
// block's end, where `last(i, bytes)` makes a record of `bytes` bytes,
// then one more block's worth of records. Returns the text and, in
// `*in_first_block`, how many records (the header included) fill the
// first block.
std::string BlockAlignedCsv(
    const std::string& header,
    const std::function<std::string(size_t)>& record,
    const std::function<std::string(size_t, size_t)>& last,
    size_t* in_first_block) {
  std::string text = header;
  size_t i = 0;
  while (text.size() + 2 * record(i).size() < kBlock) text += record(i++);
  text += last(i++, kBlock - text.size());
  EXPECT_EQ(text.size(), kBlock);
  *in_first_block = i + 1;
  while (text.size() < 2 * kBlock) text += record(i++);
  return text;
}

std::string ClickstreamCsv(size_t* in_first_block) {
  return BlockAlignedCsv(
      "session_id,event_type,item_id\n",
      [](size_t i) {
        const std::string sid = std::to_string(i / 2);
        return i % 2 == 0
                   ? sid + ",click,item" + std::to_string(i % 97) + "\n"
                   : sid + ",purchase,item" + std::to_string(i % 89) + "\n";
      },
      [](size_t i, size_t bytes) {
        const std::string head = "last" + std::to_string(i) + ",purchase,";
        return head + std::string(bytes - head.size() - 1, 'z') + "\n";
      },
      in_first_block);
}

TEST(ReadErrorTest, CsvReaderStopsWithIOErrorNamingTheLastWholeRecord) {
  size_t in_first_block = 0;
  const std::string text = ClickstreamCsv(&in_first_block);
  // The first block ends on a record boundary, or, with 10 bytes put in
  // front, 10 bytes before the end of its last record.
  for (size_t cut : {size_t{0}, size_t{10}}) {
    FailingStreambuf buf(std::string(cut, 'h') + text, kBlock + 1000);
    std::istream in(&buf);
    CsvReader reader(&in);
    std::vector<std::string_view> fields;
    size_t records = 0;
    while (reader.Next(&fields)) ++records;
    const size_t whole = in_first_block - (cut == 0 ? 0 : 1);
    EXPECT_EQ(records, whole) << cut;
    EXPECT_EQ(reader.record_number(), whole) << cut;
    EXPECT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
    EXPECT_EQ(reader.status().message(),
              "read failed after record " + std::to_string(whole));
    EXPECT_FALSE(reader.Next(&fields));  // the reader stays stopped
  }
}

TEST(ReadErrorTest, ClickstreamReaderAndStreamingBuildFail) {
  size_t in_first_block = 0;
  const std::string text = ClickstreamCsv(&in_first_block);
  const std::string expected =
      "read failed after record " + std::to_string(in_first_block);
  {
    FailingStreambuf buf(text, kBlock + 1000);
    std::istream in(&buf);
    auto read = ReadClickstreamCsv(&in);
    EXPECT_TRUE(read.status().IsIOError()) << read.status().ToString();
    EXPECT_EQ(read.status().message(), expected);
  }
  {
    FailingStreambuf buf(text, kBlock + 1000);
    std::istream in(&buf);
    auto graph = BuildPreferenceGraphStreaming(&in);
    EXPECT_TRUE(graph.status().IsIOError()) << graph.status().ToString();
    EXPECT_EQ(graph.status().message(), expected);
  }
  // The same text read whole decodes.
  FailingStreambuf whole(text, text.size());
  std::istream in(&whole);
  EXPECT_TRUE(ReadClickstreamCsv(&in).ok());
}

TEST(ReadErrorTest, GraphCsvReaderFails) {
  size_t in_first_block = 0;
  const std::string nodes = BlockAlignedCsv(
      "id,weight\n",
      [](size_t i) { return std::to_string(i) + ",0.0001\n"; },
      [](size_t i, size_t bytes) {
        const std::string head = std::to_string(i) + ",0.";
        return head + std::string(bytes - head.size() - 2, '0') + "1\n";
      },
      &in_first_block);
  const std::string edges = "from,to,weight\n0,1,0.5\n1,0,0.25\n";
  GraphValidationOptions options;
  options.require_normalized_node_weights = false;
  {
    FailingStreambuf nodes_buf(nodes, kBlock + 1000);
    FailingStreambuf edges_buf(edges, edges.size());
    std::istream nodes_in(&nodes_buf), edges_in(&edges_buf);
    auto graph = ReadGraphCsv(&nodes_in, &edges_in, options);
    EXPECT_TRUE(graph.status().IsIOError()) << graph.status().ToString();
    EXPECT_EQ(graph.status().message(),
              "read failed after record " + std::to_string(in_first_block));
  }
  FailingStreambuf nodes_buf(nodes, nodes.size());
  FailingStreambuf edges_buf(edges, edges.size());
  std::istream nodes_in(&nodes_buf), edges_in(&edges_buf);
  auto graph = ReadGraphCsv(&nodes_in, &edges_in, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->NumEdges(), 2u);
}

}  // namespace
}  // namespace prefcover
