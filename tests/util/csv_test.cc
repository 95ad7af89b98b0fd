#include "util/csv.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace prefcover {
namespace {

using Records = std::vector<std::vector<std::string>>;

// Reads every record of `text`; fails the test on a reader error.
Records ReadAll(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(&in);
  Records records;
  std::vector<std::string> fields;
  while (reader.Next(&fields)) records.push_back(fields);
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  return records;
}

// The reader's block size; the tests below place records across it.
constexpr size_t kBlock = 64 * 1024;

// A filler record of `length` bytes including its '\n'.
std::string Filler(size_t length) { return std::string(length - 1, 'f') + "\n"; }

TEST(ParseCsvLineTest, SimpleFields) {
  auto r = ParseCsvLine("a,b,c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto r = ParseCsvLine(",,");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsvLineTest, SingleField) {
  auto r = ParseCsvLine("only");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, std::vector<std::string>{"only"});
}

TEST(ParseCsvLineTest, EmptyLineIsOneEmptyField) {
  auto r = ParseCsvLine("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, std::vector<std::string>{""});
}

TEST(ParseCsvLineTest, QuotedFieldWithDelimiter) {
  auto r = ParseCsvLine(R"("a,b",c)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsvLineTest, EscapedQuote) {
  auto r = ParseCsvLine(R"("say ""hi""",x)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(ParseCsvLineTest, QuotedNewline) {
  auto r = ParseCsvLine("\"line1\nline2\",x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"line1\nline2", "x"}));
}

TEST(ParseCsvLineTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvLine(R"("abc)").ok());
}

TEST(ParseCsvLineTest, QuoteInsideUnquotedFieldFails) {
  EXPECT_FALSE(ParseCsvLine(R"(ab"c)").ok());
}

TEST(ParseCsvLineTest, TrailingCharsAfterQuoteFail) {
  EXPECT_FALSE(ParseCsvLine(R"("abc"def)").ok());
}

TEST(ParseCsvLineTest, CustomDelimiter) {
  auto r = ParseCsvLine("a;b;c", ';');
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FormatCsvLineTest, PlainFields) {
  EXPECT_EQ(FormatCsvLine({"a", "b"}), "a,b");
}

TEST(FormatCsvLineTest, QuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a,b", "c"}), "\"a,b\",c");
  EXPECT_EQ(FormatCsvLine({"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(FormatCsvLine({"two\nlines"}), "\"two\nlines\"");
}

TEST(CsvRoundTripTest, ParseOfFormatIsIdentity) {
  std::vector<std::vector<std::string>> cases = {
      {"a", "b", "c"},
      {"", "", ""},
      {"with,comma", "with\"quote", "with\nnewline"},
      {"plain"},
  };
  for (const auto& fields : cases) {
    auto parsed = ParseCsvLine(FormatCsvLine(fields));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, fields);
  }
}

TEST(CsvReaderTest, ReadsMultipleRecords) {
  std::istringstream in("h1,h2\n1,2\n3,4\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"h1", "h2"}));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"1", "2"}));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"3", "4"}));
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_TRUE(reader.status().ok());
}

TEST(CsvReaderTest, HandlesCrlf) {
  std::istringstream in("a,b\r\nc,d\r\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"c", "d"}));
}

TEST(CsvReaderTest, QuotedFieldSpanningLines) {
  std::istringstream in("\"multi\nline\",x\nnext,y\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"multi\nline", "x"}));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"next", "y"}));
}

TEST(CsvReaderTest, MalformedRecordSetsStatus) {
  std::istringstream in("good,row\nbad\"row,x\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_FALSE(reader.status().ok());
  EXPECT_TRUE(reader.status().IsInvalidArgument());
}

TEST(CsvReaderTest, EmptyInput) {
  std::istringstream in("");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_TRUE(reader.status().ok());
}

TEST(ParseCsvLineTest, UnquotedLineBreaksAreFieldBytes) {
  // ParseCsvLine's input is one record: only CsvReader splits on '\n'.
  auto r = ParseCsvLine("a\nb,c\r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a\nb", "c\r"}));
  EXPECT_FALSE(ParseCsvLine("\"a\"\n").ok());
}

TEST(CsvReaderTest, LastRecordWithoutNewline) {
  EXPECT_EQ(ReadAll("a,b\nc,d"), (Records{{"a", "b"}, {"c", "d"}}));
  EXPECT_EQ(ReadAll("a,b\nc,d\r"), (Records{{"a", "b"}, {"c", "d"}}));
  EXPECT_EQ(ReadAll("x\n\"q\nr\""), (Records{{"x"}, {"q\nr"}}));
}

TEST(CsvReaderTest, BlankLineIsOneEmptyField) {
  std::istringstream in("a,b\n\nc,d\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, std::vector<std::string>{""});
  EXPECT_EQ(reader.record_number(), 2u);
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(reader.record_number(), 3u);
  EXPECT_FALSE(reader.Next(&fields));
}

TEST(CsvReaderTest, CrlfInsideQuotesIsKept) {
  EXPECT_EQ(ReadAll("\"a\r\nb\",c\r\nd\r\n"),
            (Records{{"a\r\nb", "c"}, {"d"}}));
  // A bare '\r' is a field byte; only the one before '\n' ends a line.
  EXPECT_EQ(ReadAll("a\rb,\r\r\n"), (Records{{"a\rb", "\r"}}));
}

TEST(CsvReaderTest, MalformedRecordNamesItsNumber) {
  std::istringstream in(Filler(kBlock - 3) + "ok\nbad\"row,x\nnever\n");
  CsvReader reader(&in);
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_EQ(reader.record_number(), 3u);
  EXPECT_EQ(reader.status().message(),
            "record 3: unexpected quote inside unquoted field");
  EXPECT_FALSE(reader.Next(&fields));  // the reader stays stopped

  std::istringstream closed("a\n\"abc\"x,y\n");
  CsvReader after_quote(&closed);
  ASSERT_TRUE(after_quote.Next(&fields));
  EXPECT_FALSE(after_quote.Next(&fields));
  EXPECT_EQ(after_quote.status().message(),
            "record 2: characters after closing quote");

  std::istringstream open(Filler(kBlock - 1) + "\"never closed\n" +
                          Filler(kBlock));
  CsvReader unterminated(&open);
  ASSERT_TRUE(unterminated.Next(&fields));
  EXPECT_FALSE(unterminated.Next(&fields));
  EXPECT_EQ(unterminated.status().message(),
            "record 2: unterminated quoted field");
}

TEST(CsvReaderTest, RecordsStraddlingABlockBoundary) {
  // Each record starts at every offset from 12 bytes before the block
  // boundary to 2 after, so every byte of it, the CR of a CRLF pair and
  // the quotes of a "" escape included, falls on the boundary once.
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      cases = {
          {"abc,defg,hi\n", {"abc", "defg", "hi"}},
          {"\"x\ny\"\"z\",w\n", {"x\ny\"z", "w"}},
          {"crlf,pair\r\n", {"crlf", "pair"}},
          {"\"q\",\r\n", {"q", ""}},
      };
  for (const auto& [text, fields] : cases) {
    for (size_t start = kBlock - 12; start <= kBlock + 2; ++start) {
      const Records records =
          ReadAll(Filler(start) + text + "tail,1\n");
      ASSERT_EQ(records.size(), 3u) << text << " at " << start;
      EXPECT_EQ(records[1], fields) << text << " at " << start;
      EXPECT_EQ(records[2], (std::vector<std::string>{"tail", "1"}));
    }
  }
}

TEST(CsvReaderTest, ReusesTheCallersFields) {
  std::istringstream in("a,b,c,d\ne\nf,g\n");
  CsvReader reader(&in);
  std::vector<std::string> fields = {"stale", "", "", "", "", "", "x"};
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "c", "d"}));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, std::vector<std::string>{"e"});
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"f", "g"}));
}

TEST(CsvWriterReaderTest, RandomFieldsRoundTripThroughTheReader) {
  // CsvReader(CsvWriter(records)) == records for random fields built from
  // commas, quotes, CR, LF and plain bytes, many of them empty. Each seed
  // writes several blocks' worth, so records also cross block boundaries.
  const std::string alphabet = ",\"\r\nab ";
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Records records;
    std::ostringstream out;
    CsvWriter writer(&out);
    while (out.tellp() < static_cast<std::streamoff>(3 * kBlock)) {
      std::vector<std::string> fields(1 + rng.NextBounded(6));
      for (std::string& field : fields) {
        if (rng.NextBernoulli(0.3)) continue;  // empty field
        const uint64_t length = 1 + rng.NextBounded(10);
        for (uint64_t c = 0; c < length; ++c) {
          field += alphabet[rng.NextBounded(alphabet.size())];
        }
      }
      writer.WriteRecord(fields);
      records.push_back(std::move(fields));
    }
    EXPECT_EQ(ReadAll(out.str()), records) << "seed " << seed;
  }
}

TEST(CsvWriterTest, WritesRecordsWithNewlines) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteRecord({"a", "b"});
  writer.WriteRecord({"1,5", "2"});
  EXPECT_EQ(out.str(), "a,b\n\"1,5\",2\n");
  EXPECT_EQ(writer.records_written(), 2u);
}

TEST(CsvWriterReaderTest, RoundTripThroughStreams) {
  std::ostringstream out;
  CsvWriter writer(&out);
  std::vector<std::vector<std::string>> records = {
      {"id", "name"}, {"1", "quoted \"x\""}, {"2", "a,b"}};
  for (const auto& r : records) writer.WriteRecord(r);

  std::istringstream in(out.str());
  CsvReader reader(&in);
  std::vector<std::string> fields;
  for (const auto& expected : records) {
    ASSERT_TRUE(reader.Next(&fields));
    EXPECT_EQ(fields, expected);
  }
  EXPECT_FALSE(reader.Next(&fields));
}

}  // namespace
}  // namespace prefcover
