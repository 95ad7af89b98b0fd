#include "util/csv.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace prefcover {
namespace {

using Records = std::vector<std::vector<std::string>>;

// CsvReader through one of its two Next overloads, handing back string
// copies either way, so one test body checks both.
class Reader {
 public:
  Reader(std::istream* in, bool views) : reader_(in), views_(views) {}

  bool Next(std::vector<std::string>* fields) {
    if (!views_) return reader_.Next(fields);
    if (!reader_.Next(&view_fields_)) return false;
    fields->assign(view_fields_.begin(), view_fields_.end());
    return true;
  }
  const Status& status() const { return reader_.status(); }
  size_t record_number() const { return reader_.record_number(); }

 private:
  CsvReader reader_;
  bool views_;
  std::vector<std::string_view> view_fields_;
};

// Both overloads, for the tests' loops.
constexpr bool kOverloads[] = {false, true};

const char* OverloadName(bool views) { return views ? "views" : "strings"; }

// Reads every record of `text` through one overload; fails the test on a
// reader error.
Records ReadAll(const std::string& text, bool views) {
  std::istringstream in(text);
  Reader reader(&in, views);
  Records records;
  std::vector<std::string> fields;
  while (reader.Next(&fields)) records.push_back(fields);
  EXPECT_TRUE(reader.status().ok())
      << OverloadName(views) << ": " << reader.status().ToString();
  return records;
}

// Reads every record of `text` through both overloads, which must agree.
Records ReadAll(const std::string& text) {
  Records records = ReadAll(text, /*views=*/true);
  EXPECT_EQ(ReadAll(text, /*views=*/false), records);
  return records;
}

// The reader's block size; the tests below place records across it.
constexpr size_t kBlock = 64 * 1024;

// A filler record of `length` bytes including its '\n'.
std::string Filler(size_t length) {
  return std::string(length - 1, 'f') + "\n";
}

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
  for (bool views : kOverloads) {
    SCOPED_TRACE(OverloadName(views));
    std::istringstream in("h1,h2\n1,2\n3,4\n");
    Reader reader(&in, views);
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
}

TEST(CsvReaderTest, HandlesCrlf) {
  EXPECT_EQ(ReadAll("a,b\r\nc,d\r\n"), (Records{{"a", "b"}, {"c", "d"}}));
}

TEST(CsvReaderTest, QuotedFieldSpanningLines) {
  EXPECT_EQ(ReadAll("\"multi\nline\",x\nnext,y\n"),
            (Records{{"multi\nline", "x"}, {"next", "y"}}));
}

TEST(CsvReaderTest, MalformedRecordSetsStatus) {
  for (bool views : kOverloads) {
    SCOPED_TRACE(OverloadName(views));
    std::istringstream in("good,row\nbad\"row,x\n");
    Reader reader(&in, views);
    std::vector<std::string> fields;
    ASSERT_TRUE(reader.Next(&fields));
    EXPECT_FALSE(reader.Next(&fields));
    EXPECT_FALSE(reader.status().ok());
    EXPECT_TRUE(reader.status().IsInvalidArgument());
  }
}

TEST(CsvReaderTest, EmptyInput) {
  for (bool views : kOverloads) {
    SCOPED_TRACE(OverloadName(views));
    std::istringstream in("");
    Reader reader(&in, views);
    std::vector<std::string> fields;
    EXPECT_FALSE(reader.Next(&fields));
    EXPECT_TRUE(reader.status().ok());
  }
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
  for (bool views : kOverloads) {
    SCOPED_TRACE(OverloadName(views));
    std::istringstream in("a,b\n\nc,d\n");
    Reader reader(&in, views);
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
}

TEST(CsvReaderTest, CrlfInsideQuotesIsKept) {
  EXPECT_EQ(ReadAll("\"a\r\nb\",c\r\nd\r\n"),
            (Records{{"a\r\nb", "c"}, {"d"}}));
  // A bare '\r' is a field byte; only the one before '\n' ends a line.
  EXPECT_EQ(ReadAll("a\rb,\r\r\n"), (Records{{"a\rb", "\r"}}));
}

TEST(CsvReaderTest, MalformedRecordNamesItsNumber) {
  for (bool views : kOverloads) {
    SCOPED_TRACE(OverloadName(views));
    std::istringstream in(Filler(kBlock - 3) + "ok\nbad\"row,x\nnever\n");
    Reader reader(&in, views);
    std::vector<std::string> fields;
    ASSERT_TRUE(reader.Next(&fields));
    ASSERT_TRUE(reader.Next(&fields));
    EXPECT_FALSE(reader.Next(&fields));
    EXPECT_EQ(reader.record_number(), 3u);
    EXPECT_EQ(reader.status().message(),
              "record 3: unexpected quote inside unquoted field");
    EXPECT_FALSE(reader.Next(&fields));  // the reader stays stopped

    std::istringstream closed("a\n\"abc\"x,y\n");
    Reader after_quote(&closed, views);
    ASSERT_TRUE(after_quote.Next(&fields));
    EXPECT_FALSE(after_quote.Next(&fields));
    EXPECT_EQ(after_quote.status().message(),
              "record 2: characters after closing quote");

    std::istringstream open(Filler(kBlock - 1) + "\"never closed\n" +
                            Filler(kBlock));
    Reader unterminated(&open, views);
    ASSERT_TRUE(unterminated.Next(&fields));
    EXPECT_FALSE(unterminated.Next(&fields));
    EXPECT_EQ(unterminated.status().message(),
              "record 2: unterminated quoted field");
  }
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

  std::istringstream again("a,b,c,d\ne\n\"f\",g\n");
  CsvReader view_reader(&again);
  std::vector<std::string_view> views = {"stale", "", "", "", "", "", "x"};
  ASSERT_TRUE(view_reader.Next(&views));
  EXPECT_EQ(views, (std::vector<std::string_view>{"a", "b", "c", "d"}));
  ASSERT_TRUE(view_reader.Next(&views));
  EXPECT_EQ(views, std::vector<std::string_view>{"e"});
  ASSERT_TRUE(view_reader.Next(&views));  // a quoted record
  EXPECT_EQ(views, (std::vector<std::string_view>{"f", "g"}));
}

TEST(CsvReaderTest, RecordLongerThanABlock) {
  std::string long_field(kBlock + 100, 'x');
  std::vector<std::string> many_fields(3 * kBlock / 8, "1234567");
  std::string many;
  for (const std::string& field : many_fields) many += field + ",";
  many_fields.emplace_back();
  for (bool crlf : {false, true}) {
    const std::string eol = crlf ? "\r\n" : "\n";
    EXPECT_EQ(ReadAll("a,b" + eol + "c," + long_field + eol + many + eol +
                      "\"q," + long_field + "\"" + eol + "d" + eol),
              (Records{{"a", "b"},
                       {"c", long_field},
                       many_fields,
                       {"q," + long_field},
                       {"d"}}));
  }
}

TEST(CsvReaderTest, QuotedNewlineStraddlingABlockBoundary) {
  // Unquoted records around a quoted one whose embedded newline falls on
  // every offset from 6 bytes before the block boundary to 6 after.
  const std::string quoted = "\"two\nlines\",x\n";
  for (size_t start = kBlock - 10; start <= kBlock + 2; ++start) {
    EXPECT_EQ(ReadAll("head,1\n" + Filler(start - 7) + quoted + "tail,2\n"),
              (Records{{"head", "1"},
                       {std::string(start - 8, 'f')},
                       {"two\nlines", "x"},
                       {"tail", "2"}}))
        << "at " << start;
  }
}

// A test-local RFC-4180 reading of a whole text, written for clarity, not
// speed: the records before the first malformed one, and that one's
// 1-based number and message (0 and "" when there is none).
struct ReferenceReading {
  Records records;
  size_t bad_record = 0;
  std::string message;
};

ReferenceReading ReferenceRead(const std::string& text) {
  enum class State { kStart, kUnquoted, kQuoted, kClosed };
  ReferenceReading out;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    std::vector<std::string> fields(1);
    State state = State::kStart;
    const char* error = nullptr;
    while (error == nullptr) {
      if (i == n) {
        if (state == State::kQuoted) error = "unterminated quoted field";
        break;
      }
      const char c = text[i++];
      if (state == State::kQuoted) {
        if (c == '"') {
          state = State::kClosed;
        } else {
          fields.back() += c;
        }
      } else if (c == '"') {
        if (state == State::kUnquoted) {
          error = "unexpected quote inside unquoted field";
        } else {
          if (state == State::kClosed) fields.back() += '"';
          state = State::kQuoted;
        }
      } else if (c == ',') {
        fields.emplace_back();
        state = State::kStart;
      } else if (c == '\n') {
        break;
      } else if (c == '\r' && (i == n || text[i] == '\n')) {
        if (i < n) ++i;
        break;
      } else if (state == State::kClosed) {
        error = "characters after closing quote";
      } else {
        fields.back() += c;
        state = State::kUnquoted;
      }
    }
    if (error != nullptr) {
      out.bad_record = out.records.size() + 1;
      out.message = "record " + std::to_string(out.bad_record) + ": " + error;
      break;
    }
    out.records.push_back(std::move(fields));
  }
  return out;
}

TEST(CsvReaderTest, RandomBytesReadAlikeThroughBothOverloads) {
  // Random texts over the bytes that steer the parser, several blocks
  // long and mostly malformed somewhere: both overloads must return the
  // same records, status and record numbers as the reference reading.
  const std::string alphabet = ",\"\r\n\nab ";
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Rare quotes in most texts, so some run for blocks before failing.
    const double quote_share = seed % 4 == 0 ? 0.2 : 0.0005;
    std::string text;
    const size_t length = kBlock / 2 + rng.NextBounded(3 * kBlock);
    while (text.size() < length) {
      char c = alphabet[rng.NextBounded(alphabet.size())];
      if (c == '"' && !rng.NextBernoulli(quote_share)) c = 'q';
      text += c;
    }
    const ReferenceReading expected = ReferenceRead(text);
    for (bool views : kOverloads) {
      SCOPED_TRACE(std::string(OverloadName(views)) + " seed " +
                   std::to_string(seed));
      std::istringstream in(text);
      Reader reader(&in, views);
      std::vector<std::string> fields;
      size_t count = 0;
      while (reader.Next(&fields)) {
        ASSERT_LT(count, expected.records.size());
        ASSERT_EQ(fields, expected.records[count]) << "record " << count + 1;
        ++count;
        ASSERT_EQ(reader.record_number(), count);
      }
      EXPECT_EQ(count, expected.records.size());
      if (expected.bad_record == 0) {
        EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
      } else {
        EXPECT_TRUE(reader.status().IsInvalidArgument());
        EXPECT_EQ(reader.status().message(), expected.message);
        EXPECT_EQ(reader.record_number(), expected.bad_record);
      }
    }
  }
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

  EXPECT_EQ(ReadAll(out.str()), records);
}

}  // namespace
}  // namespace prefcover
