// Malformed-input corpus: every load path must reject corrupt, truncated
// or absurd inputs with a descriptive Status — never a crash, a hang, an
// unbounded allocation, or a silently wrong in-memory object.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "core/checkpoint.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "synth/dataset_profiles.h"
#include "util/random.h"

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

bool IsReappearingId(const Status& status) {
  return status.IsInvalidArgument() &&
         status.message().find("reappears after other sessions") !=
             std::string::npos;
}

// Both readers run one decoder, so the streaming construction must reject
// what ReadClickstreamCsv rejects with the very same status, except for a
// reappearing session id, which it takes as a new session. Where
// ReadClickstreamCsv accepts, the streaming construction must agree with
// BuildPreferenceGraph on what it read. Returns ReadClickstreamCsv's
// status.
Status ExpectReadersAgree(const std::string& csv,
                          const GraphConstructionOptions& options) {
  std::istringstream batch_src(csv);
  Result<Clickstream> read = ReadClickstreamCsv(&batch_src);
  std::istringstream streaming_src(csv);
  Result<PreferenceGraph> streamed =
      BuildPreferenceGraphStreaming(&streaming_src, options);
  if (!read.ok()) {
    if (!IsReappearingId(read.status())) {
      EXPECT_EQ(streamed.status().code(), read.status().code()) << csv;
      EXPECT_EQ(streamed.status().message(), read.status().message())
          << csv;
    }
    return read.status();
  }
  Result<PreferenceGraph> built = BuildPreferenceGraph(*read, options);
  EXPECT_EQ(streamed.status().code(), built.status().code()) << csv;
  if (built.ok() && streamed.ok()) {
    EXPECT_EQ(GraphDigest(*streamed), GraphDigest(*built)) << csv;
  }
  return Status::OK();
}

TEST(MalformedClickstreamTest, BothReadersRejectTheCorpusAlike) {
  const struct {
    const char* what;
    const char* csv;
  } kCases[] = {
      {"bad header", "not,a,clickstream\n1,click,a\n"},
      {"too few header columns", "session_id,event_type\n"},
      {"wrong field count", "session_id,event_type,item_id\n1,click\n"},
      {"unknown event type", "session_id,event_type,item_id\n1,view,itemA\n"},
      {"multiple purchases",
       "session_id,event_type,item_id\n1,click,a\n1,purchase,a\n"
       "1,purchase,b\n"},
      {"second purchase in a later session",
       "session_id,event_type,item_id\n1,purchase,a\n2,purchase,b\n"
       "2,click,a\n2,purchase,c\n"},
      {"bad dwell value",
       "session_id,event_type,item_id,dwell_seconds\n"
       "1,click,a,not_a_number\n"},
      {"blank line", "session_id,event_type,item_id\n1,click,a\n\n"
                     "1,purchase,a\n"},
      {"wrong field count under a dwell header",
       "session_id,event_type,item_id,dwell_seconds\n1,click,a,2.5\n"
       "1,purchase,a\n"},
      {"unterminated quote", "session_id,event_type,item_id\n1,click,\"a\n"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.what);
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      GraphConstructionOptions options;
      options.variant = variant;
      Status read = ExpectReadersAgree(c.csv, options);
      EXPECT_TRUE(read.IsInvalidArgument()) << read.ToString();
    }
  }
}

// The one documented difference: ReadClickstreamCsv rejects a session id
// that reappears after other sessions; the streaming construction starts
// a new session for it. An empty stream reads as no sessions, and both
// builds then refuse it alike.
TEST(MalformedClickstreamTest, ReappearingIdIsTheOneDifference) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "1,click,a\n2,click,b\n1,click,c\n1,purchase,a\n";
  std::istringstream batch_src(csv);
  Status read = ReadClickstreamCsv(&batch_src).status();
  EXPECT_TRUE(IsReappearingId(read)) << read.ToString();
  EXPECT_EQ(read.message(),
            "session '1' reappears after other sessions; input must be "
            "grouped by session");
  std::istringstream streaming_src(csv);
  auto streamed = BuildPreferenceGraphStreaming(&streaming_src);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->NumEdges(), 1u);  // a -> c, from the second session 1

  EXPECT_TRUE(ExpectReadersAgree("", GraphConstructionOptions()).ok());
}

// A small valid CSV from a profile: the first sessions of a PE or PM
// clickstream, the PM one with a dwell column (some clicks of unknown
// dwell).
std::string SmallProfileCsv(DatasetProfile profile, bool with_dwell,
                            uint64_t seed) {
  auto full = GenerateProfileClickstream(profile, 0.0005, seed);
  PREFCOVER_CHECK(full.ok());
  Clickstream small;
  *small.mutable_dictionary() = full->dictionary();
  Rng rng(seed);
  for (size_t i = 0; i < 24 && i < full->NumSessions(); ++i) {
    const SessionView view = full->session(i);
    Session session;
    session.clicks.assign(view.clicks.begin(), view.clicks.end());
    session.purchase = view.purchase;
    if (with_dwell) {
      for (size_t c = 0; c < session.clicks.size(); ++c) {
        session.dwell_seconds.push_back(
            rng.NextBernoulli(0.2) ? -1.0 : rng.NextDouble(0.0, 60.0));
      }
    }
    small.AddSession(session);
  }
  std::ostringstream out;
  PREFCOVER_CHECK(WriteClickstreamCsv(small, &out).ok());
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    end = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

// One to three of: a byte replaced (by a CSV-significant byte or a random
// one), a truncation, or a line dropped, duplicated or moved.
std::string Mutate(const std::string& csv, Rng* rng) {
  static constexpr char kBytes[] = {',', '"', '\n', '\r', '\0', '0',
                                    '9', '.', '-',  'e',  ' ',  'x'};
  std::string out = csv;
  const uint64_t steps = 1 + rng->NextBounded(3);
  for (uint64_t step = 0; step < steps && !out.empty(); ++step) {
    const uint64_t op = rng->NextBounded(5);
    if (op == 0) {
      char& byte = out[rng->NextBounded(out.size())];
      byte = rng->NextBernoulli(0.5)
                 ? kBytes[rng->NextBounded(sizeof(kBytes))]
                 : static_cast<char>(rng->NextBounded(256));
      continue;
    }
    if (op == 1) {
      out.resize(rng->NextBounded(out.size()));
      continue;
    }
    std::vector<std::string> lines = SplitLines(out);
    const size_t from = rng->NextBounded(lines.size());
    std::string line = lines[from];
    if (op == 2) {
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(from));
    } else if (op == 3) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(from), line);
    } else {
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(from));
      const size_t to = rng->NextBounded(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to), line);
    }
    out.clear();
    for (const std::string& l : lines) out += l;
  }
  return out;
}

TEST(MalformedClickstreamTest, SeededMutationSweep) {
  size_t accepted = 0, rejected = 0, reappearing = 0;
  for (const bool with_dwell : {false, true}) {
    const std::string base = SmallProfileCsv(
        with_dwell ? DatasetProfile::kPM : DatasetProfile::kPE, with_dwell,
        with_dwell ? 12 : 11);
    ASSERT_TRUE(ExpectReadersAgree(base, GraphConstructionOptions()).ok());
    Rng rng(with_dwell ? 0xD3E11 : 0xC5F);
    for (int i = 0; i < 1000; ++i) {
      const std::string mutant = Mutate(base, &rng);
      GraphConstructionOptions options;
      options.variant =
          i % 2 == 0 ? Variant::kIndependent : Variant::kNormalized;
      if (with_dwell) options.dwell_saturation_seconds = 20.0;
      Status read = ExpectReadersAgree(mutant, options);
      if (read.ok()) {
        ++accepted;
      } else if (IsReappearingId(read)) {
        ++reappearing;
      } else {
        ++rejected;
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "mutant " << i << (with_dwell ? " of the dwell CSV" : "");
      }
    }
  }
  // Every outcome is exercised, so the sweep checks each rule above.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 50u);
  EXPECT_GT(reappearing, 20u);
}

}  // namespace
}  // namespace prefcover
