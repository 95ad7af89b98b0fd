// serve/transport: LineChunker framing properties (chunking invariance,
// bounded memory under over-long lines) and the per-connection serve
// loop driven over a socketpair with adversarial framing — partial
// reads, pathologically split writes, oversized lines, interleaved
// control verbs, concurrent sessions on one engine. The loop must neither
// crash nor hang, and every line must get a well-formed reply.

#include "serve/transport.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "obs/exposition.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#endif

namespace prefcover {
namespace serve {
namespace {

std::vector<LineChunker::Line> Drain(LineChunker* chunker) {
  std::vector<LineChunker::Line> lines;
  LineChunker::Line line;
  while (chunker->Next(&line)) lines.push_back(std::move(line));
  return lines;
}

TEST(LineChunkerTest, SplitsOnNewlines) {
  LineChunker chunker;
  chunker.Append("covered 1\nsubs 2 4\npartial");
  auto lines = Drain(&chunker);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "covered 1");
  EXPECT_FALSE(lines[0].overlong);
  EXPECT_EQ(lines[1].text, "subs 2 4");
  EXPECT_EQ(chunker.partial_bytes(), 7u);  // "partial" still buffered
  chunker.Append("\n");
  lines = Drain(&chunker);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "partial");
}

TEST(LineChunkerTest, EmptyLinesAreDelivered) {
  LineChunker chunker;
  chunker.Append("\n\nx\n");
  auto lines = Drain(&chunker);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "");
  EXPECT_EQ(lines[1].text, "");
  EXPECT_EQ(lines[2].text, "x");
}

// The framing property the whole stack leans on: ANY chunking of the
// byte stream yields the identical line sequence.
TEST(LineChunkerTest, ChunkingInvariance) {
  Rng rng(7);
  std::string stream;
  for (int i = 0; i < 200; ++i) {
    const uint64_t len = rng.NextBounded(30);
    for (uint64_t j = 0; j < len; ++j) {
      stream.push_back(static_cast<char>('a' + (rng.NextBounded(26))));
    }
    stream.push_back('\n');
  }

  LineChunker reference;
  reference.Append(stream);
  const auto expected = Drain(&reference);
  ASSERT_EQ(expected.size(), 200u);

  for (int trial = 0; trial < 20; ++trial) {
    LineChunker chunker;
    size_t offset = 0;
    while (offset < stream.size()) {
      const size_t step = static_cast<size_t>(
          1 + rng.NextBounded(trial == 0 ? 1 : 97));  // incl. 1-byte reads
      const size_t take = std::min(step, stream.size() - offset);
      chunker.Append(std::string_view(stream).substr(offset, take));
      offset += take;
    }
    const auto lines = Drain(&chunker);
    ASSERT_EQ(lines.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i].text, expected[i].text) << "trial " << trial;
      EXPECT_FALSE(lines[i].overlong);
    }
  }
}

TEST(LineChunkerTest, OverlongLineIsTruncatedFlaggedAndBounded) {
  LineChunker chunker(/*max_line_bytes=*/16);
  // Feed 1000 bytes with no newline: memory must stay at the bound.
  for (int i = 0; i < 100; ++i) chunker.Append("xxxxxxxxxx");
  EXPECT_EQ(chunker.partial_bytes(), 16u);
  LineChunker::Line line;
  EXPECT_FALSE(chunker.Next(&line));  // no newline yet
  chunker.Append("\nok\n");
  auto lines = Drain(&chunker);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].overlong);
  EXPECT_EQ(lines[0].text, std::string(16, 'x'));
  // The stream resynchronizes at the newline: the next line is intact.
  EXPECT_FALSE(lines[1].overlong);
  EXPECT_EQ(lines[1].text, "ok");
}

TEST(LineChunkerTest, ExactBoundIsNotOverlong) {
  LineChunker chunker(/*max_line_bytes=*/4);
  chunker.Append("abcd\nabcde\n");
  auto lines = Drain(&chunker);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(lines[0].overlong);
  EXPECT_EQ(lines[0].text, "abcd");
  EXPECT_TRUE(lines[1].overlong);
  EXPECT_EQ(lines[1].text, "abcd");
}

// --- Request-id multiplex framing ----------------------------------------

TEST(TaggedLineTest, FormatParseRoundTrip) {
  const std::string line = FormatTaggedLine(7, "propose seq=3");
  EXPECT_EQ(line, "@7 propose seq=3");
  uint64_t id = 0;
  std::string_view payload;
  ASSERT_TRUE(ParseTaggedLine(line, &id, &payload));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(payload, "propose seq=3");

  // The largest id round-trips; so does an empty payload.
  const uint64_t huge = UINT64_MAX;
  ASSERT_TRUE(ParseTaggedLine(FormatTaggedLine(huge, ""), &id, &payload));
  EXPECT_EQ(id, huge);
  EXPECT_EQ(payload, "");
}

TEST(TaggedLineTest, UntaggedLinesAreLeftAlone) {
  // A line without a well-formed `@<id> ` prefix is a plain positional
  // line, not an error — and the outputs stay untouched.
  uint64_t id = 99;
  std::string_view payload = "sentinel";
  for (const char* line :
       {"covered 1", "", "@", "@ x", "@x payload", "@12", "@12x payload",
        "@12\tpayload", "@-3 payload",
        // Overflowing the id is a malformed tag, not a wrapped one.
        "@18446744073709551616 payload"}) {
    EXPECT_FALSE(ParseTaggedLine(line, &id, &payload)) << "'" << line << "'";
    EXPECT_EQ(id, 99u);
    EXPECT_EQ(payload, "sentinel");
  }
}

TEST(TaggedLineTest, TagBindsToFirstSpaceOnly) {
  // Payloads may themselves contain `@` and digits.
  uint64_t id = 0;
  std::string_view payload;
  ASSERT_TRUE(ParseTaggedLine("@3 @5 nested", &id, &payload));
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(payload, "@5 nested");
}

#if defined(__unix__) || defined(__APPLE__)

std::shared_ptr<const ServingIndex> MakeIndex() {
  Rng rng(3);
  UniformGraphParams params;
  params.num_nodes = 60;
  params.out_degree = 4;
  auto graph = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(graph.ok());
  auto solution = SolveGreedyLazy(*graph, 12, GreedyOptions());
  EXPECT_TRUE(solution.ok());
  auto index = ServingIndex::Build(*graph, *solution);
  EXPECT_TRUE(index.ok());
  return std::make_shared<const ServingIndex>(std::move(index).value());
}

// Runs ServeConnectionLoop on one end of a socketpair; the test plays
// the client on the other. Returns every response byte the server
// wrote, reading until it closes its end.
std::string RoundTrip(QueryEngine* engine,
                      const std::vector<std::string>& writes) {
  IgnoreSigpipe();  // post-quit writes may hit a closed peer
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server(
      [engine, fd = fds[0]] { ServeConnectionLoop(engine, fd); });
  for (const std::string& piece : writes) {
    // A write can legitimately fail (EPIPE) when an earlier piece ended
    // the session; the response assertions catch real breakage.
    (void)WriteFully(fds[1], piece.data(), piece.size());
  }
  ::shutdown(fds[1], SHUT_WR);  // EOF after the last piece
  std::string received;
  char chunk[4096];
  for (;;) {
    auto got = ReadSome(fds[1], chunk, sizeof(chunk));
    if (!got.ok()) {
      ADD_FAILURE() << got.status().ToString();
      break;
    }
    if (*got == 0) break;
    received.append(chunk, *got);
  }
  server.join();
  ::close(fds[1]);
  return received;
}

TEST(ServeConnectionLoopTest, AnswersAcrossArbitrarySplits) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  // One request split into pathological pieces, then a second intact.
  std::string expected =
      AnswerOnIndex(*index, ParseRequest("covered 1").value()).line + "\n" +
      AnswerOnIndex(*index, ParseRequest("subs 2 4").value()).line + "\n";
  const std::string received = RoundTrip(
      &engine, {"cov", "", "ered", " ", "1", "\nsubs 2 4\n"});
  EXPECT_EQ(received, expected);
}

TEST(ServeConnectionLoopTest, ManyLinesInOneWrite) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  std::string blob;
  for (int i = 0; i < 50; ++i) {
    blob += "covered " + std::to_string(i % 60) + "\n";
  }
  const std::string received = RoundTrip(&engine, {blob});
  // 50 newline-terminated replies, one per request, in order.
  size_t newlines = 0;
  for (char c : received) newlines += c == '\n' ? 1 : 0;
  EXPECT_EQ(newlines, 50u);
}

TEST(ServeConnectionLoopTest, GarbageGetsWellFormedErrors) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  const std::string received = RoundTrip(
      &engine,
      {"bogus verb here\n", "covered\n", "covered 999999\n", "\n"});
  // Every reply is a protocol line; none of them crashed the loop.
  size_t pos = 0;
  int replies = 0;
  while (pos < received.size()) {
    size_t eol = received.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = received.substr(pos, eol - pos);
    EXPECT_TRUE(line.rfind("ERR ", 0) == 0 || line.rfind("OK", 0) == 0)
        << line;
    pos = eol + 1;
    ++replies;
  }
  EXPECT_EQ(replies, 4);
}

TEST(ServeConnectionLoopTest, OversizedLineRejectedAndRecovered) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  // > kMaxRequestLineBytes of garbage, then a newline, then a real
  // request: the loop must answer ERR for the monster and OK after.
  std::string monster(kMaxRequestLineBytes + 4096, 'z');
  monster.push_back('\n');
  const std::string received =
      RoundTrip(&engine, {monster, "covered 1\n"});
  ASSERT_NE(received.find("ERR InvalidArgument"), std::string::npos);
  const std::string expected_tail =
      AnswerOnIndex(*index, ParseRequest("covered 1").value()).line + "\n";
  ASSERT_GE(received.size(), expected_tail.size());
  EXPECT_EQ(received.substr(received.size() - expected_tail.size()),
            expected_tail);
}

TEST(ServeConnectionLoopTest, InterleavedMetricsAndQuit) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  // One write, so the server ingests every line before acting on quit
  // (bytes written after the peer closes would race into ECONNRESET and
  // could discard the buffered replies). The trailing request tests that
  // lines after quit are dropped, not answered.
  const std::string received = RoundTrip(
      &engine,
      {"covered 1\nmetrics\ncovered 2\nstats\nquit\ncovered 3\n"});
  // The metrics exposition is multi-line and terminated by "# EOF"; the
  // query responses around it still arrive, in order.
  EXPECT_NE(received.find("# EOF\n"), std::string::npos);
  EXPECT_NE(received.find("OK stats requests="), std::string::npos);
  // quit ends the session with OK bye; the post-quit request gets no
  // reply.
  const std::string tail = "OK bye\n";
  ASSERT_GE(received.size(), tail.size());
  EXPECT_EQ(received.substr(received.size() - tail.size()), tail);
}

TEST(ServeConnectionLoopTest, ShutdownVerbStopsAccepting) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  bool keep_serving = true;
  std::thread server([&engine, &keep_serving, fd = fds[0]] {
    keep_serving = ServeConnectionLoop(&engine, fd);
  });
  const std::string request = "shutdown\n";
  ASSERT_TRUE(WriteFully(fds[1], request.data(), request.size()).ok());
  server.join();
  EXPECT_FALSE(keep_serving);
  ::close(fds[1]);
}

// Three sessions answer pipelined mixed traffic on their own threads
// against one engine: every reply matches the single-threaded reference,
// in order, and both request counters see every line exactly once.
TEST(ServeConnectionLoopTest, ConcurrentSessionsAnswerInOrderAndCount) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  constexpr size_t kSessions = 3;
  constexpr size_t kLinesPerSession = 400;
  const uint64_t n = index->NumNodes();

  bool quit = false;
  double requests_before = 0.0;
  ASSERT_TRUE(obs::FindPrometheusValue(
      HandleServeLine(&engine, "metrics", &quit), "serve_requests",
      &requests_before));

  std::vector<std::string> requests(kSessions);
  std::vector<std::string> expected(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    Rng rng(700 + s);
    for (size_t i = 0; i < kLinesPerSession; ++i) {
      std::string line;
      switch (rng.NextBounded(5)) {
        case 0:
          line = "subs " + std::to_string(rng.NextBounded(n)) + " " +
                 std::to_string(1 + rng.NextBounded(6));
          break;
        case 1:
          line = "covered " + std::to_string(rng.NextBounded(n));
          break;
        case 2:
          line = "coverk " + std::to_string(rng.NextBounded(13));
          break;
        case 3:
          line = "batch " + std::to_string(rng.NextBounded(n)) + " " +
                 std::to_string(rng.NextBounded(n));
          break;
        default:
          line = "subs " + std::to_string(n + rng.NextBounded(n)) + " 4";
          break;
      }
      auto request = ParseRequest(line);
      expected[s] += (request.ok() ? AnswerOnIndex(*index, *request).line
                                   : FormatErrorLine(request.status())) +
                     "\n";
      requests[s] += line + "\n";
    }
  }

  std::vector<std::string> received(kSessions);
  std::vector<std::thread> clients;
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&engine, &requests, &received, s] {
      received[s] = RoundTrip(&engine, {requests[s]});
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(received[s], expected[s]) << "session " << s;
  }

  const uint64_t total = kSessions * kLinesPerSession;
  EXPECT_EQ(HandleServeLine(&engine, "stats", &quit),
            "OK stats requests=" + std::to_string(total) + " reloads=0");
  double requests_after = 0.0;
  ASSERT_TRUE(obs::FindPrometheusValue(
      HandleServeLine(&engine, "metrics", &quit), "serve_requests",
      &requests_after));
  EXPECT_EQ(requests_after - requests_before, static_cast<double>(total));
  EXPECT_FALSE(quit);
}

// --- MultiplexedConnection ------------------------------------------------

// Socketpair with a scripted peer: the test drives the client end, the
// peer thread plays a server that answers per `script` (a map from
// received payload to response payload, echoed with the request's tag in
// whatever order `reply_order` lists the payloads).
struct ScriptedPeer {
  int client_fd = -1;

  ScriptedPeer(std::vector<std::pair<std::string, std::string>> script,
               std::vector<std::string> reply_order) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd = fds[1];
    thread_ = std::thread([fd = fds[0], script = std::move(script),
                           order = std::move(reply_order)] {
      // Read one tagged request per script entry, remember its tag, then
      // reply in the scripted order.
      LineChunker chunker;
      std::vector<std::pair<uint64_t, std::string>> seen;  // tag, payload
      char buffer[1024];
      while (seen.size() < script.size()) {
        auto got = ReadSome(fd, buffer, sizeof(buffer));
        if (!got.ok() || *got == 0) break;
        chunker.Append(std::string_view(buffer, *got));
        LineChunker::Line line;
        while (chunker.Next(&line)) {
          uint64_t tag = 0;
          std::string_view payload;
          ASSERT_TRUE(ParseTaggedLine(line.text, &tag, &payload))
              << line.text;
          seen.emplace_back(tag, std::string(payload));
        }
      }
      for (const std::string& want : order) {
        for (const auto& [tag, payload] : seen) {
          if (payload != want) continue;
          std::string response;
          for (const auto& [request, reply] : script) {
            if (request == payload) response = reply;
          }
          std::string line = FormatTaggedLine(tag, response);
          line.push_back('\n');
          ASSERT_TRUE(WriteFully(fd, line.data(), line.size()).ok());
        }
      }
      ::close(fd);
    });
  }

  ~ScriptedPeer() {
    thread_.join();
    ::close(client_fd);
  }

 private:
  std::thread thread_;
};

TEST(MultiplexedConnectionTest, ResponsesMatchedByIdNotPosition) {
  // The peer answers the second request first; Await must still hand
  // each caller its own response, parking the early one.
  ScriptedPeer peer({{"alpha", "OK a"}, {"beta", "OK b"}},
                    /*reply_order=*/{"beta", "alpha"});
  MultiplexedConnection mux(peer.client_fd);
  auto id_a = mux.Send("alpha");
  auto id_b = mux.Send("beta");
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());
  ASSERT_NE(*id_a, *id_b);

  // Awaiting the FIRST send reads past the out-of-order reply for the
  // second, which gets parked for its own Await.
  auto response_a = mux.Await(*id_a, 2000);
  ASSERT_TRUE(response_a.ok()) << response_a.status().ToString();
  EXPECT_EQ(*response_a, "OK a");
  EXPECT_EQ(mux.parked(), 1u);
  auto response_b = mux.Await(*id_b, 2000);
  ASSERT_TRUE(response_b.ok()) << response_b.status().ToString();
  EXPECT_EQ(*response_b, "OK b");
  EXPECT_EQ(mux.parked(), 0u);
}

TEST(MultiplexedConnectionTest, AwaitRejectsUnknownAndSpentIds) {
  ScriptedPeer peer({{"ping", "pong"}}, {"ping"});
  MultiplexedConnection mux(peer.client_fd);
  // Never issued.
  EXPECT_TRUE(mux.Await(42, 100).status().IsNotFound());
  auto id = mux.Send("ping");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mux.Await(*id, 2000).ok());
  // Already awaited: the exchange is spent.
  EXPECT_TRUE(mux.Await(*id, 100).status().IsNotFound());
}

TEST(MultiplexedConnectionTest, UntaggedResponseIsCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread peer([fd = fds[0]] {
    char buffer[256];
    (void)ReadSome(fd, buffer, sizeof(buffer));
    static const char kBare[] = "OK bare\n";
    (void)WriteFully(fd, kBare, sizeof(kBare) - 1);
    ::close(fd);
  });
  MultiplexedConnection mux(fds[1]);
  auto id = mux.Send("ping");
  ASSERT_TRUE(id.ok());
  // A plain positional response on a multiplexed connection is a framing
  // violation, not a match for any id.
  EXPECT_TRUE(mux.Await(*id, 2000).status().IsCorruption());
  peer.join();
  ::close(fds[1]);
}

TEST(MultiplexedConnectionTest, AwaitTimesOutAsIOError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MultiplexedConnection mux(fds[1]);
  auto id = mux.Send("ping");  // peer never answers
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(mux.Await(*id, 50).status().IsIOError());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeLineSessionLoopTest, EchoesRequestTags) {
  // The session loop untags requests before the handler and re-tags the
  // replies, so a tag-oblivious handler serves multiplexed clients.
  IgnoreSigpipe();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server([fd = fds[0]] {
    ServeLineSessionLoop(fd, [](const std::string& line, bool* stop_session,
                                bool* /*stop_server*/) {
      if (line == "quit") {
        *stop_session = true;
        return std::string("OK bye");
      }
      return "echo:" + line;
    });
  });
  const std::string requests = "@11 one\nplain\n@12 two\nquit\n";
  ASSERT_TRUE(WriteFully(fds[1], requests.data(), requests.size()).ok());
  std::string received;
  char chunk[1024];
  for (;;) {
    auto got = ReadSome(fds[1], chunk, sizeof(chunk));
    ASSERT_TRUE(got.ok());
    if (*got == 0) break;
    received.append(chunk, *got);
  }
  server.join();
  ::close(fds[1]);
  // The handler saw untagged payloads; tagged requests got tagged
  // replies, the plain request a plain reply, in arrival order.
  EXPECT_EQ(received, "@11 echo:one\necho:plain\n@12 echo:two\nOK bye\n");
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace serve
}  // namespace prefcover
