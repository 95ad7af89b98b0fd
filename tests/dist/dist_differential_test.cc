// The distributed byte-identity contract (ISSUE 10 acceptance): for
// N ∈ {1, 2, 4, 8} worker processes, SolveGreedyDistributed selects the
// same items, the same cover curve and the same I[] — byte-for-byte —
// as the single-process SolveGreedyLazy, across 30 seeded instances of
// both variants with a mixed constraint load, at the dispatch kernel
// tier and (a subset) pinned to scalar. Workers here are in-process
// TCP servers (real sockets, real wire grammar, no fork), which keeps
// the sweep fast enough for ASan CI; the chaos suite covers real
// processes.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <unistd.h>

#include "core/greedy_solver.h"
#include "dist/distributed_solver.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "graph/graph_generators.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "synth/dataset_profiles.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace dist {
namespace {

constexpr size_t kNumSeeds = 30;
constexpr size_t kWorkerCounts[] = {1, 2, 4, 8};

// Rewrites a worker's reply to `line` (test fakes: protocol skew, a
// mangled verb).
using ReplyRewrite =
    std::function<std::string(const std::string& line, std::string reply)>;

// One in-process dist-worker server: a listener on an ephemeral port
// with a serial accept loop on a thread, exactly the CLI's topology.
class WorkerServer {
 public:
  explicit WorkerServer(const PreferenceGraph* graph,
                        ReplyRewrite rewrite = nullptr)
      : worker_(graph), rewrite_(std::move(rewrite)) {
    serve::IgnoreSigpipe();
    auto listener = serve::ListenTcp(0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = *listener;
    auto port = serve::LocalPort(listener_);
    EXPECT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
    thread_ = std::thread([this] {
      bool keep_serving = true;
      while (keep_serving) {
        auto client = serve::AcceptClient(listener_);
        if (!client.ok()) break;  // listener closed: shut down
        keep_serving = serve::ServeLineSessionLoop(
            *client,
            [this](const std::string& line, bool* stop_session,
                   bool* stop_server) {
              std::string reply =
                  worker_.HandleLine(line, stop_session, stop_server);
              return rewrite_ ? rewrite_(line, std::move(reply)) : reply;
            });
      }
    });
  }

  ~WorkerServer() {
    // A `shutdown` verb ends the accept loop cleanly; if the socket path
    // fails (it should not), closing the listener unblocks the thread.
    auto fd = serve::ConnectTcp("127.0.0.1", port_, 1000);
    if (fd.ok()) {
      static const char kShutdown[] = "shutdown\n";
      (void)serve::WriteFully(*fd, kShutdown, sizeof(kShutdown) - 1);
      char buffer[64];
      (void)serve::ReadSome(*fd, buffer, sizeof(buffer));
      ::close(*fd);
    } else {
      ::close(listener_);
      listener_ = -1;
    }
    thread_.join();
    if (listener_ >= 0) ::close(listener_);
  }

  uint16_t port() const { return port_; }

 private:
  DistWorker worker_;
  ReplyRewrite rewrite_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

struct DiffInstance {
  PreferenceGraph graph;
  size_t k = 0;
  GreedyOptions options;
  std::string label;
};

// Deterministic instance mix: graph shape, variant, budget and the
// constraint load all vary with the seed (mirrors the single-process
// equivalence sweep in tests/core/greedy_equivalence_test.cc).
DiffInstance MakeInstance(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  UniformGraphParams params;
  params.num_nodes = static_cast<uint32_t>(40 + (seed * 13) % 160);
  params.out_degree = static_cast<uint32_t>(3 + seed % 6);
  params.popularity_skew = 0.4 + 0.4 * static_cast<double>(seed % 4);
  const Variant variant =
      seed % 2 == 0 ? Variant::kIndependent : Variant::kNormalized;
  params.normalized_out_weights = variant == Variant::kNormalized;
  auto graph = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();

  DiffInstance instance{std::move(graph).value(), 0, {}, {}};
  const size_t n = instance.graph.NumNodes();
  instance.k = std::max<size_t>(1, n * (5 + (seed * 7) % 40) / 100);
  instance.options.variant = variant;
  instance.label = "seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n) +
                   " k=" + std::to_string(instance.k);

  // Every third instance carries exclusions; every third of those also
  // stops early at a coverage threshold.
  if (seed % 3 == 1) {
    for (NodeId v = 0; v < n; v += static_cast<NodeId>(7 + seed % 5)) {
      instance.options.force_exclude.push_back(v);
    }
    instance.label += " excl=" +
                      std::to_string(instance.options.force_exclude.size());
    if (seed % 9 == 1) {
      instance.options.stop_at_cover =
          0.35 + 0.05 * static_cast<double>(seed % 5);
      instance.label += " stop";
    }
  }
  return instance;
}

void ExpectByteIdentical(const Solution& dist, const Solution& reference,
                         const std::string& label) {
  EXPECT_EQ(dist.items, reference.items) << label;
  EXPECT_EQ(std::memcmp(&dist.cover, &reference.cover, sizeof(double)), 0)
      << label;
  ASSERT_EQ(dist.cover_after_prefix.size(),
            reference.cover_after_prefix.size())
      << label;
  EXPECT_EQ(std::memcmp(dist.cover_after_prefix.data(),
                        reference.cover_after_prefix.data(),
                        dist.cover_after_prefix.size() * sizeof(double)),
            0)
      << label;
  ASSERT_EQ(dist.item_contributions.size(),
            reference.item_contributions.size())
      << label;
  EXPECT_EQ(std::memcmp(dist.item_contributions.data(),
                        reference.item_contributions.data(),
                        dist.item_contributions.size() * sizeof(double)),
            0)
      << label;
}

// `count` in-process servers on `graph` and the options that reach them.
DistSolveOptions StartFleet(const PreferenceGraph& graph, size_t count,
                            std::vector<std::unique_ptr<WorkerServer>>* servers,
                            ReplyRewrite rewrite = nullptr) {
  DistSolveOptions dist_options;
  for (size_t i = 0; i < count; ++i) {
    servers->push_back(std::make_unique<WorkerServer>(&graph, rewrite));
    DistWorkerEndpoint endpoint;
    endpoint.port = servers->back()->port();
    dist_options.workers.push_back(endpoint);
  }
  return dist_options;
}

// Spawns `num_workers` servers on `graph`, solves, compares against the
// single-process reference.
void RunDistAndCompare(const DiffInstance& instance,
                       const Solution& reference, size_t num_workers,
                       const std::string& simd_level = "",
                       ThreadPool* pool = nullptr) {
  std::vector<std::unique_ptr<WorkerServer>> servers;
  DistSolveOptions dist_options =
      StartFleet(instance.graph, num_workers, &servers);
  dist_options.simd_level = simd_level;
  dist_options.pool = pool;
  auto dist = SolveGreedyDistributed(instance.graph, instance.k,
                                     instance.options, dist_options);
  const std::string label =
      instance.label + " workers=" + std::to_string(num_workers) +
      (simd_level.empty() ? "" : " simd=" + simd_level);
  ASSERT_TRUE(dist.ok()) << label << ": " << dist.status().ToString();
  EXPECT_EQ(dist->algorithm, "greedy-dist") << label;
  ExpectByteIdentical(*dist, reference, label);
}

uint64_t DistCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// The counts `committed` at which a distributed solve of `instance` over
// `num_workers` workers merged a new batch (every other count was handed
// out from a batch, with no wire traffic).
std::vector<bool> BatchStarts(const DiffInstance& instance,
                              size_t num_workers) {
  std::vector<std::unique_ptr<WorkerServer>> servers;
  DistSolveOptions dist_options =
      StartFleet(instance.graph, num_workers, &servers);
  std::vector<uint64_t> rounds_before;
  dist_options.on_round = [&rounds_before](size_t committed) {
    EXPECT_EQ(committed, rounds_before.size());
    rounds_before.push_back(DistCounter(dist_metric::kRounds));
  };
  auto dist = SolveGreedyDistributed(instance.graph, instance.k,
                                     instance.options, dist_options);
  EXPECT_TRUE(dist.ok()) << dist.status().ToString();
  rounds_before.push_back(DistCounter(dist_metric::kRounds));
  std::vector<bool> starts;
  for (size_t c = 0; c + 1 < rounds_before.size(); ++c) {
    starts.push_back(rounds_before[c + 1] != rounds_before[c]);
  }
  return starts;
}

// The smallest j >= 2 whose item came from the same batch as item j - 1,
// so a prefix or a stop of length j ends inside that batch.
size_t FirstMidBatchCount(const std::vector<bool>& starts) {
  for (size_t j = 2; j < starts.size(); ++j) {
    if (!starts[j]) return j;
  }
  return 0;
}

// The reply to one verb on a fresh connection to a worker server.
std::string AskWorker(uint16_t port, const std::string& line) {
  auto fd = serve::ConnectTcp("127.0.0.1", port, 1000);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return "";
  const std::string request = line + "\n";
  EXPECT_TRUE(serve::WriteFully(*fd, request.data(), request.size()).ok());
  std::string reply;
  char buffer[256];
  while (reply.find('\n') == std::string::npos) {
    auto got = serve::ReadSome(*fd, buffer, sizeof(buffer));
    if (!got.ok() || *got == 0) break;
    reply.append(buffer, *got);
  }
  static const char kQuit[] = "quit\n";
  (void)serve::WriteFully(*fd, kQuit, sizeof(kQuit) - 1);
  ::close(*fd);
  return reply.substr(0, reply.find('\n'));
}

TEST(DistDifferentialTest, EveryWorkerCountIsByteIdenticalToLazy) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const DiffInstance instance = MakeInstance(seed);
    auto reference =
        SolveGreedyLazy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(reference.ok())
        << instance.label << ": " << reference.status().ToString();
    for (size_t num_workers : kWorkerCounts) {
      RunDistAndCompare(instance, *reference, num_workers);
    }
  }
}

TEST(DistDifferentialTest, ScalarPinnedWorkersMatchDispatchReference) {
  // The kernel tiers are bit-identical, so workers pinned to the scalar
  // tier must reproduce the (dispatch-tier) reference bytes too — this
  // is the cross-tier guarantee the perf gate's pinning relies on.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const DiffInstance instance = MakeInstance(seed);
    auto reference =
        SolveGreedyLazy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(reference.ok());
    RunDistAndCompare(instance, *reference, 4, "scalar");
  }
}

TEST(DistDifferentialTest, ThreadPoolFanOutMatchesSerialFanOut) {
  // The propose/commit broadcast order must not matter: a pooled
  // fan-out returns the same bytes as the serial loop.
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const DiffInstance instance = MakeInstance(seed);
    auto reference =
        SolveGreedyLazy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(reference.ok());
    RunDistAndCompare(instance, *reference, 4, "", &pool);
  }
}

TEST(DistDifferentialTest, MoreWorkersThanCandidatesStillSolves) {
  // 8 workers over a 10-node graph: most shards hold one candidate,
  // integer partitioning must not starve or double-assign any of them.
  Rng rng(99);
  UniformGraphParams params;
  params.num_nodes = 10;
  params.out_degree = 3;
  auto graph = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(graph.ok());
  DiffInstance instance{std::move(graph).value(), 5, {}, "tiny n=10 k=5"};
  auto reference =
      SolveGreedyLazy(instance.graph, instance.k, instance.options);
  ASSERT_TRUE(reference.ok());
  RunDistAndCompare(instance, *reference, 8);
}

TEST(DistDifferentialTest, EvaluatorFactoryComposesWithGenericDriver) {
  // MakeDistributedEvaluatorFactory is the composition seam: the generic
  // driver over the distributed evaluator IS SolveGreedyDistributed.
  const DiffInstance instance = MakeInstance(4);
  auto reference =
      SolveGreedyLazy(instance.graph, instance.k, instance.options);
  ASSERT_TRUE(reference.ok());

  std::vector<std::unique_ptr<WorkerServer>> servers;
  const DistSolveOptions dist_options =
      StartFleet(instance.graph, 2, &servers);
  auto solution = SolveGreedyWithEvaluator(
      instance.graph, instance.k, instance.options,
      MakeDistributedEvaluatorFactory(dist_options), "greedy-dist");
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ExpectByteIdentical(*solution, *reference, instance.label + " via factory");
}

TEST(DistDifferentialTest, BatchedRoundsKeepTheCounterIdentities) {
  // dist.rounds counts fan-out barriers (one merge each), dist.commits
  // the items committed past the prefix (the sum of batch lengths), and
  // every merge consumes one proposal per live worker.
  for (uint64_t seed = 0; seed < 12; ++seed) {
    DiffInstance instance = MakeInstance(seed);
    if (seed % 4 == 3) {
      auto lazy = SolveGreedyLazy(instance.graph, instance.k,
                                  instance.options);
      ASSERT_TRUE(lazy.ok());
      const size_t prefix = std::min<size_t>(3, lazy->items.size());
      instance.options.force_include.assign(lazy->items.begin(),
                                            lazy->items.begin() +
                                                static_cast<ptrdiff_t>(prefix));
      instance.label += " prefix=" + std::to_string(prefix);
    }
    for (size_t num_workers : kWorkerCounts) {
      const std::string label =
          instance.label + " workers=" + std::to_string(num_workers);
      std::vector<std::unique_ptr<WorkerServer>> servers;
      const DistSolveOptions dist_options =
          StartFleet(instance.graph, num_workers, &servers);
      const uint64_t rounds0 = DistCounter(dist_metric::kRounds);
      const uint64_t commits0 = DistCounter(dist_metric::kCommits);
      const uint64_t proposals0 = DistCounter(dist_metric::kProposals);
      auto dist = SolveGreedyDistributed(instance.graph, instance.k,
                                         instance.options, dist_options);
      ASSERT_TRUE(dist.ok()) << label << ": " << dist.status().ToString();
      const uint64_t rounds = DistCounter(dist_metric::kRounds) - rounds0;
      const uint64_t commits = DistCounter(dist_metric::kCommits) - commits0;
      const uint64_t proposals =
          DistCounter(dist_metric::kProposals) - proposals0;
      EXPECT_EQ(commits, dist->items.size() -
                             instance.options.force_include.size())
          << label;
      EXPECT_EQ(proposals, rounds * num_workers) << label;
      EXPECT_LE(rounds, commits) << label;
      EXPECT_GT(rounds, 0u) << label;
    }
  }
}

TEST(DistDifferentialTest, BatchesCutBarriersOnTheE2eCatalogues) {
  // The end-to-end benchmark's catalogue shape: 20,000-node profile
  // graphs at their natural variants, k = 200, 4 workers. The barrier
  // count is deterministic (it depends on the graph and the worker
  // count only), and the items stay lazy's.
  constexpr size_t kK = 200;
  struct Catalogue {
    DatasetProfile profile;
    const char* name;
    double max_rounds_per_item;
  };
  for (const Catalogue& catalogue :
       {Catalogue{DatasetProfile::kPE, "PE", 0.35},
        Catalogue{DatasetProfile::kPM, "PM", 0.25}}) {
    for (uint64_t seed : {uint64_t{7}, uint64_t{42}}) {
      auto graph =
          GenerateProfileGraphWithNodes(catalogue.profile, 20'000, seed);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      DiffInstance instance{std::move(graph).value(), kK, {}, {}};
      instance.options.variant =
          GetProfileSpec(catalogue.profile).natural_variant;
      instance.label = std::string(catalogue.name) +
                       " seed=" + std::to_string(seed);
      auto reference =
          SolveGreedyLazy(instance.graph, instance.k, instance.options);
      ASSERT_TRUE(reference.ok());
      const uint64_t rounds0 = DistCounter(dist_metric::kRounds);
      RunDistAndCompare(instance, *reference, 4);
      const uint64_t rounds = DistCounter(dist_metric::kRounds) - rounds0;
      EXPECT_LE(static_cast<double>(rounds),
                catalogue.max_rounds_per_item * static_cast<double>(kK))
          << instance.label << ": " << rounds << " barriers";
      EXPECT_LT(rounds, kK) << instance.label;
    }
  }
}

TEST(DistDifferentialTest, ResumeFromAPrefixThatEndsMidBatch) {
  for (uint64_t seed : {uint64_t{2}, uint64_t{5}, uint64_t{12}}) {
    DiffInstance instance = MakeInstance(seed);
    auto unforced =
        SolveGreedyLazy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(unforced.ok());
    const size_t j = FirstMidBatchCount(BatchStarts(instance, 4));
    ASSERT_GT(j, 0u) << instance.label << ": no batch of two or more";
    // Resume from the first j items: the workers seat with a prefix that
    // splits what one uninterrupted solve committed as one batch.
    instance.options.force_include.assign(unforced->items.begin(),
                                          unforced->items.begin() +
                                              static_cast<ptrdiff_t>(j));
    instance.label += " resume=" + std::to_string(j);
    auto reference =
        SolveGreedyLazy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(reference->items, unforced->items) << instance.label;
    for (size_t num_workers : {size_t{2}, size_t{4}}) {
      RunDistAndCompare(instance, *reference, num_workers);
    }
  }
}

TEST(DistDifferentialTest, DeadlineAndStopAtCoverInsideABatch) {
  const DiffInstance instance = MakeInstance(6);
  auto full = SolveGreedyLazy(instance.graph, instance.k, instance.options);
  ASSERT_TRUE(full.ok());
  const size_t j = FirstMidBatchCount(BatchStarts(instance, 4));
  ASSERT_GT(j, 0u) << instance.label << ": no batch of two or more";
  const std::vector<NodeId> expected(full->items.begin(),
                                     full->items.begin() +
                                         static_cast<ptrdiff_t>(j));

  // A deadline that expires while item j - 1 is selected: the driver
  // stops after j items, with item j still waiting in the same batch.
  {
    std::vector<std::unique_ptr<WorkerServer>> servers;
    DistSolveOptions dist_options = StartFleet(instance.graph, 4, &servers);
    CancelToken token;
    dist_options.on_round = [&token, j](size_t committed) {
      if (committed + 1 == j) {
        token.SetDeadline(std::chrono::steady_clock::now());
      }
    };
    GreedyOptions options = instance.options;
    options.cancel = &token;
    auto dist = SolveGreedyDistributed(instance.graph, instance.k, options,
                                       dist_options);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_TRUE(dist->stats.truncated);
    EXPECT_EQ(dist->items, expected);
    // The batch was never sent: every worker stopped at or before its
    // start, on a prefix of the driver's items, never past them.
    for (const auto& server : servers) {
      const std::string reply = AskWorker(server->port(), "ckpt");
      ASSERT_EQ(reply.rfind("OK ckpt ", 0), 0u) << reply;
      auto prefix = ParseNodeCsv(
          *KvArgs(reply.substr(sizeof("OK ckpt ") - 1)).GetString("prefix"));
      ASSERT_TRUE(prefix.ok());
      ASSERT_LT(prefix->size(), j);
      EXPECT_TRUE(std::equal(prefix->begin(), prefix->end(),
                             expected.begin()));
    }
  }
  // stop_at_cover reached after j items: the same stop, by coverage.
  {
    DiffInstance stopped = instance;
    stopped.options.stop_at_cover = full->cover_after_prefix[j - 1];
    stopped.label += " stop after " + std::to_string(j);
    auto reference =
        SolveGreedyLazy(stopped.graph, stopped.k, stopped.options);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->items, expected);
    RunDistAndCompare(stopped, *reference, 4);
  }
}

TEST(DistDifferentialTest, OldProtocolWorkerIsRefusedAtSeating) {
  const DiffInstance instance = MakeInstance(3);
  const std::string current = "v=" + std::to_string(kProtocolVersion);
  std::vector<std::unique_ptr<WorkerServer>> servers;
  DistSolveOptions dist_options = StartFleet(
      instance.graph, 1, &servers,
      [current](const std::string& line, std::string reply) {
        if (line == "hello") {
          reply.replace(reply.find(current), current.size(), "v=1");
        }
        return reply;
      });
  auto dist = SolveGreedyDistributed(instance.graph, instance.k,
                                     instance.options, dist_options);
  ASSERT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), StatusCode::kFailedPrecondition)
      << dist.status().ToString();
  const std::string message = dist.status().ToString();
  EXPECT_NE(message.find("127.0.0.1:" + std::to_string(servers[0]->port())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("v=1"), std::string::npos) << message;
  EXPECT_NE(message.find(current), std::string::npos) << message;
}

// A worker that answers every propose without its `node=`: the reply is
// well-formed enough to arrive and never usable.
std::string DropProposedNode(const std::string& line, std::string reply) {
  if (line.rfind("propose", 0) != 0) return reply;
  const size_t at = reply.find(" node=");
  if (at == std::string::npos) return reply;
  const size_t end = reply.find(' ', at + 1);
  reply.erase(at, end == std::string::npos ? std::string::npos : end - at);
  return reply;
}

TEST(DistDifferentialTest, WorkerWhoseRepliesStayRejectedIsDropped) {
  // Without the second-rejection rule the coordinator re-seats such a
  // worker forever, so each solve runs in a child with its own deadline.
  const DiffInstance instance = MakeInstance(8);
  auto reference =
      SolveGreedyLazy(instance.graph, instance.k, instance.options);
  ASSERT_TRUE(reference.ok());
  // Beside a healthy worker: dropped after its re-init is rejected at the
  // same sequence, and the solve finishes on the survivor.
  EXPECT_EXIT(
      {
        ::alarm(60);
        std::vector<std::unique_ptr<WorkerServer>> servers;
        DistSolveOptions dist_options =
            StartFleet(instance.graph, 1, &servers);
        DistSolveOptions mangled =
            StartFleet(instance.graph, 1, &servers, DropProposedNode);
        dist_options.workers.push_back(mangled.workers[0]);
        const uint64_t failures0 = DistCounter(dist_metric::kWorkerFailures);
        auto dist = SolveGreedyDistributed(instance.graph, instance.k,
                                           instance.options, dist_options);
        const bool ok = dist.ok() && dist->items == reference->items &&
                        DistCounter(dist_metric::kWorkerFailures) ==
                            failures0 + 1;
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  // Alone: the solve fails with the last error instead of spinning.
  EXPECT_EXIT(
      {
        ::alarm(60);
        std::vector<std::unique_ptr<WorkerServer>> servers;
        const DistSolveOptions dist_options =
            StartFleet(instance.graph, 1, &servers, DropProposedNode);
        auto dist = SolveGreedyDistributed(instance.graph, instance.k,
                                           instance.options, dist_options);
        const bool ok =
            !dist.ok() && dist.status().ToString().find("node") !=
                              std::string::npos;
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(DistDifferentialTest, NoWorkersIsInvalidArgument) {
  const DiffInstance instance = MakeInstance(0);
  DistSolveOptions dist_options;  // empty fleet
  auto solution = SolveGreedyDistributed(instance.graph, instance.k,
                                         instance.options, dist_options);
  EXPECT_FALSE(solution.ok());
}

TEST(DistDifferentialTest, UnreachableWorkerFailsTheSolveFast) {
  // A fleet whose only worker never existed: the first seating must
  // fail with a transport error, not hang.
  const DiffInstance instance = MakeInstance(1);
  DistSolveOptions dist_options;
  DistWorkerEndpoint endpoint;
  endpoint.port = 1;  // reserved, nothing listens here
  dist_options.workers.push_back(endpoint);
  dist_options.client.request_timeout_ms = 200;
  dist_options.client.max_attempts = 2;
  auto solution = SolveGreedyDistributed(instance.graph, instance.k,
                                         instance.options, dist_options);
  EXPECT_FALSE(solution.ok());
}

}  // namespace
}  // namespace dist
}  // namespace prefcover

#endif  // __unix__ || __APPLE__
