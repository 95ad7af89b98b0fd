// DistWorker wire grammar, driven by direct HandleLine calls (no
// sockets): init validation — including the graph-digest instance check
// and the bad-init-leaves-state-intact guarantee — the propose/commit
// sequence discipline, exactly-once commit via the one-deep replay
// cache, prefix resume, and the core identity: a full-range worker
// driven verb-by-verb reproduces SolveGreedyLazy byte-for-byte, and two
// half-range workers merged with the canonical tie-break do too.

#include "dist/worker.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/greedy_solver.h"
#include "dist/protocol.h"
#include "graph/graph_generators.h"
#include "util/random.h"
#include "util/simd_dispatch.h"

namespace prefcover {
namespace dist {
namespace {

PreferenceGraph MakeGraph(uint64_t seed, uint32_t num_nodes = 60) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  UniformGraphParams params;
  params.num_nodes = num_nodes;
  params.out_degree = 4;
  params.popularity_skew = 0.7;
  auto graph = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

/// The init line a coordinator would send: full defaults, overridable
/// shard/prefix for the tests that need them.
std::string InitLine(const PreferenceGraph& graph, size_t k,
                     size_t shard_begin, size_t shard_end,
                     const std::vector<NodeId>& prefix = {},
                     const std::vector<NodeId>& exclude = {}) {
  GreedyOptions options;
  return "init shard=" + std::to_string(shard_begin) + ":" +
         std::to_string(shard_end) +
         " variant=independent simd=" +
         std::string(SimdLevelName(ActiveSimdLevel())) +
         " k=" + std::to_string(k) + " seed_cap=1024" +
         " digest=" + std::to_string(GraphDigest(graph)) +
         " opts=" + std::to_string(GreedyOptionsHash(options, k)) +
         " exclude=" + FormatNodeCsv(exclude) +
         " prefix=" + FormatNodeCsv(prefix);
}

/// HandleLine expecting a normal (non-terminating) exchange.
std::string Call(DistWorker* worker, const std::string& line) {
  bool stop_session = false;
  bool stop_server = false;
  std::string reply = worker->HandleLine(line, &stop_session, &stop_server);
  EXPECT_FALSE(stop_session) << line;
  EXPECT_FALSE(stop_server) << line;
  return reply;
}

/// Asserts `reply` is `OK <verb> ...` and returns its key=value args.
KvArgs ReplyKv(const std::string& reply, const std::string& verb) {
  const std::string prefix = "OK " + verb + " ";
  EXPECT_EQ(reply.rfind(prefix, 0), 0u) << reply;
  return KvArgs(reply.size() > prefix.size() ? reply.substr(prefix.size())
                                             : std::string());
}

TEST(DistWorkerTest, HelloAnnouncesVersionAndInstanceSize) {
  PreferenceGraph graph = MakeGraph(1);
  DistWorker worker(&graph);
  EXPECT_EQ(Call(&worker, "hello"),
            "OK hello prefcover-dist v=" + std::to_string(kProtocolVersion) +
                " nodes=" + std::to_string(graph.NumNodes()));
  EXPECT_FALSE(worker.initialized());
}

TEST(DistWorkerTest, UnknownVerbIsInvalidArgument) {
  PreferenceGraph graph = MakeGraph(1);
  DistWorker worker(&graph);
  EXPECT_EQ(Call(&worker, "frobnicate x=1").rfind("ERR InvalidArgument", 0),
            0u);
}

TEST(DistWorkerTest, SolveVerbsRequireInit) {
  PreferenceGraph graph = MakeGraph(1);
  DistWorker worker(&graph);
  for (const char* line :
       {"propose seq=0", "commit seq=0 node=3", "ckpt", "stats"}) {
    EXPECT_EQ(Call(&worker, line).rfind("ERR FailedPrecondition", 0), 0u)
        << line;
  }
}

TEST(DistWorkerTest, InitRejectsMalformedArguments) {
  PreferenceGraph graph = MakeGraph(2);
  DistWorker worker(&graph);
  const size_t n = graph.NumNodes();
  const std::string good = InitLine(graph, 10, 0, n);
  struct Case {
    const char* label;
    std::string line;
  };
  const Case cases[] = {
      {"missing shard", "init variant=independent simd=scalar k=5 "
                        "seed_cap=8 digest=1 opts=1 exclude=- prefix=-"},
      {"shard not b:e",
       "init shard=5 variant=independent simd=scalar k=5 seed_cap=8 "
       "digest=1 opts=1 exclude=- prefix=-"},
      {"shard inverted", InitLine(graph, 10, 4, 2)},
      {"shard past n", InitLine(graph, 10, 0, n + 1)},
      {"bad variant",
       "init shard=0:" + std::to_string(n) +
           " variant=bogus simd=scalar k=5 seed_cap=8 digest=1 opts=1 "
           "exclude=- prefix=-"},
      {"bad simd",
       "init shard=0:" + std::to_string(n) +
           " variant=independent simd=mmx k=5 seed_cap=8 digest=1 opts=1 "
           "exclude=- prefix=-"},
      {"prefix node out of range",
       InitLine(graph, 10, 0, n, {static_cast<NodeId>(n)})},
      {"prefix longer than k", InitLine(graph, 1, 0, n, {0, 1})},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Call(&worker, c.line).rfind("ERR ", 0), 0u) << c.label;
    EXPECT_FALSE(worker.initialized()) << c.label;
  }
  // Sanity: the template itself seats fine.
  EXPECT_EQ(Call(&worker, good).rfind("OK init", 0), 0u);
}

TEST(DistWorkerTest, InitRejectsWrongInstanceDigest) {
  PreferenceGraph graph = MakeGraph(3);
  DistWorker worker(&graph);
  std::string line = InitLine(graph, 10, 0, graph.NumNodes());
  // A coordinator solving a different instance: flip one digest bit.
  const std::string real = "digest=" + std::to_string(GraphDigest(graph));
  const std::string wrong =
      "digest=" + std::to_string(GraphDigest(graph) ^ 1);
  const size_t at = line.find(real);
  ASSERT_NE(at, std::string::npos);
  line.replace(at, real.size(), wrong);
  const std::string reply = Call(&worker, line);
  EXPECT_EQ(reply.rfind("ERR FailedPrecondition", 0), 0u) << reply;
  EXPECT_NE(reply.find("digest"), std::string::npos) << reply;
  EXPECT_FALSE(worker.initialized());
}

TEST(DistWorkerTest, BadInitLeavesRunningSolveIntact) {
  PreferenceGraph graph = MakeGraph(4);
  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, 10, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  // Advance one round so there is state to lose.
  const KvArgs proposal = ReplyKv(Call(&worker, "propose seq=0"), "propose");
  auto node = proposal.GetU64("node");
  ASSERT_TRUE(node.ok());
  ASSERT_EQ(Call(&worker,
                 "commit seq=0 node=" + std::to_string(*node))
                .rfind("OK commit", 0),
            0u);
  ASSERT_EQ(worker.seq(), 1u);

  // A rejected re-init must not disturb the seated solve.
  EXPECT_EQ(Call(&worker, InitLine(graph, 10, 4, 2)).rfind("ERR ", 0), 0u);
  EXPECT_TRUE(worker.initialized());
  EXPECT_EQ(worker.seq(), 1u);
  const KvArgs ckpt = ReplyKv(Call(&worker, "ckpt"), "ckpt");
  auto prefix = ckpt.GetString("prefix");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, std::to_string(*node));
  // And the solve still advances.
  EXPECT_EQ(Call(&worker, "propose seq=1").rfind("OK propose seq=1", 0), 0u);
}

TEST(DistWorkerTest, ProposeDemandsCurrentSequence) {
  PreferenceGraph graph = MakeGraph(5);
  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, 10, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  EXPECT_EQ(Call(&worker, "propose seq=1").rfind("ERR FailedPrecondition", 0),
            0u);
  // Propose is naturally repeatable at the current sequence: same reply.
  const std::string first = Call(&worker, "propose seq=0");
  EXPECT_EQ(first.rfind("OK propose seq=0 found=1", 0), 0u);
  auto node_of = [](const std::string& reply) {
    auto node = KvArgs(reply.substr(sizeof("OK propose ") - 1)).GetU64("node");
    EXPECT_TRUE(node.ok());
    return node.ok() ? *node : 0;
  };
  EXPECT_EQ(node_of(Call(&worker, "propose seq=0")), node_of(first));
}

TEST(DistWorkerTest, CommitIsExactlyOnceViaReplayCache) {
  PreferenceGraph graph = MakeGraph(6);
  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, 10, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  const KvArgs proposal = ReplyKv(Call(&worker, "propose seq=0"), "propose");
  auto node = proposal.GetU64("node");
  ASSERT_TRUE(node.ok());
  const std::string commit_line =
      "commit seq=0 node=" + std::to_string(*node);

  const std::string first = Call(&worker, commit_line);
  EXPECT_EQ(first.rfind("OK commit seq=1", 0), 0u);
  EXPECT_EQ(worker.seq(), 1u);
  // The ResilientClient retry path: same (seq, node) again. Answered
  // byte-identically from the replay cache, applied zero further times.
  EXPECT_EQ(Call(&worker, commit_line), first);
  EXPECT_EQ(worker.seq(), 1u);
  const KvArgs ckpt = ReplyKv(Call(&worker, "ckpt"), "ckpt");
  auto prefix = ckpt.GetString("prefix");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, std::to_string(*node));  // once, not twice

  // A replayed seq with a DIFFERENT node is not a retry — it is a
  // desynchronized coordinator, and must be refused.
  const NodeId other = *node == 0 ? 1 : 0;
  EXPECT_EQ(Call(&worker,
                 "commit seq=0 node=" + std::to_string(other))
                .rfind("ERR FailedPrecondition", 0),
            0u);
  // As is a commit from the future.
  EXPECT_EQ(Call(&worker,
                 "commit seq=5 node=" + std::to_string(other))
                .rfind("ERR FailedPrecondition", 0),
            0u);
  // And a re-commit of an already-retained node at the current seq.
  EXPECT_EQ(Call(&worker,
                 "commit seq=1 node=" + std::to_string(*node))
                .rfind("ERR FailedPrecondition", 0),
            0u);
  EXPECT_EQ(worker.seq(), 1u);
}

TEST(DistWorkerTest, InitWithPrefixResumesMidSolve) {
  PreferenceGraph graph = MakeGraph(7);
  const size_t k = 8;
  auto reference = SolveGreedyLazy(graph, k, GreedyOptions());
  ASSERT_TRUE(reference.ok());
  ASSERT_GE(reference->items.size(), 4u);

  // Seat a worker three commits in — the rebalance re-init path.
  const std::vector<NodeId> prefix(reference->items.begin(),
                                   reference->items.begin() + 3);
  DistWorker worker(&graph);
  const KvArgs init = ReplyKv(
      Call(&worker, InitLine(graph, k, 0, graph.NumNodes(), prefix)), "init");
  auto seq = init.GetU64("seq");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
  auto cover = init.GetString("cover");
  ASSERT_TRUE(cover.ok());
  // The replayed cover is byte-identical to the single-process curve.
  EXPECT_EQ(*cover, FormatF64(reference->cover_after_prefix[2]));

  // The next proposal is exactly the fourth single-process selection.
  const KvArgs proposal = ReplyKv(Call(&worker, "propose seq=3"), "propose");
  auto node = proposal.GetU64("node");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, reference->items[3]);
}

TEST(DistWorkerTest, FullRangeWorkerReproducesLazySolveByteForByte) {
  PreferenceGraph graph = MakeGraph(8, 120);
  const size_t k = 15;
  auto reference = SolveGreedyLazy(graph, k, GreedyOptions());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->items.size(), k);

  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, k, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  for (size_t round = 0; round < k; ++round) {
    const KvArgs proposal = ReplyKv(
        Call(&worker, "propose seq=" + std::to_string(round)), "propose");
    auto found = proposal.GetU64("found");
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(*found, 1u) << "round " << round;
    auto node = proposal.GetU64("node");
    auto gain = proposal.GetF64("gain");
    ASSERT_TRUE(node.ok());
    // The gain travels as %.17g so the coordinator's merge compares the
    // exact binary64 the worker computed (the selection and cover
    // assertions below are the byte-identity contract; the gain's own
    // bytes are covered by the tie-break reproducing the reference).
    ASSERT_TRUE(gain.ok());
    EXPECT_GT(*gain, 0.0) << "round " << round;
    EXPECT_EQ(*node, reference->items[round]) << "round " << round;

    const KvArgs commit = ReplyKv(
        Call(&worker, "commit seq=" + std::to_string(round) +
                          " node=" + std::to_string(*node)),
        "commit");
    auto cover = commit.GetString("cover");
    ASSERT_TRUE(cover.ok());
    EXPECT_EQ(*cover, FormatF64(reference->cover_after_prefix[round]))
        << "round " << round;
  }
  // Exhausted budget: the worker no longer finds a candidate only if the
  // shard is spent; either way the prefix is the full solution.
  const KvArgs ckpt = ReplyKv(Call(&worker, "ckpt"), "ckpt");
  auto prefix = ckpt.GetString("prefix");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, FormatNodeCsv(reference->items));
}

TEST(DistWorkerTest, TwoShardsMergeToTheGlobalArgmax) {
  PreferenceGraph graph = MakeGraph(9, 150);
  const size_t n = graph.NumNodes();
  const size_t k = 12;
  auto reference = SolveGreedyLazy(graph, k, GreedyOptions());
  ASSERT_TRUE(reference.ok());

  // The GreeDIMM decomposition at the wire level: two workers on
  // complementary shards, coordinator-side merge with the canonical
  // tie-break (max gain, then smaller node id).
  DistWorker left(&graph);
  DistWorker right(&graph);
  ASSERT_EQ(Call(&left, InitLine(graph, k, 0, n / 2)).rfind("OK init", 0),
            0u);
  ASSERT_EQ(Call(&right, InitLine(graph, k, n / 2, n)).rfind("OK init", 0),
            0u);

  std::vector<NodeId> selected;
  for (size_t round = 0; round < k; ++round) {
    bool have_best = false;
    double best_gain = 0.0;
    uint64_t best_node = 0;
    for (DistWorker* worker : {&left, &right}) {
      const KvArgs proposal = ReplyKv(
          Call(worker, "propose seq=" + std::to_string(round)), "propose");
      auto found = proposal.GetU64("found");
      ASSERT_TRUE(found.ok());
      if (*found == 0) continue;
      auto node = proposal.GetU64("node");
      auto gain = proposal.GetF64("gain");
      ASSERT_TRUE(node.ok());
      ASSERT_TRUE(gain.ok());
      if (!have_best || *gain > best_gain ||
          (*gain == best_gain && *node < best_node)) {
        have_best = true;
        best_gain = *gain;
        best_node = *node;
      }
    }
    ASSERT_TRUE(have_best) << "round " << round;
    EXPECT_EQ(best_node, reference->items[round]) << "round " << round;
    for (DistWorker* worker : {&left, &right}) {
      const KvArgs commit = ReplyKv(
          Call(worker, "commit seq=" + std::to_string(round) +
                           " node=" + std::to_string(best_node)),
          "commit");
      auto cover = commit.GetString("cover");
      ASSERT_TRUE(cover.ok());
      // Both workers track the identical full-graph residual state.
      EXPECT_EQ(*cover, FormatF64(reference->cover_after_prefix[round]));
    }
    selected.push_back(static_cast<NodeId>(best_node));
  }
  EXPECT_EQ(selected, reference->items);
}

TEST(DistWorkerTest, ExcludedNodesAreNeverProposed) {
  PreferenceGraph graph = MakeGraph(10, 100);
  const size_t k = 10;
  GreedyOptions options;
  auto unconstrained = SolveGreedyLazy(graph, k, options);
  ASSERT_TRUE(unconstrained.ok());
  // Exclude the unconstrained winner; the worker must route around it.
  const NodeId banned = unconstrained->items[0];
  options.force_exclude = {banned};
  auto reference = SolveGreedyLazy(graph, k, options);
  ASSERT_TRUE(reference.ok());

  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker,
                 InitLine(graph, k, 0, graph.NumNodes(), {}, {banned}))
                .rfind("OK init", 0),
            0u);
  for (size_t round = 0; round < reference->items.size(); ++round) {
    const KvArgs proposal = ReplyKv(
        Call(&worker, "propose seq=" + std::to_string(round)), "propose");
    auto node = proposal.GetU64("node");
    ASSERT_TRUE(node.ok());
    EXPECT_NE(*node, banned);
    EXPECT_EQ(*node, reference->items[round]) << "round " << round;
    ASSERT_EQ(Call(&worker, "commit seq=" + std::to_string(round) +
                                " node=" + std::to_string(*node))
                  .rfind("OK commit", 0),
              0u);
  }
}

TEST(DistWorkerTest, EmptyShardsProposeNothing) {
  // [0, 0) is an empty shard like any other [b, b), not "the full
  // range": a coordinator with more workers than candidates hands them
  // out, and the in-process sharded solve builds them for wide pools.
  PreferenceGraph graph = MakeGraph(13, 50);
  for (size_t begin : {size_t{0}, graph.NumNodes()}) {
    DistWorker worker(&graph);
    ASSERT_EQ(Call(&worker, InitLine(graph, 5, begin, begin))
                  .rfind("OK init", 0),
              0u);
    const KvArgs proposal =
        ReplyKv(Call(&worker, "propose seq=0"), "propose");
    auto found = proposal.GetU64("found");
    auto evals = proposal.GetU64("evals");
    ASSERT_TRUE(found.ok() && evals.ok());
    EXPECT_EQ(*found, 0u) << "shard " << begin << ":" << begin;
    EXPECT_EQ(*evals, 0u) << "shard " << begin << ":" << begin;
  }
}

TEST(DistWorkerTest, StatsAccumulateAndCkptReportsPrefix) {
  PreferenceGraph graph = MakeGraph(11);
  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, 5, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  const KvArgs empty_ckpt = ReplyKv(Call(&worker, "ckpt"), "ckpt");
  auto empty_prefix = empty_ckpt.GetString("prefix");
  ASSERT_TRUE(empty_prefix.ok());
  EXPECT_EQ(*empty_prefix, "-");

  ASSERT_EQ(Call(&worker, "propose seq=0").rfind("OK propose", 0), 0u);
  const KvArgs stats = ReplyKv(Call(&worker, "stats"), "stats");
  auto evals = stats.GetU64("evals");
  ASSERT_TRUE(evals.ok());
  // Seeding the CELF heap alone evaluates every candidate once.
  EXPECT_GT(*evals, 0u);
}

TEST(DistWorkerTest, QuitEndsSessionShutdownEndsServer) {
  PreferenceGraph graph = MakeGraph(12);
  DistWorker worker(&graph);
  bool stop_session = false;
  bool stop_server = false;
  EXPECT_EQ(worker.HandleLine("quit", &stop_session, &stop_server),
            "OK bye");
  EXPECT_TRUE(stop_session);
  EXPECT_FALSE(stop_server);
  stop_session = false;
  EXPECT_EQ(worker.HandleLine("shutdown", &stop_session, &stop_server),
            "OK bye");
  EXPECT_TRUE(stop_session);
  EXPECT_TRUE(stop_server);
}

}  // namespace
}  // namespace dist
}  // namespace prefcover
