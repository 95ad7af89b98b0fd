// DistWorker wire grammar, driven by direct HandleLine calls (no
// sockets): init validation — including the graph-digest instance check
// and the bad-init-leaves-state-intact guarantee — the propose/commit
// sequence discipline, exactly-once commit via the one-deep replay
// cache (single items and batches), prefix resume, the proposal list's
// exactness (fresh gains, and a bound above every unsent candidate,
// checked by brute force), and the core identity: a full-range worker
// driven verb-by-verb reproduces SolveGreedyLazy byte-for-byte, and two
// half-range workers merged with the canonical tie-break do too.

#include "dist/worker.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/cover_state.h"
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
                     const std::vector<NodeId>& exclude = {},
                     size_t seed_cap = 1024) {
  GreedyOptions options;
  return "init shard=" + std::to_string(shard_begin) + ":" +
         std::to_string(shard_end) +
         " variant=independent simd=" +
         std::string(SimdLevelName(ActiveSimdLevel())) +
         " k=" + std::to_string(k) +
         " seed_cap=" + std::to_string(seed_cap) +
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

/// The settled list a propose (or commit piggyback) carries: the head
/// from node/gain, the rest from `more`.
std::vector<CandidateProposal> ProposedList(const KvArgs& proposal) {
  std::vector<CandidateProposal> list;
  auto found = proposal.GetU64("found");
  EXPECT_TRUE(found.ok());
  if (!found.ok() || *found == 0) return list;
  auto node = proposal.GetU64("node");
  auto gain = proposal.GetF64("gain");
  auto more = proposal.GetString("more");
  EXPECT_TRUE(node.ok() && gain.ok() && more.ok());
  if (!node.ok() || !gain.ok() || !more.ok()) return list;
  list.push_back({true, *gain, static_cast<NodeId>(*node)});
  auto rest = ParseScoredCsv(*more);
  EXPECT_TRUE(rest.ok()) << *more;
  if (rest.ok()) list.insert(list.end(), rest->begin(), rest->end());
  return list;
}

std::string CkptPrefix(DistWorker* worker) {
  auto prefix = ReplyKv(Call(worker, "ckpt"), "ckpt").GetString("prefix");
  EXPECT_TRUE(prefix.ok());
  return prefix.ok() ? *prefix : "";
}

TEST(DistWorkerTest, RetriedBatchCommitReturnsTheCachedReply) {
  PreferenceGraph graph = MakeGraph(14, 120);
  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, 10, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  const std::vector<CandidateProposal> list =
      ProposedList(ReplyKv(Call(&worker, "propose seq=0"), "propose"));
  ASSERT_GE(list.size(), 3u);
  const std::vector<NodeId> batch = {list[0].node, list[1].node,
                                     list[2].node};
  const std::string commit_line = "commit seq=0 node=" + FormatNodeCsv(batch);
  const std::string first = Call(&worker, commit_line);
  EXPECT_EQ(first.rfind("OK commit seq=3 ", 0), 0u) << first;
  EXPECT_EQ(worker.seq(), 3u);
  // The lost-reply retry: the same seq and list, answered from the cache
  // byte for byte (piggybacked proposal included), applied once.
  EXPECT_EQ(Call(&worker, commit_line), first);
  EXPECT_EQ(worker.seq(), 3u);
  EXPECT_EQ(CkptPrefix(&worker), FormatNodeCsv(batch));
}

TEST(DistWorkerTest, RefusedBatchCommitAppliesNoneOfItsItems) {
  PreferenceGraph graph = MakeGraph(15, 120);
  DistWorker worker(&graph);
  ASSERT_EQ(Call(&worker, InitLine(graph, 20, 0, graph.NumNodes()))
                .rfind("OK init", 0),
            0u);
  const std::vector<CandidateProposal> list =
      ProposedList(ReplyKv(Call(&worker, "propose seq=0"), "propose"));
  ASSERT_GE(list.size(), 4u);
  const NodeId a = list[0].node;
  const NodeId b = list[1].node;
  const NodeId c = list[2].node;
  const NodeId d = list[3].node;
  const std::string applied = Call(
      &worker, "commit seq=0 node=" + FormatNodeCsv(std::vector{a, b}));
  ASSERT_EQ(applied.rfind("OK commit seq=2 ", 0), 0u) << applied;
  const std::string prefix = FormatNodeCsv(std::vector{a, b});
  const std::string cover =
      *ReplyKv(applied, "commit").GetString("cover");

  struct Case {
    const char* label;
    std::string line;
  };
  const Case refused[] = {
      {"same seq, different list",
       "commit seq=0 node=" + FormatNodeCsv(std::vector{a, c})},
      {"same seq, longer list",
       "commit seq=0 node=" + FormatNodeCsv(std::vector{a, b, c})},
      {"names a retained node",
       "commit seq=2 node=" + FormatNodeCsv(std::vector{c, b})},
      {"names a node twice",
       "commit seq=2 node=" + FormatNodeCsv(std::vector{c, d, c})},
      {"node out of range",
       "commit seq=2 node=" + std::to_string(c) + "," +
           std::to_string(graph.NumNodes())},
      {"empty list", "commit seq=2 node=-"},
  };
  for (const Case& bad : refused) {
    EXPECT_EQ(Call(&worker, bad.line).rfind("ERR ", 0), 0u) << bad.label;
    EXPECT_EQ(worker.seq(), 2u) << bad.label;
    EXPECT_EQ(CkptPrefix(&worker), prefix) << bad.label;
  }
  // Nothing of the refused lists reached the cover: committing c and d
  // now gives the cover of a, b, c, d applied in order and nothing else.
  const std::string next = Call(
      &worker, "commit seq=2 node=" + FormatNodeCsv(std::vector{c, d}));
  ASSERT_EQ(next.rfind("OK commit seq=4 ", 0), 0u) << next;
  CoverState reference(&graph, Variant::kIndependent, ActiveSimdLevel());
  for (NodeId v : {a, b, c, d}) reference.AddNode(v);
  EXPECT_EQ(*ReplyKv(next, "commit").GetString("cover"),
            FormatF64(reference.cover()));
  EXPECT_NE(cover, FormatF64(reference.cover()));
}

TEST(DistWorkerTest, ProposedListIsExactAndBoundCoversTheRest) {
  // A middle shard with a seed capacity far below its size, so the engine
  // walks, cuts at theta, refills and stops settling at theta along the
  // way. Every round, checked by brute force over the shard against a
  // CoverState that replays the same prefix: each sent gain is a fresh
  // GainOf, the list is the shard's exact top by (gain desc, id asc), and
  // every unsent live candidate's gain is at most the bound.
  PreferenceGraph graph = MakeGraph(16, 400);
  const size_t begin = 100;
  const size_t end = 340;
  const size_t k = 60;
  for (size_t seed_cap : {size_t{4}, size_t{16}, size_t{1024}}) {
    DistWorker worker(&graph);
    ASSERT_EQ(Call(&worker, InitLine(graph, k, begin, end, {}, {}, seed_cap))
                  .rfind("OK init", 0),
              0u);
    CoverState state(&graph, Variant::kIndependent, ActiveSimdLevel());
    size_t short_lists = 0;
    for (size_t round = 0; round < k; ++round) {
      const std::string label = "seed_cap=" + std::to_string(seed_cap) +
                                " round " + std::to_string(round);
      const KvArgs proposal = ReplyKv(
          Call(&worker, "propose seq=" + std::to_string(round)), "propose");
      const std::vector<CandidateProposal> list = ProposedList(proposal);
      auto bound = proposal.GetF64("bound");
      ASSERT_TRUE(bound.ok()) << label;
      ASSERT_LE(list.size(), kProposeDepth) << label;
      std::vector<CandidateProposal> live;
      for (size_t v = begin; v < end; ++v) {
        const NodeId node = static_cast<NodeId>(v);
        if (!state.IsRetained(node)) {
          live.push_back({true, state.GainOf(node), node});
        }
      }
      std::ranges::sort(live, BetterProposal);
      ASSERT_GE(live.size(), list.size()) << label;
      for (size_t i = 0; i < list.size(); ++i) {
        EXPECT_EQ(list[i].node, live[i].node) << label << " entry " << i;
        EXPECT_EQ(std::memcmp(&list[i].gain, &live[i].gain, sizeof(double)),
                  0)
            << label << " entry " << i;
      }
      for (size_t i = list.size(); i < live.size(); ++i) {
        EXPECT_LE(live[i].gain, *bound) << label << " node " << live[i].node;
      }
      if (list.size() < std::min(kProposeDepth, live.size())) ++short_lists;
      if (list.empty()) break;
      // Commit the head plus the next entry when there is one, so the
      // engine also recycles held entries across batches.
      std::vector<NodeId> batch = {list[0].node};
      if (list.size() > 1 && round + 1 < k) batch.push_back(list[1].node);
      ASSERT_EQ(Call(&worker, "commit seq=" + std::to_string(round) +
                                  " node=" + FormatNodeCsv(batch))
                    .rfind("OK commit", 0),
                0u)
          << label;
      for (NodeId v : batch) state.AddNode(v);
      round += batch.size() - 1;
    }
    if (seed_cap == 4) {
      // The settle did stop at theta at least once at this capacity.
      EXPECT_GT(short_lists, 0u);
    }
  }
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
