#include "clickstream/streaming_construction.h"

#include <array>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "synth/dataset_profiles.h"
#include "util/random.h"

namespace prefcover {
namespace {

// Equality modulo nothing: both paths intern items in CSV appearance
// order, so ids coincide.
void ExpectSameGraph(const PreferenceGraph& a, const PreferenceGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    ASSERT_EQ(a.Label(v), b.Label(v));
    ASSERT_DOUBLE_EQ(a.NodeWeight(v), b.NodeWeight(v));
    AdjacencyView oa = a.OutNeighbors(v), ob = b.OutNeighbors(v);
    ASSERT_EQ(oa.size(), ob.size());
    for (size_t i = 0; i < oa.size(); ++i) {
      ASSERT_EQ(oa.nodes[i], ob.nodes[i]);
      ASSERT_DOUBLE_EQ(oa.weights[i], ob.weights[i]);
    }
  }
}

class StreamingParityTest : public ::testing::TestWithParam<Variant> {};

TEST_P(StreamingParityTest, MatchesInMemoryConstructionOnProfileData) {
  DatasetProfile profile = GetParam() == Variant::kNormalized
                               ? DatasetProfile::kPM
                               : DatasetProfile::kYC;
  auto cs = GenerateProfileClickstream(profile, 0.003, 7);
  ASSERT_TRUE(cs.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(*cs, &out).ok());
  const std::string csv = out.str();

  GraphConstructionOptions options;
  options.variant = GetParam();

  // In-memory path: re-read the CSV so interning order matches.
  std::istringstream in_memory_src(csv);
  auto reloaded = ReadClickstreamCsv(&in_memory_src);
  ASSERT_TRUE(reloaded.ok());
  auto in_memory = BuildPreferenceGraph(*reloaded, options);
  ASSERT_TRUE(in_memory.ok());

  std::istringstream streaming_src(csv);
  auto streaming = BuildPreferenceGraphStreaming(&streaming_src, options);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  ExpectSameGraph(*in_memory, *streaming);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, StreamingParityTest,
                         ::testing::Values(Variant::kIndependent,
                                           Variant::kNormalized),
                         [](const auto& param_info) {
                           return std::string(VariantName(param_info.param));
                         });

TEST(StreamingParityTest, FiltersMatchInMemory) {
  auto cs = GenerateProfileClickstream(DatasetProfile::kYC, 0.003, 9);
  ASSERT_TRUE(cs.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(*cs, &out).ok());
  GraphConstructionOptions options;
  options.min_edge_weight = 0.15;
  options.min_purchases_for_edges = 3;

  std::istringstream src1(out.str());
  auto reloaded = ReadClickstreamCsv(&src1);
  ASSERT_TRUE(reloaded.ok());
  auto in_memory = BuildPreferenceGraph(*reloaded, options);
  std::istringstream src2(out.str());
  auto streaming = BuildPreferenceGraphStreaming(&src2, options);
  ASSERT_TRUE(in_memory.ok() && streaming.ok());
  ExpectSameGraph(*in_memory, *streaming);
}

// Both builds count through one StreamingGraphBuilder, so their graphs
// have one digest on every profile, under both variants, and with dwell
// data read back from the CSV's fourth column.
TEST(StreamingParityTest, SameDigestOnEveryProfileVariantAndDwell) {
  for (DatasetProfile profile :
       {DatasetProfile::kPE, DatasetProfile::kPF, DatasetProfile::kPM,
        DatasetProfile::kYC}) {
    auto cs = GenerateProfileClickstream(profile, 0.0005, 5);
    ASSERT_TRUE(cs.ok());
    for (bool with_dwell : {false, true}) {
      Clickstream source;
      *source.mutable_dictionary() = cs->dictionary();
      Rng rng(17);
      for (Session session : cs->sessions()) {
        for (size_t c = 0; with_dwell && c < session.clicks.size(); ++c) {
          session.dwell_seconds.push_back(
              rng.NextBernoulli(0.1) ? -1.0 : rng.NextDouble(0.0, 40.0));
        }
        source.AddSession(std::move(session));
      }
      std::ostringstream out;
      ASSERT_TRUE(WriteClickstreamCsv(source, &out).ok());
      const std::string csv = out.str();
      ASSERT_EQ(csv.find("dwell_seconds") != std::string::npos, with_dwell);
      for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
        const std::string label = std::string(GetProfileSpec(profile).name) +
                                  (with_dwell ? " dwell " : " ") +
                                  std::string(VariantName(variant));
        GraphConstructionOptions options;
        options.variant = variant;
        if (with_dwell) options.dwell_saturation_seconds = 20.0;
        std::istringstream batch_src(csv);
        auto reloaded = ReadClickstreamCsv(&batch_src);
        ASSERT_TRUE(reloaded.ok()) << label;
        auto in_memory = BuildPreferenceGraph(*reloaded, options);
        std::istringstream streaming_src(csv);
        auto streaming = BuildPreferenceGraphStreaming(&streaming_src, options);
        ASSERT_TRUE(in_memory.ok() && streaming.ok()) << label;
        EXPECT_GT(in_memory->NumEdges(), 0u) << label;
        EXPECT_EQ(GraphDigest(*in_memory), GraphDigest(*streaming)) << label;
      }
    }
  }
}

// clickstream.rows, .sessions, .purchases and .edges count the streaming
// construction, bumped once per build from its totals; reading and
// building in memory leaves them alone.
TEST(StreamingCountersTest, DeltasEqualOneStreamingBuildsTotals) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "0,click,b\n0,click,b\n0,purchase,a\n"
      "1,click,c\n"  // browse-only
      "2,click,a\n2,click,c\n2,purchase,b\n"
      "3,purchase,a\n";
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto counters = [&metrics] {
    return std::array<uint64_t, 4>{
        metrics.GetCounter("clickstream.rows")->Value(),
        metrics.GetCounter("clickstream.sessions")->Value(),
        metrics.GetCounter("clickstream.purchases")->Value(),
        metrics.GetCounter("clickstream.edges")->Value()};
  };
  const std::array<uint64_t, 4> before = counters();
  std::istringstream streaming_src(csv);
  auto streamed = BuildPreferenceGraphStreaming(&streaming_src);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  const std::array<uint64_t, 4> after = counters();
  EXPECT_EQ(after[0] - before[0], 8u);  // records
  EXPECT_EQ(after[1] - before[1], 4u);  // sessions
  EXPECT_EQ(after[2] - before[2], 3u);  // purchase sessions
  EXPECT_EQ(after[3] - before[3], streamed->NumEdges());
  EXPECT_EQ(streamed->NumEdges(), 3u);  // a->b, b->a, b->c

  std::istringstream batch_src(csv);
  auto reloaded = ReadClickstreamCsv(&batch_src);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(BuildPreferenceGraph(*reloaded).ok());
  EXPECT_EQ(counters(), after);
}

TEST(StreamingBuilderTest, IncrementalSessionsApi) {
  StreamingGraphBuilder builder;
  ItemDictionary dictionary;
  ItemId silver = dictionary.Intern("silver");
  ItemId gold = dictionary.Intern("gold");
  Session s1;
  s1.clicks = {gold};
  s1.purchase = silver;
  builder.AddSession(s1);
  Session s2;
  s2.purchase = silver;
  builder.AddSession(s2);
  EXPECT_EQ(builder.sessions_seen(), 2u);
  EXPECT_EQ(builder.purchases_seen(), 2u);

  auto g = builder.Finish(dictionary);
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->NodeWeight(silver), 1.0);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(silver, gold), 0.5);

  // Builder stays usable: another session shifts the estimate.
  Session s3;
  s3.clicks = {gold};
  s3.purchase = silver;
  builder.AddSession(s3);
  auto g2 = builder.Finish(dictionary);
  ASSERT_TRUE(g2.ok());
  EXPECT_NEAR(g2->EdgeWeight(silver, gold), 2.0 / 3.0, 1e-12);
}

TEST(StreamingBuilderTest, NoPurchasesFails) {
  StreamingGraphBuilder builder;
  ItemDictionary dictionary;
  dictionary.Intern("x");
  Session s;
  s.clicks = {0};
  builder.AddSession(s);
  EXPECT_TRUE(builder.Finish(dictionary).status().IsFailedPrecondition());
}

TEST(StreamingCsvTest, MalformedInputRejected) {
  {
    std::istringstream in("bad,header,row\n");
    EXPECT_TRUE(BuildPreferenceGraphStreaming(&in)
                    .status()
                    .IsInvalidArgument());
  }
  {
    std::istringstream in(
        "session_id,event_type,item_id\n0,hover,x\n");
    EXPECT_TRUE(BuildPreferenceGraphStreaming(&in)
                    .status()
                    .IsInvalidArgument());
  }
  {
    std::istringstream in(
        "session_id,event_type,item_id\n0,purchase,x\n0,purchase,y\n");
    EXPECT_TRUE(BuildPreferenceGraphStreaming(&in)
                    .status()
                    .IsInvalidArgument());
  }
}

// A session id reappearing after other sessions is the documented
// divergence between the two paths: the batch reader rejects the input,
// the streaming pass (which cannot remember every past id) opens a NEW
// session and keeps the statistics correct for that reading.
TEST(StreamingCsvTest, ReappearingSessionIdStartsNewSession) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "0,click,b\n0,purchase,a\n"
      "1,purchase,b\n"
      "0,purchase,a\n";  // id 0 again, after session 1

  std::istringstream batch_src(csv);
  EXPECT_TRUE(ReadClickstreamCsv(&batch_src).status().IsInvalidArgument());

  std::istringstream streaming_src(csv);
  auto g = BuildPreferenceGraphStreaming(&streaming_src);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Three sessions, three purchases: a twice, b once.
  ASSERT_EQ(g->NumNodes(), 2u);
  ItemId b = 0, a = 1;  // interned in appearance order
  EXPECT_EQ(g->Label(a), "a");
  EXPECT_DOUBLE_EQ(g->NodeWeight(a), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(g->NodeWeight(b), 1.0 / 3.0);
  // Only the first a-purchase session clicked b: weight 1/2.
  EXPECT_DOUBLE_EQ(g->EdgeWeight(a, b), 0.5);
}

// Events inside a session block need not be ordered: clicks recorded
// after the purchase row are still the session's alternatives.
TEST(StreamingCsvTest, ClicksAfterPurchaseRowStillCount) {
  const std::string before =
      "session_id,event_type,item_id\n"
      "0,click,b\n0,purchase,a\n1,purchase,b\n";
  const std::string after =
      "session_id,event_type,item_id\n"
      "0,purchase,a\n0,click,b\n1,purchase,b\n";
  std::istringstream src1(before), src2(after);
  auto g1 = BuildPreferenceGraphStreaming(&src1);
  auto g2 = BuildPreferenceGraphStreaming(&src2);
  ASSERT_TRUE(g1.ok() && g2.ok());
  // Interning order differs (ids swap), so compare by label.
  auto by_label = [](const PreferenceGraph& g, const std::string& label) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.Label(v) == label) return v;
    }
    ADD_FAILURE() << "no node labeled " << label;
    return kInvalidItem;
  };
  for (const PreferenceGraph* g : {&*g1, &*g2}) {
    NodeId a = by_label(*g, "a"), b = by_label(*g, "b");
    EXPECT_DOUBLE_EQ(g->NodeWeight(a), 0.5);
    EXPECT_DOUBLE_EQ(g->EdgeWeight(a, b), 1.0);
  }
}

// Browse-only ("empty") sessions carry no intent: their items become
// weight-0 nodes, no edges, and they do not dilute edge denominators
// (which divide by per-item purchase counts, not session counts).
TEST(StreamingCsvTest, BrowseOnlySessionsContributeNoMass) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "0,click,b\n0,purchase,a\n"
      "1,click,c\n"             // browse-only, new item c
      "2,click,b\n2,click,c\n"  // browse-only again
      "3,purchase,a\n";
  std::istringstream src(csv);
  auto g = BuildPreferenceGraphStreaming(&src);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->NumNodes(), 3u);
  ItemId b = 0, a = 1, c = 2;
  EXPECT_DOUBLE_EQ(g->NodeWeight(a), 1.0);  // both purchases are a
  EXPECT_DOUBLE_EQ(g->NodeWeight(c), 0.0);
  EXPECT_EQ(g->OutNeighbors(c).size(), 0u);
  EXPECT_EQ(g->InNeighbors(c).size(), 0u);
  // 1 of 2 a-purchase sessions clicked b.
  EXPECT_DOUBLE_EQ(g->EdgeWeight(a, b), 0.5);
}

// Duplicate clicks within one session count once, and a click on the
// purchased item itself is not an alternative.
TEST(StreamingCsvTest, DuplicateAndSelfClicksDedupe) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "0,click,b\n0,click,b\n0,click,b\n"  // same alternative thrice
      "0,click,a\n"                        // click preceding own purchase
      "0,purchase,a\n";
  for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
    GraphConstructionOptions options;
    options.variant = variant;
    std::istringstream src(csv);
    auto g = BuildPreferenceGraphStreaming(&src, options);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ItemId b = 0, a = 1;
    // One distinct alternative in one a-purchase session: weight 1 under
    // both variants (Normalized's 1/t rule has t == 1).
    EXPECT_DOUBLE_EQ(g->EdgeWeight(a, b), 1.0)
        << VariantName(variant);
    EXPECT_FALSE(g->HasEdge(a, a)) << "self-edge from self-click";
    EXPECT_EQ(g->OutNeighbors(a).size(), 1u);
  }
}

// Batch/streaming equivalence on a handcrafted event log that stacks the
// awkward cases: duplicate clicks, self-clicks, browse-only and
// click-free-purchase sessions, shared alternatives — under both
// variants and with the pruning filters on.
TEST(StreamingCsvTest, HandcraftedLogMatchesBatchConstruction) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "s0,click,tv_b\ns0,click,tv_b\ns0,click,tv_a\ns0,purchase,tv_a\n"
      "s1,click,tv_b\ns1,click,tv_c\ns1,purchase,tv_a\n"
      "s2,purchase,tv_b\n"
      "s3,click,tv_a\ns3,click,tv_d\n"  // browse-only
      "s4,click,tv_a\ns4,purchase,tv_b\n"
      "s5,click,tv_d\ns5,purchase,tv_a\n";
  for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
    for (double min_edge_weight : {0.0, 0.4}) {
      GraphConstructionOptions options;
      options.variant = variant;
      options.min_edge_weight = min_edge_weight;
      options.min_purchases_for_edges = min_edge_weight > 0 ? 2 : 0;
      std::istringstream batch_src(csv);
      auto reloaded = ReadClickstreamCsv(&batch_src);
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      auto batch = BuildPreferenceGraph(*reloaded, options);
      std::istringstream streaming_src(csv);
      auto streaming = BuildPreferenceGraphStreaming(&streaming_src, options);
      ASSERT_TRUE(batch.ok() && streaming.ok());
      ExpectSameGraph(*batch, *streaming);
    }
  }
}

// The streaming sink reads the cancel token at each session boundary, so a
// tripped token stops the build after a whole session, never mid-session.
TEST(StreamingCsvTest, TrippedCancelTokenStopsAtASessionBoundary) {
  CancelToken token;
  token.Cancel();
  GraphConstructionOptions options;
  options.cancel = &token;
  std::istringstream src(
      "session_id,event_type,item_id\n"
      "0,click,b\n0,purchase,a\n1,purchase,b\n");
  auto g = BuildPreferenceGraphStreaming(&src, options);
  ASSERT_TRUE(g.status().IsCancelled()) << g.status().ToString();
  EXPECT_EQ(g.status().message(),
            "graph construction cancelled after 1 sessions");
}

TEST(StreamingCsvTest, FilePathConvenience) {
  auto missing = BuildPreferenceGraphStreamingFile("/no/such/file.csv");
  EXPECT_TRUE(missing.status().IsIOError());

  std::string path = ::testing::TempDir() + "/streaming_test.csv";
  {
    std::ofstream out(path);
    out << "session_id,event_type,item_id\n"
           "0,click,b\n0,purchase,a\n"
           "1,purchase,b\n";
  }
  auto g = BuildPreferenceGraphStreamingFile(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_DOUBLE_EQ(g->NodeWeight(1), 0.5);  // "a" interned second? No:
  // appearance order: b (clicked first) = 0, a = 1; each purchased once.
  EXPECT_DOUBLE_EQ(g->NodeWeight(0), 0.5);
  EXPECT_TRUE(g->HasEdge(1, 0));  // a -> b
}

}  // namespace
}  // namespace prefcover
