// Tests for the dwell-time corrective factor (paper Section 5.2's
// suggested refinement) across the session model, CSV I/O, and both
// construction paths.

#include <sstream>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "core/cover_function.h"
#include "core/greedy_solver.h"
#include "synth/session_generator.h"

namespace prefcover {
namespace {

// A repeated alternative counts once, with the longest of its dwells.
TEST(DwellConstructionTest, RepeatedAlternativeKeepsItsLongestDwell) {
  ItemDictionary dictionary;
  const ItemId p = dictionary.Intern("p");
  const ItemId a = dictionary.Intern("a");
  const ItemId b = dictionary.Intern("b");
  Session s;
  s.clicks = {a, b, a, p};
  s.dwell_seconds = {2.0, 10.0, 7.0, 30.0};
  s.purchase = p;
  for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
    GraphConstructionOptions options;
    options.variant = variant;
    options.dwell_saturation_seconds = 20.0;
    StreamingGraphBuilder builder(options);
    builder.AddSession(s);
    auto g = builder.Finish(dictionary);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    // Two distinct alternatives: 1/t = 1/2 under Normalized.
    const double share = variant == Variant::kNormalized ? 0.5 : 1.0;
    EXPECT_DOUBLE_EQ(g->EdgeWeight(p, a), share * (7.0 / 20.0));
    EXPECT_DOUBLE_EQ(g->EdgeWeight(p, b), share * (10.0 / 20.0));
    EXPECT_EQ(g->OutNeighbors(p).size(), 2u);
  }
}

// Without dwell data, or with an unknown (-1) dwell, a click counts in
// full; a known dwell of 0 drops it, unless a repeat of it dwelt longer.
TEST(DwellConstructionTest, UnknownDwellCountsAFullClick) {
  ItemDictionary dictionary;
  const ItemId p = dictionary.Intern("p");
  const ItemId a = dictionary.Intern("a");
  const ItemId b = dictionary.Intern("b");
  const ItemId c = dictionary.Intern("c");
  GraphConstructionOptions options;
  options.dwell_saturation_seconds = 20.0;

  StreamingGraphBuilder plain(options);
  Session no_dwell;
  no_dwell.clicks = {a, b};
  no_dwell.purchase = p;
  EXPECT_FALSE(no_dwell.HasDwell());
  plain.AddSession(no_dwell);
  auto g = plain.Finish(dictionary);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_DOUBLE_EQ(g->EdgeWeight(p, a), 1.0);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(p, b), 1.0);

  StreamingGraphBuilder mixed(options);
  Session s;
  s.clicks = {a, b, c, b};
  s.dwell_seconds = {-1.0, 0.0, 0.0, 4.0};
  s.purchase = p;
  mixed.AddSession(s);
  auto h = mixed.Finish(dictionary);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_DOUBLE_EQ(h->EdgeWeight(p, a), 1.0);
  EXPECT_DOUBLE_EQ(h->EdgeWeight(p, b), 4.0 / 20.0);
  EXPECT_FALSE(h->HasEdge(p, c));
}

Clickstream MakeDwellStream() {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  ItemId p = dict->Intern("p");
  ItemId considered = dict->Intern("considered");
  ItemId glanced = dict->Intern("glanced");
  for (int i = 0; i < 10; ++i) {
    Session s;
    s.purchase = p;
    s.clicks = {considered, glanced};
    s.dwell_seconds = {60.0, 2.0};  // long vs fleeting
    cs.AddSession(std::move(s));
  }
  return cs;
}

TEST(DwellConstructionTest, CorrectionSuppressesFleetingClicks) {
  Clickstream cs = MakeDwellStream();
  GraphConstructionOptions plain;
  auto uncorrected = BuildPreferenceGraph(cs, plain);
  ASSERT_TRUE(uncorrected.ok());
  // Without correction both edges have weight 1.0.
  EXPECT_DOUBLE_EQ(uncorrected->EdgeWeight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(uncorrected->EdgeWeight(0, 2), 1.0);

  GraphConstructionOptions corrected = plain;
  corrected.dwell_saturation_seconds = 20.0;
  auto graph = BuildPreferenceGraph(cs, corrected);
  ASSERT_TRUE(graph.ok());
  // 60 s saturates (factor 1); 2 s becomes 0.1.
  EXPECT_DOUBLE_EQ(graph->EdgeWeight(0, 1), 1.0);
  EXPECT_NEAR(graph->EdgeWeight(0, 2), 0.1, 1e-12);
}

TEST(DwellConstructionTest, SessionsWithoutDwellAreUnaffected) {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  ItemId p = dict->Intern("p");
  ItemId a = dict->Intern("a");
  Session s;
  s.purchase = p;
  s.clicks = {a};  // no dwell data
  cs.AddSession(std::move(s));
  GraphConstructionOptions options;
  options.dwell_saturation_seconds = 20.0;
  auto graph = BuildPreferenceGraph(cs, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_DOUBLE_EQ(graph->EdgeWeight(p, a), 1.0);
}

TEST(DwellConstructionTest, NormalizedVariantStaysAdmissible) {
  Clickstream cs = MakeDwellStream();
  GraphConstructionOptions options;
  options.variant = Variant::kNormalized;
  options.dwell_saturation_seconds = 20.0;
  auto graph = BuildPreferenceGraph(cs, options);
  ASSERT_TRUE(graph.ok());
  // 1/t = 1/2 per alternative, then dwell factors: 0.5 and 0.05.
  EXPECT_NEAR(graph->EdgeWeight(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(graph->EdgeWeight(0, 2), 0.05, 1e-12);
}

TEST(DwellCsvTest, RoundTripPreservesDwell) {
  Clickstream cs = MakeDwellStream();
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(cs, &out).ok());
  EXPECT_NE(out.str().find("dwell_seconds"), std::string::npos);
  std::istringstream in(out.str());
  auto read = ReadClickstreamCsv(&in);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->NumSessions(), cs.NumSessions());
  const SessionView s = read->session(0);
  ASSERT_TRUE(s.HasDwell());
  EXPECT_DOUBLE_EQ(s.dwell_seconds[0], 60.0);
  EXPECT_DOUBLE_EQ(s.dwell_seconds[1], 2.0);
}

TEST(DwellCsvTest, DwellFreeStreamsKeepThreeColumns) {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  Session s;
  s.purchase = dict->Intern("x");
  cs.AddSession(std::move(s));
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(cs, &out).ok());
  EXPECT_EQ(out.str().find("dwell_seconds"), std::string::npos);
}

TEST(DwellCsvTest, BadDwellValueRejected) {
  std::istringstream in(
      "session_id,event_type,item_id,dwell_seconds\n"
      "0,click,x,notanumber\n"
      "0,purchase,y,\n");
  EXPECT_TRUE(ReadClickstreamCsv(&in).status().IsInvalidArgument());
}

TEST(DwellStreamingTest, ParityWithInMemoryUnderCorrection) {
  Clickstream cs = MakeDwellStream();
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(cs, &out).ok());
  GraphConstructionOptions options;
  options.dwell_saturation_seconds = 20.0;

  std::istringstream src1(out.str());
  auto reloaded = ReadClickstreamCsv(&src1);
  ASSERT_TRUE(reloaded.ok());
  auto in_memory = BuildPreferenceGraph(*reloaded, options);
  std::istringstream src2(out.str());
  auto streaming = BuildPreferenceGraphStreaming(&src2, options);
  ASSERT_TRUE(in_memory.ok() && streaming.ok());
  ASSERT_EQ(in_memory->NumEdges(), streaming->NumEdges());
  for (NodeId v = 0; v < in_memory->NumNodes(); ++v) {
    AdjacencyView a = in_memory->OutNeighbors(v);
    AdjacencyView b = streaming->OutNeighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.weights[i], b.weights[i]);
    }
  }
}

TEST(DwellGeneratorTest, EmitsDwellWithIntentStructure) {
  Rng rng(5);
  CatalogParams cparams;
  cparams.num_items = 150;
  cparams.num_categories = 10;
  auto catalog = Catalog::Generate(cparams, &rng);
  ASSERT_TRUE(catalog.ok());
  PreferenceModelParams mparams;
  auto model = PreferenceModel::Build(&*catalog, mparams, &rng);
  ASSERT_TRUE(model.ok());
  SessionGeneratorParams sparams;
  sparams.num_sessions = 4000;
  sparams.emit_dwell_times = true;
  sparams.noise_clicks_mean = 2.0;
  auto cs = GenerateSessions(*model, sparams, &rng);
  ASSERT_TRUE(cs.ok());

  // Every click has a dwell; true-alternative clicks dwell longer than
  // noise clicks on average.
  const PreferenceGraph& truth = model->graph();
  double alt_sum = 0.0, noise_sum = 0.0;
  size_t alt_n = 0, noise_n = 0;
  for (const SessionView s : cs->sessions()) {
    ASSERT_EQ(s.dwell_seconds.size(), s.clicks.size());
    if (!s.HasPurchase()) continue;
    for (size_t i = 0; i < s.clicks.size(); ++i) {
      if (s.clicks[i] == s.purchase) continue;
      if (truth.HasEdge(s.purchase, s.clicks[i])) {
        alt_sum += s.dwell_seconds[i];
        ++alt_n;
      } else {
        noise_sum += s.dwell_seconds[i];
        ++noise_n;
      }
    }
  }
  ASSERT_GT(alt_n, 100u);
  ASSERT_GT(noise_n, 100u);
  EXPECT_GT(alt_sum / static_cast<double>(alt_n),
            3.0 * noise_sum / static_cast<double>(noise_n));
}

TEST(DwellCorrectionTest, ImprovesRecoveryUnderNoisyClicks) {
  // The full point of the refinement: with heavy noise clicking, dwell
  // correction recovers a graph whose greedy solution scores better on
  // the TRUE graph than the uncorrected reconstruction's.
  Rng rng(11);
  CatalogParams cparams;
  cparams.num_items = 200;
  cparams.num_categories = 10;
  auto catalog = Catalog::Generate(cparams, &rng);
  ASSERT_TRUE(catalog.ok());
  PreferenceModelParams mparams;
  mparams.popularity_skew = 0.6;
  auto model = PreferenceModel::Build(&*catalog, mparams, &rng);
  ASSERT_TRUE(model.ok());
  const PreferenceGraph& truth = model->graph();

  SessionGeneratorParams sparams;
  sparams.num_sessions = 60'000;
  sparams.emit_dwell_times = true;
  sparams.noise_clicks_mean = 4.0;  // heavy idle browsing
  auto cs = GenerateSessions(*model, sparams, &rng);
  ASSERT_TRUE(cs.ok());

  GraphConstructionOptions uncorrected;
  GraphConstructionOptions corrected;
  corrected.dwell_saturation_seconds = 10.0;
  auto g_plain = BuildPreferenceGraph(*cs, uncorrected);
  auto g_dwell = BuildPreferenceGraph(*cs, corrected);
  ASSERT_TRUE(g_plain.ok() && g_dwell.ok());

  const size_t k = 20;
  auto sol_plain = SolveGreedyLazy(*g_plain, k);
  auto sol_dwell = SolveGreedyLazy(*g_dwell, k);
  ASSERT_TRUE(sol_plain.ok() && sol_dwell.ok());
  double q_plain =
      EvaluateCover(truth, sol_plain->items, Variant::kIndependent).value();
  double q_dwell =
      EvaluateCover(truth, sol_dwell->items, Variant::kIndependent).value();
  EXPECT_GE(q_dwell, q_plain - 1e-9);

  // The correction's unambiguous effect: the total weight mass sitting on
  // SPURIOUS edges (recovered pairs that are not true alternatives) must
  // shrink substantially — those are exactly the short-dwell noise clicks.
  auto spurious_mass = [&truth](const PreferenceGraph& g) {
    double mass = 0.0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      AdjacencyView out = g.OutNeighbors(v);
      for (size_t i = 0; i < out.size(); ++i) {
        if (!truth.HasEdge(v, out.nodes[i])) mass += out.weights[i];
      }
    }
    return mass;
  };
  double spurious_plain = spurious_mass(*g_plain);
  double spurious_dwell = spurious_mass(*g_dwell);
  ASSERT_GT(spurious_plain, 0.0);
  EXPECT_LT(spurious_dwell, 0.6 * spurious_plain);
}

}  // namespace
}  // namespace prefcover
