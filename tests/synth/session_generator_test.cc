#include "synth/session_generator.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace prefcover {
namespace {

PreferenceModel MakeModel(Rng* rng, Catalog* catalog_out,
                          bool normalized = false) {
  CatalogParams cparams;
  cparams.num_items = 200;
  cparams.num_categories = 10;
  auto catalog = Catalog::Generate(cparams, rng);
  EXPECT_TRUE(catalog.ok());
  *catalog_out = std::move(catalog).value();
  PreferenceModelParams mparams;
  mparams.normalized = normalized;
  auto model = PreferenceModel::Build(catalog_out, mparams, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(SessionGeneratorTest, GeneratesRequestedSessionCount) {
  Rng rng(1);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 5000;
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(cs->NumSessions(), 5000u);
  // Every session buys (browse share 0 by default).
  EXPECT_EQ(cs->ComputeStats().num_purchases, 5000u);
}

TEST(SessionGeneratorTest, ItemIdsMatchModelNodeIds) {
  Rng rng(2);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 100;
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok());
  ASSERT_EQ(cs->NumItems(), model.graph().NumNodes());
  for (uint32_t i = 0; i < cs->NumItems(); ++i) {
    EXPECT_EQ(cs->dictionary().Name(i), catalog.ItemName(i));
  }
}

TEST(SessionGeneratorTest, BrowseOnlyShareRespected) {
  Rng rng(3);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 20000;
  params.browse_only_share = 0.97;  // YC-like
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok());
  ClickstreamStats stats = cs->ComputeStats();
  double purchase_share = static_cast<double>(stats.num_purchases) /
                          static_cast<double>(stats.num_sessions);
  EXPECT_NEAR(purchase_share, 0.03, 0.01);
  // Browse sessions still click.
  EXPECT_GT(stats.num_clicks, stats.num_purchases);
}

TEST(SessionGeneratorTest, PurchaseFrequencyTracksPopularity) {
  Rng rng(4);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 60000;
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok());
  std::vector<uint64_t> counts(model.graph().NumNodes(), 0);
  for (const SessionView s : cs->sessions()) {
    if (s.HasPurchase()) ++counts[s.purchase];
  }
  // Compare empirical shares against model weights for heavy items.
  for (NodeId v = 0; v < model.graph().NumNodes(); ++v) {
    double w = model.graph().NodeWeight(v);
    if (w < 0.01) continue;
    double share = static_cast<double>(counts[v]) / 60000.0;
    EXPECT_NEAR(share, w, 0.35 * w + 0.002) << "node " << v;
  }
}

TEST(SessionGeneratorTest, SingleAlternativeBehaviorClicksAtMostOne) {
  Rng rng(5);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog, /*normalized=*/true);
  SessionGeneratorParams params;
  params.num_sessions = 5000;
  params.behavior =
      SessionGeneratorParams::ClickBehavior::kSingleAlternative;
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok());
  for (const SessionView s : cs->sessions()) {
    EXPECT_LE(s.Alternatives().size(), 1u);
  }
  // The Normalized fit measure must see this as a perfect fit.
  EXPECT_DOUBLE_EQ(cs->ComputeStats().at_most_one_alternative_share, 1.0);
}

TEST(SessionGeneratorTest, IndependentBehaviorProducesMultiClickSessions) {
  Rng rng(6);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 5000;
  params.behavior = SessionGeneratorParams::ClickBehavior::kIndependent;
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok());
  size_t multi = 0;
  for (const SessionView s : cs->sessions()) {
    if (s.Alternatives().size() > 1) ++multi;
  }
  EXPECT_GT(multi, 100u);  // plenty of multi-alternative sessions
}

TEST(SessionGeneratorTest, ClickPurchaseShareRespected) {
  Rng rng(7);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 10000;
  params.click_purchase_share = 1.0;
  auto cs = GenerateSessions(model, params, &rng);
  ASSERT_TRUE(cs.ok());
  for (const SessionView s : cs->sessions()) {
    ASSERT_TRUE(s.HasPurchase());
    EXPECT_EQ(s.clicks.empty() ? kInvalidItem : s.clicks[0], s.purchase);
  }
}

TEST(SessionGeneratorTest, InvalidBrowseShareRejected) {
  Rng rng(8);
  Catalog catalog;
  PreferenceModel model = MakeModel(&rng, &catalog);
  SessionGeneratorParams params;
  params.browse_only_share = 1.0;
  EXPECT_FALSE(GenerateSessions(model, params, &rng).ok());
  params.browse_only_share = -0.5;
  EXPECT_FALSE(GenerateSessions(model, params, &rng).ok());
}

TEST(SessionGeneratorTest, DeterministicInSeed) {
  Rng setup(9);
  Catalog catalog;
  PreferenceModel model = MakeModel(&setup, &catalog);
  SessionGeneratorParams params;
  params.num_sessions = 500;
  Rng rng1(42), rng2(42);
  auto a = GenerateSessions(model, params, &rng1);
  auto b = GenerateSessions(model, params, &rng2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->NumSessions(), b->NumSessions());
  for (size_t i = 0; i < a->NumSessions(); ++i) {
    EXPECT_EQ(a->session(i).purchase, b->session(i).purchase);
    EXPECT_TRUE(
        std::ranges::equal(a->session(i).clicks, b->session(i).clicks));
  }
}

}  // namespace
}  // namespace prefcover
