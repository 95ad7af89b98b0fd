#include "clickstream/variant_selection.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "synth/dataset_profiles.h"
#include "util/random.h"

namespace prefcover {
namespace {

// The measure as first written: one scan of the item's sessions, each
// copying SessionView::Alternatives(), per pair of capped alternatives.
// The two-pass IndependenceMeasure must match it bit for bit.
double ReferenceIndependenceMeasure(const Clickstream& clickstream,
                                    size_t max_alternatives_per_item) {
  // Group purchase sessions by purchased item.
  std::unordered_map<ItemId, std::vector<SessionView>> by_purchase;
  uint64_t total_purchases = 0;
  for (const SessionView session : clickstream.sessions()) {
    if (!session.HasPurchase()) continue;
    by_purchase[session.purchase].push_back(session);
    ++total_purchases;
  }
  if (total_purchases == 0) return 0.0;

  double weighted_sum = 0.0;
  for (const auto& [item, sessions] : by_purchase) {
    // Click frequency per alternative of this item.
    std::unordered_map<ItemId, uint64_t> click_count;
    for (const SessionView& s : sessions) {
      for (ItemId alt : s.Alternatives()) ++click_count[alt];
    }
    if (click_count.size() < 2) continue;  // no pairs -> contributes 0

    // Keep the most clicked alternatives, capped.
    std::vector<std::pair<ItemId, uint64_t>> top(click_count.begin(),
                                                 click_count.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (top.size() > max_alternatives_per_item) {
      top.resize(max_alternatives_per_item);
    }

    // Pairwise NMI over the alternatives' click indicators, conditioned on
    // this item being purchased.
    double pair_sum = 0.0;
    size_t pair_count = 0;
    for (size_t i = 0; i < top.size(); ++i) {
      for (size_t j = i + 1; j < top.size(); ++j) {
        uint64_t counts[2][2] = {{0, 0}, {0, 0}};
        for (const SessionView& s : sessions) {
          std::vector<ItemId> alts = s.Alternatives();
          bool a = std::find(alts.begin(), alts.end(), top[i].first) !=
                   alts.end();
          bool b = std::find(alts.begin(), alts.end(), top[j].first) !=
                   alts.end();
          ++counts[a ? 1 : 0][b ? 1 : 0];
        }
        pair_sum += BinaryNormalizedMutualInformation(counts);
        ++pair_count;
      }
    }
    double item_avg = pair_count == 0 ? 0.0
                                      : pair_sum /
                                            static_cast<double>(pair_count);
    // Purchase-share weighting = node-weight weighting of the paper.
    weighted_sum += item_avg * static_cast<double>(sessions.size()) /
                    static_cast<double>(total_purchases);
  }
  return weighted_sum;
}

constexpr size_t kCaps[] = {1, 2, 12, 40};

// Requires IndependenceMeasure to equal the reference bit for bit at every
// cap in kCaps.
void ExpectMatchesReference(const Clickstream& cs, const std::string& label) {
  for (size_t cap : kCaps) {
    const double expected = ReferenceIndependenceMeasure(cs, cap);
    const double actual = IndependenceMeasure(cs, cap);
    EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
        << label << " cap " << cap << ": expected " << expected << ", got "
        << actual;
  }
}

// A stream over `num_items` interned items; each session is
// (purchase or -1, clicks).
Clickstream MakeStream(
    int num_items,
    const std::vector<std::pair<int, std::vector<int>>>& sessions) {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  for (int i = 0; i < num_items; ++i) dict->Intern("item" + std::to_string(i));
  for (const auto& [purchase, clicks] : sessions) {
    Session s;
    if (purchase >= 0) s.purchase = static_cast<ItemId>(purchase);
    for (int click : clicks) s.clicks.push_back(static_cast<ItemId>(click));
    cs.AddSession(std::move(s));
  }
  return cs;
}

// ComputeStats counts each purchase session's distinct alternatives in
// place; it must agree with the count taken through
// SessionView::Alternatives().size().
void ExpectStatsMatchAlternatives(const Clickstream& cs,
                                  const std::string& label) {
  size_t purchases = 0;
  size_t alternative_total = 0;
  size_t at_most_one = 0;
  for (const SessionView session : cs.sessions()) {
    if (!session.HasPurchase()) continue;
    ++purchases;
    const size_t alts = session.Alternatives().size();
    alternative_total += alts;
    if (alts <= 1) ++at_most_one;
  }
  const ClickstreamStats stats = cs.ComputeStats();
  ASSERT_EQ(stats.num_purchases, purchases) << label;
  ASSERT_GT(purchases, 0u) << label;
  EXPECT_EQ(stats.mean_alternatives, static_cast<double>(alternative_total) /
                                         static_cast<double>(purchases))
      << label;
  EXPECT_EQ(stats.at_most_one_alternative_share,
            static_cast<double>(at_most_one) / static_cast<double>(purchases))
      << label;
  EXPECT_EQ(NormalizedFitShare(cs), stats.at_most_one_alternative_share)
      << label;
}

// Builds a clickstream of `sessions` purchases of one item, where each
// session's alternative clicks come from `pattern(session_index)`.
template <typename PatternFn>
Clickstream MakeSingleItemStream(int sessions, PatternFn pattern) {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  ItemId p = dict->Intern("purchased");
  ItemId a = dict->Intern("alt-a");
  ItemId b = dict->Intern("alt-b");
  for (int i = 0; i < sessions; ++i) {
    Session s;
    s.purchase = p;
    auto [click_a, click_b] = pattern(i);
    if (click_a) s.clicks.push_back(a);
    if (click_b) s.clicks.push_back(b);
    cs.AddSession(std::move(s));
  }
  return cs;
}

TEST(BinaryNmiTest, IndependentVariablesScoreZero) {
  // Perfectly independent 2x2 table: joint = product of marginals.
  uint64_t counts[2][2] = {{40, 40}, {10, 10}};
  EXPECT_NEAR(BinaryNormalizedMutualInformation(counts), 0.0, 1e-9);
}

TEST(BinaryNmiTest, IdenticalVariablesScoreOne) {
  uint64_t counts[2][2] = {{50, 0}, {0, 50}};
  EXPECT_NEAR(BinaryNormalizedMutualInformation(counts), 1.0, 1e-9);
}

TEST(BinaryNmiTest, AntiCorrelatedAlsoScoresOne) {
  // Mutual information is symmetric under relabeling.
  uint64_t counts[2][2] = {{0, 50}, {50, 0}};
  EXPECT_NEAR(BinaryNormalizedMutualInformation(counts), 1.0, 1e-9);
}

TEST(BinaryNmiTest, ConstantVariableScoresZero) {
  uint64_t counts[2][2] = {{0, 0}, {30, 70}};  // X always 1
  EXPECT_DOUBLE_EQ(BinaryNormalizedMutualInformation(counts), 0.0);
}

TEST(BinaryNmiTest, EmptyTableScoresZero) {
  uint64_t counts[2][2] = {{0, 0}, {0, 0}};
  EXPECT_DOUBLE_EQ(BinaryNormalizedMutualInformation(counts), 0.0);
}

TEST(BinaryNmiTest, PartialDependenceBetweenZeroAndOne) {
  uint64_t counts[2][2] = {{40, 10}, {10, 40}};
  double nmi = BinaryNormalizedMutualInformation(counts);
  EXPECT_GT(nmi, 0.05);
  EXPECT_LT(nmi, 0.95);
}

TEST(NormalizedFitTest, AllSingleAlternativeSessionsFitPerfectly) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    return std::make_pair(i % 2 == 0, i % 2 != 0);
  });
  EXPECT_DOUBLE_EQ(NormalizedFitShare(cs), 1.0);
}

TEST(NormalizedFitTest, MultiAlternativeSessionsLowerTheShare) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    // 30% of sessions click both alternatives.
    return std::make_pair(true, i % 10 < 3);
  });
  EXPECT_NEAR(NormalizedFitShare(cs), 0.7, 1e-12);
}

TEST(IndependenceMeasureTest, MutuallyExclusiveClicksAreDependent) {
  // Exactly one of {a, b} clicked per session: strong negative dependence.
  Clickstream cs = MakeSingleItemStream(200, [](int i) {
    return std::make_pair(i % 2 == 0, i % 2 != 0);
  });
  EXPECT_GT(IndependenceMeasure(cs), 0.5);
}

TEST(IndependenceMeasureTest, IndependentClicksScoreLow) {
  // a clicked on even thirds, b on even halves: near-independent bits.
  Rng rng(5);
  Clickstream cs = MakeSingleItemStream(2000, [&rng](int) {
    return std::make_pair(rng.NextBernoulli(0.5), rng.NextBernoulli(0.3));
  });
  EXPECT_LT(IndependenceMeasure(cs), 0.05);
}

TEST(IndependenceMeasureTest, SingleAlternativeItemContributesZero) {
  Clickstream cs = MakeSingleItemStream(50, [](int) {
    return std::make_pair(true, false);  // only alt-a ever clicked
  });
  EXPECT_DOUBLE_EQ(IndependenceMeasure(cs), 0.0);
}

TEST(IndependenceMeasureTest, EmptyClickstreamScoresZero) {
  Clickstream cs;
  EXPECT_DOUBLE_EQ(IndependenceMeasure(cs), 0.0);
}

TEST(IndependenceMeasureReferenceTest, MatchesOnEveryProfile) {
  for (DatasetProfile profile :
       {DatasetProfile::kPE, DatasetProfile::kPF, DatasetProfile::kPM,
        DatasetProfile::kYC}) {
    for (uint64_t seed : {3u, 8u}) {
      auto cs = GenerateProfileClickstream(profile, 0.0005, seed);
      ASSERT_TRUE(cs.ok());
      ExpectMatchesReference(*cs, std::string(GetProfileSpec(profile).name) +
                                      " seed " + std::to_string(seed));
    }
  }
}

TEST(IndependenceMeasureReferenceTest, DuplicateClickCountsOnce) {
  // Item 0 is bought; sessions click alternative 1 twice.
  Clickstream cs = MakeStream(4, {{0, {1, 1, 2}},
                                  {0, {1, 2, 1, 3}},
                                  {0, {3, 3}},
                                  {0, {2}},
                                  {0, {1, 3, 1}}});
  ExpectMatchesReference(cs, "duplicate clicks");
}

TEST(IndependenceMeasureReferenceTest, PurchaseAmongItsOwnClicks) {
  Clickstream cs = MakeStream(4, {{0, {0, 1, 2}},
                                  {0, {1, 0}},
                                  {0, {0, 2, 3, 0}},
                                  {1, {1, 0, 2}},
                                  {1, {2, 1}}});
  ExpectMatchesReference(cs, "purchase clicked");
}

TEST(ComputeStatsReferenceTest, MatchesAlternativesOnEveryProfile) {
  for (DatasetProfile profile :
       {DatasetProfile::kPE, DatasetProfile::kPF, DatasetProfile::kPM,
        DatasetProfile::kYC}) {
    for (uint64_t seed : {3u, 8u}) {
      auto cs = GenerateProfileClickstream(profile, 0.0005, seed);
      ASSERT_TRUE(cs.ok());
      ExpectStatsMatchAlternatives(
          *cs, std::string(GetProfileSpec(profile).name) + " seed " +
                   std::to_string(seed));
    }
  }
}

TEST(ComputeStatsReferenceTest, RepeatedClicksAndPurchaseAmongItsClicks) {
  // Sessions that click one alternative several times, click their own
  // purchase (once or more), or both; one consecutive pair shares items.
  Clickstream cs = MakeStream(4, {{0, {1, 1}},
                                  {0, {1, 2, 1, 2}},
                                  {0, {0, 1}},
                                  {1, {1, 1, 0}},
                                  {2, {2, 0, 2, 3, 0}},
                                  {-1, {1, 1, 2}},
                                  {3, {}},
                                  {3, {3, 3}}});
  ExpectStatsMatchAlternatives(cs, "repeated clicks");
  const ClickstreamStats stats = cs.ComputeStats();
  // Alternatives per purchase session: 1, 2, 1, 1, 2, 0, 0.
  EXPECT_EQ(stats.num_purchases, 7u);
  EXPECT_DOUBLE_EQ(stats.mean_alternatives, 7.0 / 7.0);
  EXPECT_DOUBLE_EQ(stats.at_most_one_alternative_share, 5.0 / 7.0);
}

TEST(IndependenceMeasureReferenceTest, TiedCountsBeyondTheCap) {
  // 50 alternatives of item 0 in tied groups: 1..10 are clicked by three
  // sessions each, 11..50 by two, in varied company, so the cap cuts
  // through a tie and the smaller ids must be kept.
  std::vector<std::pair<int, std::vector<int>>> sessions;
  for (int alt = 1; alt <= 50; ++alt) {
    const int times = alt <= 10 ? 3 : 2;
    for (int t = 0; t < times; ++t) {
      sessions.push_back({0, {alt, 1 + (alt * 7 + t * 13) % 50}});
    }
  }
  Clickstream cs = MakeStream(51, sessions);
  ExpectMatchesReference(cs, "ties");
}

TEST(IndependenceMeasureReferenceTest, BrowseOnlySessionsAreIgnored) {
  Clickstream cs = MakeStream(5, {{-1, {1, 2, 3}},
                                  {0, {1, 2}},
                                  {-1, {2, 4}},
                                  {0, {2, 3}},
                                  {-1, {}},
                                  {0, {1, 4}}});
  ExpectMatchesReference(cs, "browse-only");
  Clickstream browse_only = MakeStream(3, {{-1, {0, 1}}, {-1, {2}}});
  ExpectMatchesReference(browse_only, "only browse-only");
}

TEST(IndependenceMeasureReferenceTest, ItemWithNoOtherClicks) {
  // Item 2's sessions click nothing or only item 2 itself.
  Clickstream cs = MakeStream(4, {{2, {}},
                                  {2, {2}},
                                  {0, {1, 3}},
                                  {2, {2, 2}},
                                  {0, {1}},
                                  {0, {3}}});
  ExpectMatchesReference(cs, "no other clicks");
}

TEST(IndependenceMeasureReferenceTest, MatchesOnRandomStreams) {
  // Few items, so ties, repeats, self-clicks and browse-only sessions are
  // all common.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const uint64_t num_items = 3 + rng.NextBounded(40);
    std::vector<std::pair<int, std::vector<int>>> sessions(
        20 + rng.NextBounded(200));
    for (auto& [purchase, clicks] : sessions) {
      purchase = rng.NextBernoulli(0.2)
                     ? -1
                     : static_cast<int>(rng.NextBounded(num_items / 3 + 1));
      clicks.resize(rng.NextBounded(8));
      for (int& click : clicks) {
        click = static_cast<int>(rng.NextBounded(num_items));
      }
    }
    ExpectMatchesReference(MakeStream(static_cast<int>(num_items), sessions),
                           "seed " + std::to_string(seed));
  }
}

TEST(RecommendVariantTest, MatchesReferenceOnEveryProfile) {
  const VariantSelectionOptions options;
  for (DatasetProfile profile :
       {DatasetProfile::kPE, DatasetProfile::kPF, DatasetProfile::kPM,
        DatasetProfile::kYC}) {
    for (uint64_t seed : {3u, 8u}) {
      auto cs = GenerateProfileClickstream(profile, 0.0005, seed);
      ASSERT_TRUE(cs.ok());
      const double independence = ReferenceIndependenceMeasure(
          *cs, options.max_alternatives_per_item);
      const double normalized_fit = NormalizedFitShare(*cs);
      const bool normalized_fits =
          normalized_fit >= options.normalized_fit_threshold;
      const VariantRecommendation rec = RecommendVariant(*cs, options);
      EXPECT_EQ(rec.variant, normalized_fits ? Variant::kNormalized
                                             : Variant::kIndependent);
      EXPECT_EQ(rec.normalized_fits, normalized_fits);
      EXPECT_EQ(rec.independent_fits,
                independence < options.independence_threshold);
      EXPECT_EQ(std::memcmp(&rec.independence, &independence,
                            sizeof(double)),
                0);
    }
  }
}

TEST(RecommendVariantTest, NormalizedShapeRecommendsNormalized) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    return std::make_pair(i % 2 == 0, false);
  });
  VariantRecommendation rec = RecommendVariant(cs);
  EXPECT_EQ(rec.variant, Variant::kNormalized);
  EXPECT_TRUE(rec.normalized_fits);
  EXPECT_FALSE(rec.ToString().empty());
}

TEST(RecommendVariantTest, IndependentShapeRecommendsIndependent) {
  Rng rng(9);
  Clickstream cs = MakeSingleItemStream(3000, [&rng](int) {
    // Both alternatives clicked independently and frequently: >10% of
    // sessions have 2 alternatives, so Normalized does not fit; NMI ~ 0,
    // so Independent does.
    return std::make_pair(rng.NextBernoulli(0.6), rng.NextBernoulli(0.5));
  });
  VariantRecommendation rec = RecommendVariant(cs);
  EXPECT_EQ(rec.variant, Variant::kIndependent);
  EXPECT_FALSE(rec.normalized_fits);
  EXPECT_TRUE(rec.independent_fits);
}

TEST(RecommendVariantTest, NeitherFitsFlagsBothFalse) {
  // Mutually exclusive two-alternative clicks with many two-click
  // sessions: fails the 90% rule AND strongly dependent.
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    if (i % 5 < 2) return std::make_pair(true, true);  // 40% double
    return std::make_pair(i % 2 == 0, i % 2 != 0);
  });
  VariantRecommendation rec = RecommendVariant(cs);
  EXPECT_FALSE(rec.normalized_fits);
  EXPECT_FALSE(rec.independent_fits);
  // Defaults to Independent per the implementation contract.
  EXPECT_EQ(rec.variant, Variant::kIndependent);
}

TEST(RecommendVariantTest, CustomThresholds) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    return std::make_pair(true, i % 10 < 3);  // 70% single-alternative
  });
  VariantSelectionOptions options;
  options.normalized_fit_threshold = 0.6;  // lenient
  VariantRecommendation rec = RecommendVariant(cs, options);
  EXPECT_TRUE(rec.normalized_fits);
  EXPECT_EQ(rec.variant, Variant::kNormalized);
}

}  // namespace
}  // namespace prefcover
