#include "clickstream/session.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clickstream/clickstream.h"

namespace prefcover {
namespace {

TEST(SessionTest, AlternativesExcludePurchase) {
  Session s;
  s.clicks = {3, 1, 3, 2, 1};
  s.purchase = 1;
  EXPECT_EQ(SessionView(s).Alternatives(), (std::vector<ItemId>{3, 2}));
}

TEST(SessionTest, AlternativesDedupePreservingOrder) {
  Session s;
  s.clicks = {5, 4, 5, 4, 6};
  s.purchase = 9;
  EXPECT_EQ(SessionView(s).Alternatives(), (std::vector<ItemId>{5, 4, 6}));
}

TEST(SessionTest, NoPurchaseSession) {
  Session s;
  s.clicks = {1, 2};
  EXPECT_FALSE(s.HasPurchase());
  EXPECT_EQ(SessionView(s).Alternatives(), (std::vector<ItemId>{1, 2}));
}

TEST(SessionTest, EmptySession) {
  Session s;
  EXPECT_FALSE(s.HasPurchase());
  EXPECT_TRUE(SessionView(s).Alternatives().empty());
}

TEST(ItemDictionaryTest, InternAssignsDenseIds) {
  ItemDictionary dict;
  EXPECT_EQ(dict.Intern("iphone-silver"), 0u);
  EXPECT_EQ(dict.Intern("iphone-gold"), 1u);
  EXPECT_EQ(dict.Intern("iphone-silver"), 0u);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(0), "iphone-silver");
  EXPECT_EQ(dict.Name(1), "iphone-gold");
}

TEST(ItemDictionaryTest, LookupUnknownReturnsInvalid) {
  ItemDictionary dict;
  dict.Intern("known");
  EXPECT_EQ(dict.Lookup("known"), 0u);
  EXPECT_EQ(dict.Lookup("unknown"), kInvalidItem);
}

TEST(ItemDictionaryTest, IdsStayFirstSeenAcrossTableGrowth) {
  // 200K names double the table from 1,024 slots nine times; every id
  // stays the order of first sight, and repeats intern to it.
  constexpr ItemId kNames = 200'000;
  auto name = [](ItemId i) { return "sku-" + std::to_string(i * 7919u); };
  ItemDictionary dict;
  for (ItemId i = 0; i < kNames; ++i) {
    ASSERT_EQ(dict.Intern(name(i)), i);
    if (i % 3 == 0) {
      ASSERT_EQ(dict.Intern(name(i / 2)), i / 2);
    }
  }
  ASSERT_EQ(dict.size(), size_t{kNames});
  for (ItemId i = 0; i < kNames; ++i) {
    ASSERT_EQ(dict.Lookup(name(i)), i);
    ASSERT_EQ(dict.Name(i), name(i));
  }
  EXPECT_EQ(dict.Intern(name(kNames - 1)), kNames - 1);
  EXPECT_EQ(dict.size(), size_t{kNames});
}

TEST(ItemDictionaryTest, LookupOfUnknownNamesAndOnAnEmptyDictionary) {
  ItemDictionary empty;
  EXPECT_EQ(empty.Lookup("anything"), kInvalidItem);
  EXPECT_EQ(empty.Lookup(""), kInvalidItem);
  EXPECT_EQ(empty.size(), 0u);

  ItemDictionary dict;
  for (int i = 0; i < 5000; ++i) dict.Intern("item" + std::to_string(i));
  EXPECT_EQ(dict.Lookup("item5000"), kInvalidItem);
  EXPECT_EQ(dict.Lookup("item"), kInvalidItem);
  EXPECT_EQ(dict.Lookup(""), kInvalidItem);
  EXPECT_EQ(dict.Lookup("item4999"), 4999u);
  EXPECT_EQ(dict.size(), 5000u);  // Lookup interns nothing
}

TEST(ItemDictionaryTest, NamesWithDelimitersQuotesAndNulBytes) {
  using namespace std::string_literals;
  const std::vector<std::string> names = {
      "a,b", "\"quoted\"", "a\0b"s, "a\0c"s, "a", "\0"s, "", "line\nbreak",
      "a\0"s};
  ItemDictionary dict;
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(dict.Intern(names[i]), i) << i;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(dict.Lookup(names[i]), i) << i;
    EXPECT_EQ(dict.Name(static_cast<ItemId>(i)), names[i]) << i;
  }
  EXPECT_EQ(dict.Lookup("a\0d"s), kInvalidItem);
  EXPECT_EQ(dict.size(), names.size());
}

TEST(ClickstreamTest, StatsOnMixedSessions) {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  ItemId a = dict->Intern("a");
  ItemId b = dict->Intern("b");
  ItemId c = dict->Intern("c");

  // Purchase session with 1 alternative.
  Session s1;
  s1.clicks = {a, b};
  s1.purchase = a;
  cs.AddSession(s1);
  // Purchase session with 2 alternatives.
  Session s2;
  s2.clicks = {a, b, c};
  s2.purchase = a;
  cs.AddSession(s2);
  // Browse-only session.
  Session s3;
  s3.clicks = {c};
  cs.AddSession(s3);
  // Purchase with no alternatives.
  Session s4;
  s4.purchase = b;
  cs.AddSession(s4);

  ClickstreamStats stats = cs.ComputeStats();
  EXPECT_EQ(stats.num_sessions, 4u);
  EXPECT_EQ(stats.num_purchases, 3u);
  EXPECT_EQ(stats.num_items, 3u);
  EXPECT_EQ(stats.num_clicks, 6u);
  EXPECT_NEAR(stats.mean_alternatives, (1.0 + 2.0 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(stats.at_most_one_alternative_share, 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ClickstreamTest, EmptyStats) {
  Clickstream cs;
  ClickstreamStats stats = cs.ComputeStats();
  EXPECT_EQ(stats.num_sessions, 0u);
  EXPECT_EQ(stats.num_purchases, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_alternatives, 0.0);
}

}  // namespace
}  // namespace prefcover
