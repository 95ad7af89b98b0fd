#include "clickstream/clickstream_io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace prefcover {
namespace {

Clickstream MakeSample() {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  ItemId silver = dict->Intern("iphone-silver");
  ItemId gold = dict->Intern("iphone-gold");
  Session s1;
  s1.clicks = {silver, gold};
  s1.purchase = silver;
  cs.AddSession(s1);
  Session s2;
  s2.clicks = {gold};
  cs.AddSession(s2);  // browse-only
  Session s3;
  s3.purchase = gold;
  cs.AddSession(s3);  // purchase without clicks
  return cs;
}

// Which sessions of SeededSessions carry dwell values.
enum class DwellMix { kNone, kEvery, kSome };

// 400 seeded sessions over 40 items (three names need CSV quoting):
// browse-only, purchase-only and buying sessions, a share of clicks
// repeated, and dwell values (a tenth unknown) on no session, every
// session or every third one, the first of which follows two without.
std::vector<Session> SeededSessions(uint64_t seed, DwellMix mix,
                                    Clickstream* cs) {
  ItemDictionary* dict = cs->mutable_dictionary();
  for (int i = 0; i < 37; ++i) dict->Intern("item" + std::to_string(i));
  dict->Intern("a,b");
  dict->Intern("say \"hi\"");
  dict->Intern("two\nlines");
  const uint64_t items = dict->size();
  Rng rng(seed);
  std::vector<Session> sessions(400);
  for (size_t s = 0; s < sessions.size(); ++s) {
    Session& session = sessions[s];
    const uint64_t kind = rng.NextBounded(4);  // 0 browse, 1 purchase only
    if (kind != 1) {
      const uint64_t clicks = 1 + rng.NextBounded(6);
      for (uint64_t c = 0; c < clicks; ++c) {
        session.clicks.push_back(static_cast<ItemId>(rng.NextBounded(items)));
        if (rng.NextBernoulli(0.3)) {
          session.clicks.push_back(session.clicks[rng.NextBounded(c + 1)]);
        }
      }
    }
    if (kind != 0) {
      session.purchase = static_cast<ItemId>(rng.NextBounded(items));
    }
    if (mix == DwellMix::kEvery || (mix == DwellMix::kSome && s % 3 == 2)) {
      for (size_t c = 0; c < session.clicks.size(); ++c) {
        session.dwell_seconds.push_back(
            rng.NextBernoulli(0.1) ? -1.0 : rng.NextDouble(0.0, 60.0));
      }
    }
  }
  return sessions;
}

// FNV-1a over the bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(ClickstreamIoTest, WriteProducesExpectedCsv) {
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(MakeSample(), &out).ok());
  EXPECT_EQ(out.str(),
            "session_id,event_type,item_id\n"
            "0,click,iphone-silver\n"
            "0,click,iphone-gold\n"
            "0,purchase,iphone-silver\n"
            "1,click,iphone-gold\n"
            "2,purchase,iphone-gold\n");
}

TEST(ClickstreamIoTest, RoundTrip) {
  Clickstream original = MakeSample();
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(original, &out).ok());
  std::istringstream in(out.str());
  auto read = ReadClickstreamCsv(&in);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->NumSessions(), original.NumSessions());
  for (size_t i = 0; i < original.NumSessions(); ++i) {
    const SessionView a = original.session(i);
    const SessionView b = read->session(i);
    // Dictionaries may assign different ids; compare through names.
    ASSERT_EQ(a.clicks.size(), b.clicks.size());
    for (size_t c = 0; c < a.clicks.size(); ++c) {
      EXPECT_EQ(original.dictionary().Name(a.clicks[c]),
                read->dictionary().Name(b.clicks[c]));
    }
    EXPECT_EQ(a.HasPurchase(), b.HasPurchase());
    if (a.HasPurchase()) {
      EXPECT_EQ(original.dictionary().Name(a.purchase),
                read->dictionary().Name(b.purchase));
    }
  }
}

TEST(ClickstreamIoTest, RejectsBadHeader) {
  std::istringstream in("wrong,header,row\n0,click,x\n");
  EXPECT_TRUE(ReadClickstreamCsv(&in).status().IsInvalidArgument());
}

TEST(ClickstreamIoTest, RejectsWrongFieldCount) {
  std::istringstream in("session_id,event_type,item_id\n0,click\n");
  EXPECT_TRUE(ReadClickstreamCsv(&in).status().IsInvalidArgument());
}

TEST(ClickstreamIoTest, RejectsUnknownEventType) {
  std::istringstream in("session_id,event_type,item_id\n0,hover,x\n");
  EXPECT_TRUE(ReadClickstreamCsv(&in).status().IsInvalidArgument());
}

TEST(ClickstreamIoTest, RejectsSecondPurchaseInSession) {
  std::istringstream in(
      "session_id,event_type,item_id\n"
      "0,purchase,x\n"
      "0,purchase,y\n");
  EXPECT_TRUE(ReadClickstreamCsv(&in).status().IsInvalidArgument());
}

TEST(ClickstreamIoTest, RejectsInterleavedSessions) {
  std::istringstream in(
      "session_id,event_type,item_id\n"
      "0,click,x\n"
      "1,click,y\n"
      "0,purchase,x\n");
  EXPECT_TRUE(ReadClickstreamCsv(&in).status().IsInvalidArgument());
}

TEST(ClickstreamIoTest, RejectsReappearingLongSessionId) {
  // Ids longer than the short-string buffer live in the reader's arena.
  const std::string sid = "session-id-longer-than-sso-" + std::string(40, 'x');
  std::istringstream in("session_id,event_type,item_id\n" + sid +
                        ",click,x\n1,click,y\n" + sid + ",purchase,x\n");
  auto read = ReadClickstreamCsv(&in);
  ASSERT_TRUE(read.status().IsInvalidArgument());
  EXPECT_EQ(read.status().message(),
            "session '" + sid +
                "' reappears after other sessions; input must be grouped by "
                "session");
}

TEST(ClickstreamIoTest, BlankLineNamesItsRecord) {
  std::istringstream in(
      "session_id,event_type,item_id\n"
      "0,click,x\n"
      "\n"
      "0,purchase,x\n");
  auto read = ReadClickstreamCsv(&in);
  ASSERT_TRUE(read.status().IsInvalidArgument());
  EXPECT_EQ(read.status().message(),
            "clickstream record 3 has the wrong field count");
}

TEST(ClickstreamIoTest, EmptyInputYieldsEmptyClickstream) {
  std::istringstream in("session_id,event_type,item_id\n");
  auto read = ReadClickstreamCsv(&in);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->NumSessions(), 0u);
}

TEST(ClickstreamIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/clickstream_io_test.csv";
  ASSERT_TRUE(WriteClickstreamCsvFile(MakeSample(), path).ok());
  auto read = ReadClickstreamCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->NumSessions(), 3u);
}

// One session fits in the file stream's buffer, so the write fails only
// at the flush before returning, which must still report it.
TEST(ClickstreamIoTest, WriteToAFullDeviceIsIOError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Clickstream cs;
  Session s;
  s.clicks = {cs.mutable_dictionary()->Intern("b")};
  s.purchase = cs.mutable_dictionary()->Intern("a");
  cs.AddSession(s);
  const Status st = WriteClickstreamCsvFile(cs, "/dev/full");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(ClickstreamIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadClickstreamCsvFile("/no/such/file.csv")
                  .status()
                  .IsIOError());
}

TEST(ClickstreamIoTest, ItemNamesWithCommasSurviveQuoting) {
  Clickstream cs;
  ItemId item = cs.mutable_dictionary()->Intern("TV, 55\", LG");
  Session s;
  s.purchase = item;
  cs.AddSession(s);
  std::ostringstream out;
  ASSERT_TRUE(WriteClickstreamCsv(cs, &out).ok());
  std::istringstream in(out.str());
  auto read = ReadClickstreamCsv(&in);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->dictionary().Name(read->session(0).purchase),
            "TV, 55\", LG");
}

// The CSR holds what was added: every view equals its session, through
// session(i) and through the sessions() range alike (in a clickstream with
// dwell, a session added without it reads as unknown dwell on each click),
// and the CSV written from it has the bytes the per-session vectors it
// replaced wrote (FNV-1a digests recorded from that version with these
// same sessions).
TEST(ClickstreamCsrTest, ViewsEqualTheAddedSessionsAndCsvBytesArePinned) {
  struct Case {
    uint64_t seed;
    DwellMix mix;
    uint64_t csv_digest;
  };
  const Case cases[] = {
      {11, DwellMix::kNone, 0xA4F510A21F656187ULL},
      {11, DwellMix::kEvery, 0x8AC7D00C7A35B5D9ULL},
      {11, DwellMix::kSome, 0xB86F777E70D8B8A4ULL},
      {12, DwellMix::kNone, 0xC901289970284452ULL},
      {12, DwellMix::kEvery, 0x8CA23A7DFEFEA787ULL},
      {12, DwellMix::kSome, 0x9FDF7D420E8732DEULL},
      {13, DwellMix::kNone, 0xDA71BA01BE7E16BFULL},
      {13, DwellMix::kEvery, 0xE16DEE26AEC4BE4AULL},
      {13, DwellMix::kSome, 0xD6A2F3BE40B923CAULL},
  };
  for (const Case& c : cases) {
    const std::string label = "seed " + std::to_string(c.seed) + " mix " +
                              std::to_string(static_cast<int>(c.mix));
    Clickstream cs;
    const std::vector<Session> sessions = SeededSessions(c.seed, c.mix, &cs);
    for (const Session& session : sessions) cs.AddSession(session);
    ASSERT_EQ(cs.NumSessions(), sessions.size()) << label;
    const bool any_dwell =
        std::ranges::any_of(sessions, &Session::HasDwell);
    size_t i = 0;
    for (const SessionView view : cs.sessions()) {
      const SessionView by_index = cs.session(i);
      const Session& added = sessions[i];
      EXPECT_TRUE(std::ranges::equal(view.clicks, added.clicks))
          << label << " session " << i;
      std::vector<double> dwell = added.dwell_seconds;
      if (any_dwell && !added.HasDwell()) dwell.assign(added.clicks.size(), -1);
      EXPECT_TRUE(std::ranges::equal(view.dwell_seconds, dwell))
          << label << " session " << i;
      EXPECT_EQ(view.purchase, added.purchase) << label << " session " << i;
      EXPECT_EQ(by_index.clicks.data(), view.clicks.data()) << label;
      EXPECT_EQ(by_index.dwell_seconds.data(), view.dwell_seconds.data())
          << label;
      ++i;
    }
    EXPECT_EQ(i, sessions.size()) << label;
    std::ostringstream out;
    ASSERT_TRUE(WriteClickstreamCsv(cs, &out).ok()) << label;
    EXPECT_EQ(Fnv1a(out.str()), c.csv_digest) << label;
  }
}

}  // namespace
}  // namespace prefcover
