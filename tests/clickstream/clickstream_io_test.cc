#include "clickstream/clickstream_io.h"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

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
    const Session& a = original.sessions()[i];
    const Session& b = read->sessions()[i];
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
  EXPECT_EQ(read->dictionary().Name(read->sessions()[0].purchase),
            "TV, 55\", LG");
}

}  // namespace
}  // namespace prefcover
