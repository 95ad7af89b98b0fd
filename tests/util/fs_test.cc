#include "util/fs.h"

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace prefcover {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/fs_test_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(WriteFileAtomicTest, CreatesFileWithExactContents) {
  std::string path = TempPath("create.bin");
  std::string payload("binary\0payload\xff", 15);
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  EXPECT_EQ(Slurp(path), payload);
}

TEST(WriteFileAtomicTest, ReplacesExistingContentsWholesale) {
  std::string path = TempPath("replace.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "a much longer original payload").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "short").ok());
  // Full replacement, not an in-place overwrite leaving a stale tail.
  EXPECT_EQ(Slurp(path), "short");
}

TEST(WriteFileAtomicTest, EmptyContentsAllowed) {
  std::string path = TempPath("empty.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "previous").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  EXPECT_EQ(Slurp(path), "");
}

TEST(WriteFileAtomicTest, LeavesNoTempFileBehind) {
  std::string path = TempPath("noleak.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "payload").ok());
  // The temp name is `<path>.tmp.<pid>`; this process's pid is the only
  // one that could have written here.
  std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::ifstream in(temp);
  EXPECT_FALSE(in.good());
}

TEST(WriteFileAtomicTest, MissingDirectoryFails) {
  Status st = WriteFileAtomic("/nonexistent_dir_zzz/file.txt", "x");
  EXPECT_FALSE(st.ok());
}

TEST(WriteFileAtomicTest, StreamingWriterRoundTrips) {
  std::string path = TempPath("stream.txt");
  ASSERT_TRUE(WriteFileAtomic(path,
                              [](std::ostream* out) {
                                *out << "line one\n"
                                     << 42 << "\n";
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(Slurp(path), "line one\n42\n");
}

TEST(WriteFileAtomicTest, WriterErrorLeavesTargetUntouched) {
  std::string path = TempPath("writer_error.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "original").ok());
  Status st = WriteFileAtomic(path, [](std::ostream* out) {
    *out << "partial garbage that must never land";
    return Status::IOError("writer failed midway");
  });
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(Slurp(path), "original");
}

TEST(ReadFileToStringTest, RoundTripsBinary) {
  std::string path = TempPath("read.bin");
  std::string payload("\x00\x01\x02zzz\n\r\n", 9);
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(ReadFileToStringTest, MissingFileIsIOError) {
  auto read = ReadFileToString(TempPath("does_not_exist.bin"));
  EXPECT_TRUE(read.status().IsIOError());
}

TEST(Crc32Test, KnownAnswer) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  const char* data = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, ChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32(data.data(), data.size());
  uint32_t chained = Crc32(data.data(), 10);
  chained = Crc32(data.data() + 10, data.size() - 10, chained);
  EXPECT_EQ(chained, one_shot);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "checkpoint payload bytes";
  uint32_t clean = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_NE(Crc32(flipped.data(), flipped.size()), clean)
        << "flip at byte " << i;
  }
}

// The table-per-byte CRC-32 that Crc32 computed before slicing by eight,
// written apart from it: one lookup per byte.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size,
                       uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// Every length from 0 to 2,048 at every start offset 0-7 (so each
// eight-byte step meets every alignment and every tail length), from a
// zero seed and from a chained one.
TEST(Crc32Test, MatchesABytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(29);
  std::vector<unsigned char> bytes(2048 + 8);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.NextUint64());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 2048; ++size) {
      const unsigned char* data = bytes.data() + offset;
      const uint32_t seed =
          size % 2 == 0 ? 0u : static_cast<uint32_t>(rng.NextUint64());
      ASSERT_EQ(Crc32(data, size, seed), BytewiseCrc32(data, size, seed))
          << "offset " << offset << " size " << size << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace prefcover
