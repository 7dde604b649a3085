#include "src/io/binary.h"
#include "src/util/binary.h"

#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace firehose {
namespace {

TEST(BinaryCodecTest, VarintRoundTrip) {
  BinaryWriter writer;
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             300,
                             (1ULL << 32) - 1,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) writer.PutVarint(v);
  BinaryReader reader(writer.buffer());
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(reader.GetVarint(&v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryCodecTest, VarintUsesMinimalBytes) {
  BinaryWriter writer;
  writer.PutVarint(5);
  EXPECT_EQ(writer.size(), 1u);
  writer.PutVarint(128);
  EXPECT_EQ(writer.size(), 3u);  // +2 bytes
}

TEST(BinaryCodecTest, SignedVarintRoundTrip) {
  BinaryWriter writer;
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            64,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) writer.PutSignedVarint(v);
  BinaryReader reader(writer.buffer());
  for (int64_t expected : values) {
    int64_t v = 0;
    ASSERT_TRUE(reader.GetSignedVarint(&v));
    EXPECT_EQ(v, expected);
  }
}

TEST(BinaryCodecTest, ZigzagKeepsSmallNegativesSmall) {
  BinaryWriter writer;
  writer.PutSignedVarint(-1);
  EXPECT_EQ(writer.size(), 1u);
}

TEST(BinaryCodecTest, StringRoundTrip) {
  BinaryWriter writer;
  writer.PutString("");
  writer.PutString("hello world");
  writer.PutString(std::string("\0binary\xFF", 8));
  BinaryReader reader(writer.buffer());
  std::string s;
  ASSERT_TRUE(reader.GetString(&s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(reader.GetString(&s));
  EXPECT_EQ(s, "hello world");
  ASSERT_TRUE(reader.GetString(&s));
  EXPECT_EQ(s, std::string("\0binary\xFF", 8));
}

TEST(BinaryCodecTest, StringViewReadsInPlace) {
  BinaryWriter writer;
  writer.PutString("hello world");
  writer.PutString("");
  writer.PutVarint(7);
  const std::string& buffer = writer.buffer();
  BinaryReader reader(buffer);
  std::string_view view;
  ASSERT_TRUE(reader.GetStringView(&view));
  EXPECT_EQ(view, "hello world");
  // A view into the reader's input, not a copy.
  EXPECT_EQ(view.data(), buffer.data() + 1);
  ASSERT_TRUE(reader.GetStringView(&view));
  EXPECT_EQ(view, "");
  uint64_t v = 0;
  ASSERT_TRUE(reader.GetVarint(&v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryCodecTest, Fixed64RoundTrip) {
  BinaryWriter writer;
  writer.PutFixed64(0xDEADBEEFCAFEF00DULL);
  writer.PutFixed64(0);
  BinaryReader reader(writer.buffer());
  uint64_t v = 0;
  ASSERT_TRUE(reader.GetFixed64(&v));
  EXPECT_EQ(v, 0xDEADBEEFCAFEF00DULL);
  ASSERT_TRUE(reader.GetFixed64(&v));
  EXPECT_EQ(v, 0u);
}

TEST(BinaryCodecTest, TruncatedVarintFails) {
  BinaryReader reader(std::string_view("\x80", 1));  // continuation, no end
  uint64_t v;
  EXPECT_FALSE(reader.GetVarint(&v));
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryCodecTest, TruncatedStringFails) {
  BinaryWriter writer;
  writer.PutVarint(100);  // claims 100 bytes, provides none
  BinaryReader reader(writer.buffer());
  std::string s;
  EXPECT_FALSE(reader.GetString(&s));
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryCodecTest, TruncatedStringViewFails) {
  BinaryWriter writer;
  writer.PutVarint(5);  // claims 5 bytes, provides 4
  writer.PutU8('a');
  writer.PutU8('b');
  writer.PutU8('c');
  writer.PutU8('d');
  BinaryReader reader(writer.buffer());
  std::string_view view = "untouched";
  EXPECT_FALSE(reader.GetStringView(&view));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(view, "untouched");
}

TEST(BinaryCodecTest, TruncatedFixed64Fails) {
  BinaryReader reader("abc");
  uint64_t v;
  EXPECT_FALSE(reader.GetFixed64(&v));
}

TEST(BinaryCodecTest, FailureLatches) {
  BinaryWriter writer;
  writer.PutVarint(7);
  BinaryReader reader(writer.buffer());
  uint64_t v;
  ASSERT_TRUE(reader.GetVarint(&v));
  ASSERT_FALSE(reader.GetVarint(&v));  // exhausted
  // Subsequent reads keep failing even though nothing remains to parse.
  EXPECT_FALSE(reader.GetVarint(&v));
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryCodecTest, MixedRandomRoundTrip) {
  Rng rng(5);
  BinaryWriter writer;
  std::vector<uint64_t> expected;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.UniformInt(64));
    expected.push_back(v);
    writer.PutVarint(v);
  }
  BinaryReader reader(writer.buffer());
  for (uint64_t e : expected) {
    uint64_t v;
    ASSERT_TRUE(reader.GetVarint(&v));
    EXPECT_EQ(v, e);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(FileIoTest, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/firehose_binary_test.bin";
  const std::string payload("some\0binary\npayload", 19);
  ASSERT_TRUE(WriteFileAtomic(path, payload));
  std::string read_back;
  ASSERT_TRUE(ReadFileToString(path, &read_back));
  EXPECT_EQ(read_back, payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, EmptyFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/firehose_empty_test.bin";
  ASSERT_TRUE(WriteFileAtomic(path, ""));
  std::string read_back = "junk";
  ASSERT_TRUE(ReadFileToString(path, &read_back));
  EXPECT_TRUE(read_back.empty());
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileFails) {
  std::string data;
  EXPECT_FALSE(ReadFileToString("/nonexistent/path/file.bin", &data));
}

TEST(FileIoTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteFileAtomic("/nonexistent-dir/file.bin", "x"));
}

}  // namespace
}  // namespace firehose
