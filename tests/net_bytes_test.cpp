#include "net/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::net {
namespace {

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.write_u8(0xAB);
  writer.write_u8(0x00);
  writer.write_u8(0xFF);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u8(), 0x00);
  EXPECT_EQ(reader.read_u8(), 0xFF);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Bytes, LittleEndianLayout) {
  // LEB128 emits the low 7-bit group first, continuation bit set.
  ByteWriter writer;
  writer.write_varint(300);  // 0b10'0101100
  ASSERT_EQ(writer.size(), 2u);
  EXPECT_EQ(writer.bytes()[0], 0xAC);
  EXPECT_EQ(writer.bytes()[1], 0x02);
}

TEST(Bytes, VarintSmallValuesOneByte) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL}) {
    ByteWriter writer;
    writer.write_varint(v);
    EXPECT_EQ(writer.size(), 1u) << v;
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.read_varint(), v);
  }
}

TEST(Bytes, VarintBoundaries) {
  for (std::uint64_t v : {std::uint64_t{128}, std::uint64_t{16383},
                          std::uint64_t{16384}, std::uint64_t{1} << 32,
                          std::numeric_limits<std::uint64_t>::max()}) {
    ByteWriter writer;
    writer.write_varint(v);
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.read_varint(), v);
  }
}

TEST(Bytes, VarintRandomRoundTrip) {
  util::Rng rng(3);
  ByteWriter writer;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    const int bits = static_cast<int>(rng.uniform_index(64)) + 1;
    const std::uint64_t v = rng() >> (64 - bits);
    values.push_back(v);
    writer.write_varint(v);
  }
  ByteReader reader(writer.bytes());
  for (std::uint64_t v : values) EXPECT_EQ(reader.read_varint(), v);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Bytes, TruncatedInputThrows) {
  ByteWriter writer;
  writer.write_varint(std::uint64_t{1} << 20);  // three bytes
  ByteReader reader(
      std::span<const std::uint8_t>(writer.bytes().data(), 2));
  EXPECT_THROW((void)reader.read_varint(), PreconditionError);
}

TEST(Bytes, OverlongVarintThrows) {
  std::vector<std::uint8_t> bad(11, 0x80);  // never terminates within 64 bits
  ByteReader reader(bad);
  EXPECT_THROW((void)reader.read_varint(), PreconditionError);
}

TEST(Bytes, RemainingTracksCursor) {
  ByteWriter writer;
  writer.write_varint(200);  // two bytes
  writer.write_u8(1);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 3u);
  (void)reader.read_varint();
  EXPECT_EQ(reader.remaining(), 1u);
}

}  // namespace
}  // namespace poq::net
