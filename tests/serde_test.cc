// Checkpoint codec primitives (src/common/serde.h): the slice-by-8 CRC-32
// against its check value and a bitwise reference, and the bounds-checked
// writer/reader round trip the checkpoint format is built from.
#include "src/common/serde.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/common/random.h"

namespace stateslice {
namespace {

// One bit at a time, straight from the reflected polynomial: no tables, so
// it shares nothing with the implementation under test.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SerdeTest, Crc32CheckValues) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(BitwiseCrc32("123456789"), 0xCBF43926u);
}

TEST(SerdeTest, SliceBy8MatchesBitwiseAtEveryLengthAndOffset) {
  // Lengths 0..300 from every start offset 0..8 cover the 8-byte main loop,
  // every tail length and every alignment of the first load.
  Rng rng(17);
  std::string buffer(8 + 300, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextU64() & 0xff);
  const std::string_view all(buffer);
  for (size_t offset = 0; offset <= 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view slice = all.substr(offset, len);
      ASSERT_EQ(Crc32(slice), BitwiseCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(SerdeTest, WriterReaderRoundTrip) {
  const uint64_t u64s[] = {0, 1, 0x0102030405060708ull,
                           std::numeric_limits<uint64_t>::max()};
  const int64_t i64s[] = {0, -1, std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  const double doubles[] = {0.0, -2.5, 1e300,
                            std::numeric_limits<double>::infinity()};
  const std::string strs[] = {"", "a", std::string("nul\0byte", 8),
                              std::string(1000, 'x')};
  StateWriter w;
  for (int i = 0; i < 4; ++i) {
    w.U8(static_cast<uint8_t>(0xF0 + i));
    w.U32(0x01020304u * static_cast<uint32_t>(i + 1));
    w.U64(u64s[i]);
    w.I64(i64s[i]);
    w.Double(doubles[i]);
    w.Str(strs[i]);
  }
  // Little-endian on the wire whatever the host order.
  StateWriter le;
  le.U32(0x01020304u);
  EXPECT_EQ(le.data(), std::string("\x04\x03\x02\x01", 4));

  StateReader r(w.data());
  for (int i = 0; i < 4; ++i) {
    uint8_t u8 = 0;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    int64_t i64 = 0;
    double d = 0;
    std::string s;
    ASSERT_TRUE(r.U8(&u8) && r.U32(&u32) && r.U64(&u64) && r.I64(&i64) &&
                r.Double(&d) && r.Str(&s));
    EXPECT_EQ(u8, 0xF0 + i);
    EXPECT_EQ(u32, 0x01020304u * static_cast<uint32_t>(i + 1));
    EXPECT_EQ(u64, u64s[i]);
    EXPECT_EQ(i64, i64s[i]);
    EXPECT_EQ(d, doubles[i]);
    EXPECT_EQ(s, strs[i]);
  }
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

TEST(SerdeTest, ReadPastEndFailsAndStaysFailed) {
  StateWriter w;
  w.U32(7);
  w.U8(9);
  StateReader r(w.data());
  uint64_t u64 = 42;
  EXPECT_FALSE(r.U64(&u64));  // 5 bytes left, 8 needed
  EXPECT_EQ(u64, 42u);        // output untouched
  EXPECT_FALSE(r.ok());
  // The reader stays failed even for reads that would fit now.
  uint32_t u32 = 0;
  uint8_t u8 = 0;
  EXPECT_FALSE(r.U32(&u32));
  EXPECT_FALSE(r.U8(&u8));
  EXPECT_FALSE(r.ok());

  // A string whose length prefix overruns the buffer fails the same way.
  StateWriter sw;
  sw.U32(100);
  sw.U8('a');
  StateReader sr(sw.data());
  std::string s = "kept";
  EXPECT_FALSE(sr.Str(&s));
  EXPECT_EQ(s, "kept");
  EXPECT_FALSE(sr.ok());
}

}  // namespace
}  // namespace stateslice
