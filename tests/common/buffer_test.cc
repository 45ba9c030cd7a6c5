#include "common/buffer.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace spq {
namespace {

TEST(BufferTest, RoundTripsScalars) {
  Buffer buf;
  buf.PutUint8(0xAB);
  buf.PutUint32(0xDEADBEEF);
  buf.PutUint64(0x0123456789ABCDEFULL);
  buf.PutDouble(3.5);
  buf.PutDouble(-0.0);

  BufferReader reader(buf.data(), buf.size());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d1, d2;
  ASSERT_TRUE(reader.GetUint8(&u8).ok());
  ASSERT_TRUE(reader.GetUint32(&u32).ok());
  ASSERT_TRUE(reader.GetUint64(&u64).ok());
  ASSERT_TRUE(reader.GetDouble(&d1).ok());
  ASSERT_TRUE(reader.GetDouble(&d2).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(d1, 3.5);
  EXPECT_EQ(d2, -0.0);
  EXPECT_TRUE(reader.exhausted());
}

TEST(BufferTest, VarintRoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ULL << 32) - 1,
                             1ULL << 32,
                             std::numeric_limits<uint64_t>::max()};
  Buffer buf;
  for (uint64_t v : values) buf.PutVarint(v);
  BufferReader reader(buf.data(), buf.size());
  for (uint64_t v : values) {
    uint64_t out;
    ASSERT_TRUE(reader.GetVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(BufferTest, VarintIsCompactForSmallValues) {
  Buffer buf;
  buf.PutVarint(5);
  EXPECT_EQ(buf.size(), 1u);
  buf.Clear();
  buf.PutVarint(300);
  EXPECT_EQ(buf.size(), 2u);
}

/// A varint length followed by the raw bytes: how a store WAL record
/// frames its payload (spq/wal.cc).
void PutLengthPrefixed(Buffer& buf, const std::string& s) {
  buf.PutVarint(s.size());
  buf.PutBytes(s.data(), s.size());
}

Status GetLengthPrefixed(BufferReader& reader, std::string* out) {
  uint64_t n;
  SPQ_RETURN_NOT_OK(reader.GetVarint(&n));
  if (n > reader.remaining()) return Status::OutOfRange("length past end");
  out->resize(n);
  return reader.GetBytes(out->data(), n);
}

TEST(BufferTest, StringRoundTrip) {
  Buffer buf;
  PutLengthPrefixed(buf, "hello");
  PutLengthPrefixed(buf, "");
  PutLengthPrefixed(buf, std::string("\0binary\xFF", 8));
  BufferReader reader(buf.data(), buf.size());
  std::string a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(reader, &a).ok());
  ASSERT_TRUE(GetLengthPrefixed(reader, &b).ok());
  ASSERT_TRUE(GetLengthPrefixed(reader, &c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string("\0binary\xFF", 8));
  EXPECT_TRUE(reader.exhausted());
}

TEST(BufferTest, TruncatedReadsReturnOutOfRange) {
  Buffer buf;
  buf.PutUint32(42);
  BufferReader reader(buf.data(), 2);  // truncate
  uint32_t v;
  EXPECT_TRUE(reader.GetUint32(&v).IsOutOfRange());

  uint64_t u;
  BufferReader empty(nullptr, 0);
  EXPECT_TRUE(empty.GetVarint(&u).IsOutOfRange());
  double d;
  EXPECT_TRUE(empty.GetDouble(&d).IsOutOfRange());
  uint8_t byte;
  EXPECT_TRUE(empty.GetBytes(&byte, 1).IsOutOfRange());
}

TEST(BufferTest, TruncatedStringPayloadReturnsOutOfRange) {
  Buffer buf;
  buf.PutVarint(100);  // claims 100 bytes follow
  buf.PutBytes("abc", 3);
  BufferReader reader(buf.data(), buf.size());
  std::string s;
  EXPECT_TRUE(GetLengthPrefixed(reader, &s).IsOutOfRange());
  // The raw read past the end fails the same way and consumes nothing.
  uint8_t bytes[100];
  EXPECT_TRUE(reader.GetBytes(bytes, 100).IsOutOfRange());
  EXPECT_EQ(reader.remaining(), 3u);
}

TEST(BufferTest, AppendConcatenates) {
  Buffer a, b;
  a.PutUint8(1);
  b.PutUint8(2);
  a.Append(b);
  EXPECT_EQ(a.size(), 2u);
  BufferReader reader(a.data(), a.size());
  uint8_t x, y;
  ASSERT_TRUE(reader.GetUint8(&x).ok());
  ASSERT_TRUE(reader.GetUint8(&y).ok());
  EXPECT_EQ(x, 1);
  EXPECT_EQ(y, 2);
}

TEST(BufferTest, TakeBytesMovesAndClears) {
  Buffer buf;
  buf.PutUint32(7);
  auto bytes = buf.TakeBytes();
  EXPECT_EQ(bytes.size(), 4u);
}

}  // namespace
}  // namespace spq
