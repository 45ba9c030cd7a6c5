#include "mapreduce/codec.h"

#include <gtest/gtest.h>

#include <vector>

namespace spq::mapreduce {
namespace {

template <typename T>
T RoundTrip(const T& value) {
  Buffer buf;
  Codec<T>::Encode(value, buf);
  BufferReader reader(buf.data(), buf.size());
  T out{};
  EXPECT_TRUE(Codec<T>::Decode(reader, &out).ok());
  EXPECT_TRUE(reader.exhausted());
  return out;
}

TEST(CodecTest, Primitives) {
  EXPECT_EQ(RoundTrip<uint32_t>(0u), 0u);
  EXPECT_EQ(RoundTrip<uint32_t>(123456u), 123456u);
  EXPECT_EQ(RoundTrip<uint32_t>(0xffffffffu), 0xffffffffu);
}

TEST(CodecTest, Vectors) {
  std::vector<uint32_t> v{3, 1, 4, 1, 5};
  EXPECT_EQ(RoundTrip(v), v);
  EXPECT_EQ(RoundTrip(std::vector<uint32_t>{}), std::vector<uint32_t>{});
  std::vector<std::vector<uint32_t>> nested{{7}, {}, {8, 9}};
  EXPECT_EQ(RoundTrip(nested), nested);
}

TEST(CodecTest, DecodeFailsOnTruncation) {
  // Multi-byte varints, so dropping the last byte cuts an element short.
  const std::vector<uint32_t> values{1u << 28, 1u << 29, 1u << 30};
  Buffer buf;
  Codec<std::vector<uint32_t>>::Encode(values, buf);
  BufferReader reader(buf.data(), buf.size() - 1);
  std::vector<uint32_t> out;
  EXPECT_FALSE(Codec<std::vector<uint32_t>>::Decode(reader, &out).ok());
}

// A vector count larger than the bytes left is rejected as InvalidArgument
// before anything is reserved: every element takes at least one byte.
TEST(CodecTest, DecodeRejectsLyingVectorCounts) {
  struct Case {
    const char* name;
    uint64_t count;
    std::size_t elements;  // encoded after the count
  };
  const Case cases[] = {
      {"huge count", uint64_t{1} << 62, 2},
      {"count one past the payload", 4, 3},
      {"count with no payload", 1, 0},
  };
  for (const Case& c : cases) {
    Buffer buf;
    buf.PutVarint(c.count);
    for (std::size_t i = 0; i < c.elements; ++i) buf.PutVarint(i);
    BufferReader reader(buf.data(), buf.size());
    std::vector<uint32_t> out;
    EXPECT_TRUE(
        Codec<std::vector<uint32_t>>::Decode(reader, &out).IsInvalidArgument())
        << c.name;
  }
}

}  // namespace
}  // namespace spq::mapreduce
