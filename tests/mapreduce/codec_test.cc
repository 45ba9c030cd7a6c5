#include "mapreduce/codec.h"

#include <gtest/gtest.h>

#include "spq/shuffle_types.h"

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
  EXPECT_EQ(RoundTrip<uint64_t>(1ULL << 50), 1ULL << 50);
  EXPECT_DOUBLE_EQ(RoundTrip<double>(-2.75), -2.75);
  EXPECT_EQ(RoundTrip<std::string>("shuffle"), "shuffle");
}

TEST(CodecTest, Vectors) {
  std::vector<uint32_t> v{3, 1, 4, 1, 5};
  EXPECT_EQ(RoundTrip(v), v);
  EXPECT_EQ(RoundTrip(std::vector<uint32_t>{}), std::vector<uint32_t>{});
  std::vector<std::string> s{"a", "", "bc"};
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(CodecTest, CellKeyRoundTrip) {
  core::CellKey key{42, -0.625};
  core::CellKey out = RoundTrip(key);
  EXPECT_EQ(out.cell, 42u);
  EXPECT_DOUBLE_EQ(out.order, -0.625);
}

TEST(CodecTest, ShuffleObjectDataRoundTrip) {
  core::ShuffleObject obj;
  obj.kind = core::ShuffleObject::kData;
  obj.id = 99;
  obj.pos = {0.25, 0.75};
  core::ShuffleObject out = RoundTrip(obj);
  EXPECT_TRUE(out.is_data());
  EXPECT_EQ(out.id, 99u);
  EXPECT_DOUBLE_EQ(out.pos.x, 0.25);
  EXPECT_DOUBLE_EQ(out.pos.y, 0.75);
  EXPECT_TRUE(out.keywords.empty());
}

TEST(CodecTest, ShuffleObjectFeatureRoundTrip) {
  core::ShuffleObject obj;
  obj.kind = core::ShuffleObject::kFeature;
  obj.id = 7;
  obj.pos = {0.5, 0.5};
  obj.keywords = {1, 5, 9};
  core::ShuffleObject out = RoundTrip(obj);
  EXPECT_TRUE(out.is_feature());
  EXPECT_EQ(out.keywords, (std::vector<text::TermId>{1, 5, 9}));
}

TEST(CodecTest, DataObjectOmitsKeywordPayload) {
  // The wire format of a data object must not spend bytes on keywords.
  core::ShuffleObject data;
  data.kind = core::ShuffleObject::kData;
  data.id = 1;
  core::ShuffleObject feature = data;
  feature.kind = core::ShuffleObject::kFeature;
  Buffer data_buf, feature_buf;
  Codec<core::ShuffleObject>::Encode(data, data_buf);
  Codec<core::ShuffleObject>::Encode(feature, feature_buf);
  EXPECT_LT(data_buf.size(), feature_buf.size());
}

TEST(CodecTest, DecodeFailsOnTruncation) {
  core::ShuffleObject obj;
  obj.kind = core::ShuffleObject::kFeature;
  obj.keywords = {1, 2, 3};
  Buffer buf;
  Codec<core::ShuffleObject>::Encode(obj, buf);
  BufferReader reader(buf.data(), buf.size() - 1);
  core::ShuffleObject out;
  EXPECT_FALSE(Codec<core::ShuffleObject>::Decode(reader, &out).ok());
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
  // The same lie inside a feature record's keyword list.
  Buffer buf;
  buf.PutUint8(core::ShuffleObject::kFeature);
  buf.PutVarint(5);
  buf.PutDouble(0.5);
  buf.PutDouble(0.5);
  buf.PutVarint(uint64_t{1} << 62);
  BufferReader reader(buf.data(), buf.size());
  core::ShuffleObject obj;
  EXPECT_TRUE(
      Codec<core::ShuffleObject>::Decode(reader, &obj).IsInvalidArgument());
}

}  // namespace
}  // namespace spq::mapreduce
