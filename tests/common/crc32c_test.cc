// CRC-32C against published vectors, and the software table loop against
// the dispatched Crc32c. On a cpu with SSE4.2 the dispatched function runs
// the hardware `crc32` path, so these checks are what keep the table loop
// (the path every other host takes) tested there.

#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

namespace spq {
namespace {

struct Vector {
  const char* name;
  std::vector<uint8_t> bytes;
  uint32_t crc;
};

/// RFC 3720 (iSCSI), Appendix B.4, plus the common "123456789" check value.
std::vector<Vector> KnownVectors() {
  std::vector<uint8_t> ascending(32), descending(32);
  for (uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const char* digits = "123456789";
  return {
      {"32 x 0x00", std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {"0..31", ascending, 0x46DD794Eu},
      {"31..0", descending, 0x113FDB5Cu},
      {"123456789",
       std::vector<uint8_t>(digits, digits + std::strlen(digits)),
       0xE3069283u},
  };
}

TEST(Crc32cTest, MatchesPublishedVectors) {
  for (const Vector& v : KnownVectors()) {
    EXPECT_EQ(Crc32cSoftware(v.bytes.data(), v.bytes.size()), v.crc)
        << v.name;
    EXPECT_EQ(Crc32c(v.bytes), v.crc) << v.name << " via " << Crc32cBackend();
  }
}

TEST(Crc32cTest, SoftwareLoopAgreesWithDispatchedAtUnalignedOffsets) {
  std::mt19937_64 rng(3720);
  std::vector<uint8_t> buffer(1100 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 1100; ++n) {
      const uint8_t* data = buffer.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(n * 2654435761u);
      ASSERT_EQ(Crc32cSoftware(data, n), Crc32c(data, n))
          << "offset " << offset << " n " << n;
      ASSERT_EQ(Crc32cSoftware(data, n, seed), Crc32c(data, n, seed))
          << "offset " << offset << " n " << n << " seeded";
    }
  }
}

// crc32c.h: Crc32c(ab) == Crc32c(b, len_b, Crc32c(a, len_a)), for every
// split point and for both backends.
TEST(Crc32cTest, SeedContinuesAChecksumOverSplitBuffers) {
  std::mt19937_64 rng(41);
  std::vector<uint8_t> bytes(257);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  const uint32_t whole = Crc32c(bytes);
  ASSERT_EQ(Crc32cSoftware(bytes.data(), bytes.size()), whole);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const uint8_t* b = bytes.data() + split;
    const std::size_t len_b = bytes.size() - split;
    EXPECT_EQ(Crc32c(b, len_b, Crc32c(bytes.data(), split)), whole)
        << "split " << split;
    EXPECT_EQ(Crc32cSoftware(b, len_b, Crc32cSoftware(bytes.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace spq
