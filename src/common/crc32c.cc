// CRC-32C backends. This is the only translation unit compiled with an
// extra ISA flag (-msse4.2, whenever the compiler accepts it; see the root
// CMakeLists), so the `crc32` intrinsics stay behind a function-call
// boundary and the rest of the library keeps the baseline instruction set.

#include "common/crc32c.h"

#include <array>

#if defined(SPQ_CRC32C_SSE42)
#include <nmmintrin.h>
#endif

namespace spq {

namespace {

/// 4 tables of 256 entries: table[0] is the classic byte-at-a-time CRC-32C
/// table, table[k] advances a byte through k additional zero bytes, which
/// lets the hot loop fold 4 input bytes per iteration (slice-by-4).
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  constexpr Crc32cTables() : t{} {
    constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 4; ++k) {
        crc = t[0][crc & 0xffu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

constexpr Crc32cTables kTables{};

/// Software slice-by-4 on the running (pre-finalization) crc state.
uint32_t UpdateSoftware(uint32_t crc, const uint8_t* data, std::size_t n) {
  const auto& t = kTables.t;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(data[0]) |
           (static_cast<uint32_t>(data[1]) << 8) |
           (static_cast<uint32_t>(data[2]) << 16) |
           (static_cast<uint32_t>(data[3]) << 24);
    crc = t[3][crc & 0xffu] ^ t[2][(crc >> 8) & 0xffu] ^
          t[1][(crc >> 16) & 0xffu] ^ t[0][crc >> 24];
    data += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = t[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
    ++data;
    --n;
  }
  return crc;
}

#if defined(SPQ_CRC32C_SSE42)

/// The SSE4.2 `crc32` instruction computes exactly this polynomial in
/// this reflected convention, 8 bytes per issue, on the same running
/// state the table loop carries — the two backends are bit-identical.
uint32_t UpdateSse42(uint32_t crc, const uint8_t* data, std::size_t n) {
  uint64_t state = crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, data, 8);
    state = _mm_crc32_u64(state, word);
    data += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(state);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *data);
    ++data;
    --n;
  }
  return crc;
}

bool Sse42Available() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#else

bool Sse42Available() { return false; }

#endif  // SPQ_CRC32C_SSE42

}  // namespace

uint32_t Crc32cSoftware(const uint8_t* data, std::size_t n, uint32_t seed) {
  return ~UpdateSoftware(~seed, data, n);
}

uint32_t Crc32c(const uint8_t* data, std::size_t n, uint32_t seed) {
#if defined(SPQ_CRC32C_SSE42)
  if (Sse42Available()) return ~UpdateSse42(~seed, data, n);
#endif
  return Crc32cSoftware(data, n, seed);
}

const char* Crc32cBackend() {
  return Sse42Available() ? "sse4.2" : "software";
}

}  // namespace spq
