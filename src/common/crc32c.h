#ifndef SPQ_COMMON_CRC32C_H_
#define SPQ_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spq {

/// \brief CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the
/// checksum HDFS uses per block chunk.
///
/// Two backends behind a runtime cpu check: the SSE4.2 `crc32`
/// instruction when the compiler accepts -msse4.2 (see the root
/// CMakeLists) and the cpu has it, a software slice-by-4 table loop
/// otherwise. Both compute the same polynomial in the same reflected
/// convention, so checksums written by one backend always verify under
/// the other.
///
/// `seed` is a previous Crc32c result, so checksums can be computed
/// incrementally over split buffers:
///   Crc32c(ab) == Crc32c(b, len_b, Crc32c(a, len_a)).
uint32_t Crc32c(const uint8_t* data, std::size_t n, uint32_t seed = 0);

inline uint32_t Crc32c(const std::vector<uint8_t>& bytes, uint32_t seed = 0) {
  return Crc32c(bytes.data(), bytes.size(), seed);
}

/// The software table loop alone, whatever the cpu supports, exposed so
/// tests can pin it against the dispatched Crc32c on hosts where the
/// hardware path is taken. Same contract as Crc32c.
uint32_t Crc32cSoftware(const uint8_t* data, std::size_t n, uint32_t seed = 0);

/// "sse4.2" or "software" — which backend Crc32c dispatches to here.
const char* Crc32cBackend();

}  // namespace spq

#endif  // SPQ_COMMON_CRC32C_H_
