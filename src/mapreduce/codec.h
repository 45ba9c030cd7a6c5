#ifndef SPQ_MAPREDUCE_CODEC_H_
#define SPQ_MAPREDUCE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace spq::mapreduce {

/// Raw fixed-width scalar access for the flat-arena segment format
/// (merge.h) and the spill framing. Unlike the Buffer/Codec varint
/// encoding, these write host byte order at fixed strides, so a record
/// header can be decoded with plain loads and no per-field bounds checks.
/// Spill files written this way are read back on the same host, exactly
/// like Buffer's doubles.
namespace wire {

inline void StoreU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void StoreU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
inline void StoreF64(uint8_t* dst, double v) { std::memcpy(dst, &v, 8); }

inline uint32_t LoadU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t LoadU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}
inline double LoadF64(const uint8_t* src) {
  double v;
  std::memcpy(&v, src, 8);
  return v;
}

}  // namespace wire

/// \brief Varint serialization of the binary dataset format
/// (io/dataset_io.cc): each keyword list is a Codec<std::vector<TermId>>.
/// The shuffle does not use it; its records are laid out by
/// FlatShuffleTraits with the fixed-width `wire` helpers above.
///
/// A specialization provides:
///   static void Encode(const T& v, Buffer& buf);
///   static Status Decode(BufferReader& reader, T* out);
template <typename T>
struct Codec;

template <>
struct Codec<uint32_t> {
  static void Encode(const uint32_t& v, Buffer& buf) { buf.PutVarint(v); }
  static Status Decode(BufferReader& reader, uint32_t* out) {
    uint64_t v;
    SPQ_RETURN_NOT_OK(reader.GetVarint(&v));
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  }
};

template <typename T>
struct Codec<std::vector<T>> {
  static void Encode(const std::vector<T>& v, Buffer& buf) {
    buf.PutVarint(v.size());
    for (const auto& item : v) Codec<T>::Encode(item, buf);
  }
  static Status Decode(BufferReader& reader, std::vector<T>* out) {
    uint64_t n;
    SPQ_RETURN_NOT_OK(reader.GetVarint(&n));
    // Every encoded element takes at least one byte: a larger count is a
    // lie, and reserving it would abort the process.
    if (n > reader.remaining()) {
      return Status::InvalidArgument("vector count exceeds the payload");
    }
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      T item;
      SPQ_RETURN_NOT_OK(Codec<T>::Decode(reader, &item));
      out->push_back(std::move(item));
    }
    return Status::OK();
  }
};

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_CODEC_H_
