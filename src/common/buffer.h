#ifndef SPQ_COMMON_BUFFER_H_
#define SPQ_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"

namespace spq {

/// \brief Growable byte sink with primitive encoders.
///
/// The byte formats that leave the process — the binary dataset file, the
/// store WAL frames and the checkpoint manifest — are written through a
/// Buffer and read back through a BufferReader.
///
/// Encoding: fixed-width little-endian for 32/64-bit scalars and doubles,
/// LEB128 varints for lengths and small counts.
class Buffer {
 public:
  Buffer() = default;

  void Clear() { bytes_.clear(); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const uint8_t* data() const { return bytes_.data(); }

  void PutUint8(uint8_t v) { bytes_.push_back(v); }
  void PutUint32(uint32_t v);
  void PutUint64(uint64_t v);
  void PutDouble(double v);
  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint(uint64_t v);
  void PutBytes(const void* data, std::size_t n);

  /// Appends the full contents of another buffer (no length prefix).
  void Append(const Buffer& other);

  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// \brief Sequential reader over a byte span produced by Buffer.
///
/// All Get* methods return Status::OutOfRange on truncated input instead of
/// reading past the end, so corrupted bytes surface as errors.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& bytes)
      : BufferReader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }
  std::size_t position() const { return pos_; }

  Status GetUint8(uint8_t* out);
  Status GetUint32(uint32_t* out);
  Status GetUint64(uint64_t* out);
  Status GetDouble(double* out);
  Status GetVarint(uint64_t* out);
  Status GetBytes(void* out, std::size_t n);

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace spq

#endif  // SPQ_COMMON_BUFFER_H_
