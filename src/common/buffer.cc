#include "common/buffer.h"

namespace spq {

void Buffer::PutUint32(uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
}

void Buffer::PutUint64(uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xFF);
}

void Buffer::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutUint64(bits);
}

void Buffer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(v));
}

void Buffer::PutBytes(const void* data, std::size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void Buffer::Append(const Buffer& other) {
  bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
}

Status BufferReader::GetUint8(uint8_t* out) {
  if (remaining() < 1) return Status::OutOfRange("GetUint8 past end");
  *out = data_[pos_++];
  return Status::OK();
}

Status BufferReader::GetUint32(uint32_t* out) {
  if (remaining() < 4) return Status::OutOfRange("GetUint32 past end");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::OK();
}

Status BufferReader::GetUint64(uint64_t* out) {
  if (remaining() < 8) return Status::OutOfRange("GetUint64 past end");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::OK();
}

Status BufferReader::GetDouble(double* out) {
  uint64_t bits;
  SPQ_RETURN_NOT_OK(GetUint64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status BufferReader::GetVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (exhausted()) return Status::OutOfRange("GetVarint past end");
    if (shift >= 64) return Status::OutOfRange("GetVarint overflow");
    uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) break;
    shift += 7;
  }
  *out = v;
  return Status::OK();
}

Status BufferReader::GetBytes(void* out, std::size_t n) {
  if (remaining() < n) return Status::OutOfRange("GetBytes past end");
  // n == 0 must not reach memcpy: `out` may be the null data() of an empty
  // container, and memcpy's arguments are declared nonnull.
  if (n == 0) return Status::OK();
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

}  // namespace spq
