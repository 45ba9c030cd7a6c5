#include "mapreduce/spill.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32c.h"
#include "common/hash.h"
#include "mapreduce/codec.h"

namespace spq::mapreduce {

namespace {

/// Spill framing magic, last 4 bytes of every spill file ("SPQ1").
constexpr uint32_t kSpillMagic = 0x53505131;

// Active storage-fault injection scope for this thread (see
// ScopedStorageFaults). Spill I/O helpers consult these at read/write
// time; the runtime sets them around task attempts.
thread_local const FaultSpec* tl_spill_fault_spec = nullptr;
thread_local uint64_t tl_spill_fault_salt = 0;

/// FNV-1a over the path so fault sites are stable across runs (std::hash
/// makes no such promise).
uint64_t PathHash(const std::string& path) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : path) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

std::size_t NumPages(uint64_t body_len, uint64_t page_size) {
  return body_len == 0
             ? 0
             : static_cast<std::size_t>((body_len + page_size - 1) / page_size);
}

/// Body + per-page CRC table + trailer, ready to hit disk.
std::vector<uint8_t> FrameSpillImage(const std::vector<uint8_t>& body) {
  const uint64_t page_size = kSpillPageBytes;
  const std::size_t n_pages = NumPages(body.size(), page_size);
  std::vector<uint8_t> image = body;
  image.reserve(body.size() + 4 * n_pages + kSpillTrailerBytes);
  const std::size_t table_off = image.size();
  uint8_t tmp[8];
  for (std::size_t p = 0; p < n_pages; ++p) {
    const std::size_t start = p * page_size;
    const std::size_t len =
        std::min<std::size_t>(page_size, body.size() - start);
    wire::StoreU32(tmp, Crc32c(body.data() + start, len));
    image.insert(image.end(), tmp, tmp + 4);
  }
  uint8_t head[16];
  wire::StoreU64(head, body.size());
  wire::StoreU32(head + 8, static_cast<uint32_t>(page_size));
  wire::StoreU32(head + 12, static_cast<uint32_t>(n_pages));
  const uint32_t table_crc =
      Crc32c(head, 16, Crc32c(image.data() + table_off, 4 * n_pages));
  image.insert(image.end(), head, head + 16);
  wire::StoreU32(tmp, table_crc);
  image.insert(image.end(), tmp, tmp + 4);
  wire::StoreU32(tmp, kSpillMagic);
  image.insert(image.end(), tmp, tmp + 4);
  return image;
}

struct SpillFraming {
  uint64_t body_len = 0;
  uint32_t page_size = 0;
  uint32_t n_pages = 0;
};

/// Decodes + verifies the 24-byte trailer and CRC table given the file's
/// last `4*n_pages + 24` bytes and total size. IOError on any mismatch —
/// a torn or corrupted spill file never parses.
StatusOr<SpillFraming> VerifyFraming(const std::string& path,
                                     const uint8_t* tail,
                                     std::size_t tail_len,
                                     uint64_t file_size) {
  if (tail_len < kSpillTrailerBytes) {
    return Status::IOError("spill file missing framing trailer: " + path);
  }
  const uint8_t* trailer = tail + (tail_len - kSpillTrailerBytes);
  if (wire::LoadU32(trailer + 20) != kSpillMagic) {
    return Status::IOError("bad spill magic (torn or corrupt file): " + path);
  }
  SpillFraming f;
  f.body_len = wire::LoadU64(trailer);
  f.page_size = wire::LoadU32(trailer + 8);
  f.n_pages = wire::LoadU32(trailer + 12);
  const uint32_t table_crc = wire::LoadU32(trailer + 16);
  if (f.page_size == 0 || f.n_pages != NumPages(f.body_len, f.page_size) ||
      file_size != f.body_len + 4ull * f.n_pages + kSpillTrailerBytes ||
      tail_len != 4ull * f.n_pages + kSpillTrailerBytes) {
    return Status::IOError("corrupt spill framing: " + path);
  }
  const uint32_t actual =
      Crc32c(trailer, 16, Crc32c(tail, 4ull * f.n_pages));
  if (actual != table_crc) {
    return Status::IOError("spill CRC table checksum mismatch: " + path);
  }
  return f;
}

}  // namespace

ScopedStorageFaults::ScopedStorageFaults(const FaultSpec* spec,
                                         uint64_t salt) {
  if (spec != nullptr && spec->storage_enabled()) {
    tl_spill_fault_spec = spec;
    tl_spill_fault_salt = salt;
  }
}

ScopedStorageFaults::~ScopedStorageFaults() {
  tl_spill_fault_spec = nullptr;
  tl_spill_fault_salt = 0;
}

Status WriteSpillFile(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      return Status::IOError("cannot create spill dir: " + ec.message());
    }
  }
  std::vector<uint8_t> image = FrameSpillImage(bytes);
  const FaultSpec* spec = tl_spill_fault_spec;
  if (spec != nullptr) {
    // Injected write fault: tear or bit-flip the on-disk image. The
    // verify-after-write below (the HDFS write-pipeline ack) detects it.
    const uint64_t site = Mix64(tl_spill_fault_salt ^ PathHash(path) ^
                                0x53504c57525455ull);
    CorruptImageForWrite(StorageFaultAt(*spec, site), site, &image);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open spill file: " + path);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out) return Status::IOError("spill write failed: " + path);
  if (spec != nullptr) {
    // Read back and verify before acknowledging the write, so a faulted
    // spill fails the *writing* attempt (which re-rolls on retry) instead
    // of poisoning every reduce task that later reads it.
    auto verify = ReadSpillFile(path);
    if (!verify.ok()) {
      return Status::IOError("spill write verification failed: " +
                             verify.status().ToString());
    }
    if (verify->size() != bytes.size()) {
      return Status::IOError("spill write verification failed: size " +
                             std::to_string(verify->size()) + " != " +
                             std::to_string(bytes.size()));
    }
  }
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> ReadSpillFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open spill file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> image(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(image.data()), size);
  if (!in) return Status::IOError("spill read failed: " + path);
  if (image.size() < kSpillTrailerBytes) {
    return Status::IOError("spill file missing framing trailer: " + path);
  }
  // The tail passed to VerifyFraming must start at the CRC table; its
  // offset comes from the trailer, so sanity-check before trusting it.
  const uint8_t* trailer = image.data() + image.size() - kSpillTrailerBytes;
  const uint64_t body_len = wire::LoadU64(trailer);
  if (body_len > image.size() - kSpillTrailerBytes) {
    return Status::IOError("corrupt spill framing: " + path);
  }
  SPQ_ASSIGN_OR_RETURN(
      SpillFraming framing,
      VerifyFraming(path, image.data() + body_len, image.size() - body_len,
                    image.size()));
  for (uint32_t page = 0; page < framing.n_pages; ++page) {
    const std::size_t start = static_cast<std::size_t>(page) *
                              framing.page_size;
    const std::size_t len = std::min<std::size_t>(
        framing.page_size, static_cast<std::size_t>(body_len) - start);
    const uint32_t expected =
        wire::LoadU32(image.data() + body_len + 4ull * page);
    if (Crc32c(image.data() + start, len) != expected) {
      return Status::IOError("spill page checksum mismatch: " + path +
                             " page " + std::to_string(page));
    }
  }
  image.resize(static_cast<std::size_t>(body_len));
  return image;
}

void RemoveSpillFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

std::string SpillPath(const std::string& dir, uint64_t run_id,
                      uint32_t map_task, uint32_t reduce_part) {
  char name[96];
  std::snprintf(name, sizeof(name), "run%llu-m%u-r%u.seg",
                static_cast<unsigned long long>(run_id), map_task,
                reduce_part);
  return (std::filesystem::path(dir) / name).string();
}

uint64_t NextSpillRunId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1);
}

void SpillRegionReader::Open(std::string path, uint64_t offset,
                             uint64_t length, std::size_t buffer_capacity) {
  path_ = std::move(path);
  next_read_offset_ = offset;
  capacity_ = buffer_capacity > 0 ? buffer_capacity : kDefaultBufferBytes;
  buf_.clear();
  pos_ = len_ = 0;
  file_remaining_ = length;
  region_remaining_ = length;
  framing_loaded_ = false;
  body_len_ = 0;
  page_size_ = 0;
  page_crcs_.clear();
  scratch_.clear();
  cached_page_ = kNoPage;
}

Status SpillRegionReader::EnsureFraming(std::ifstream& in) {
  if (framing_loaded_) return Status::OK();
  in.seekg(0, std::ios::end);
  if (!in) return Status::IOError("cannot seek spill file: " + path_);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < kSpillTrailerBytes) {
    return Status::IOError("spill file missing framing trailer: " + path_);
  }
  uint8_t trailer[kSpillTrailerBytes];
  in.seekg(static_cast<std::streamoff>(file_size - kSpillTrailerBytes));
  in.read(reinterpret_cast<char*>(trailer), kSpillTrailerBytes);
  if (!in) return Status::IOError("cannot read spill trailer: " + path_);
  const uint64_t body_len = wire::LoadU64(trailer);
  if (body_len > file_size - kSpillTrailerBytes) {
    return Status::IOError("corrupt spill framing: " + path_);
  }
  std::vector<uint8_t> tail(
      static_cast<std::size_t>(file_size - body_len));
  in.seekg(static_cast<std::streamoff>(body_len));
  in.read(reinterpret_cast<char*>(tail.data()),
          static_cast<std::streamsize>(tail.size()));
  if (!in) return Status::IOError("cannot read spill CRC table: " + path_);
  SPQ_ASSIGN_OR_RETURN(
      SpillFraming framing,
      VerifyFraming(path_, tail.data(), tail.size(), file_size));
  body_len_ = framing.body_len;
  page_size_ = framing.page_size;
  page_crcs_.resize(framing.n_pages);
  for (uint32_t p = 0; p < framing.n_pages; ++p) {
    page_crcs_[p] = wire::LoadU32(tail.data() + 4ull * p);
  }
  framing_loaded_ = true;
  return Status::OK();
}

Status SpillRegionReader::LoadPage(std::ifstream& in, uint64_t page,
                                   uint64_t page_start,
                                   std::size_t page_len) {
  if (cached_page_ == page) return Status::OK();
  scratch_.resize(page_len);
  in.clear();
  in.seekg(static_cast<std::streamoff>(page_start));
  if (!in) return Status::IOError("cannot seek spill file: " + path_);
  in.read(reinterpret_cast<char*>(scratch_.data()),
          static_cast<std::streamsize>(page_len));
  std::size_t got = static_cast<std::size_t>(in.gcount());
  if (const FaultSpec* spec = tl_spill_fault_spec) {
    const uint64_t site = Mix64(tl_spill_fault_salt ^ PathHash(path_) ^
                                Mix64(page ^ 0x53504c52454144ull));
    const auto kind = StorageFaultAt(*spec, site);
    if (kind == StorageFaultKind::kShortRead && got > 0) {
      got = Mix64(site) % got;
    } else if (kind == StorageFaultKind::kCorruptByte && page_len > 0) {
      scratch_[Mix64(site) % page_len] ^=
          static_cast<uint8_t>(1u << (Mix64(site) >> 61));
    }
  }
  if (got < page_len) {
    return Status::IOError("short read of spill page " +
                           std::to_string(page) + ": " + path_);
  }
  if (Crc32c(scratch_.data(), page_len) != page_crcs_[page]) {
    return Status::IOError("spill page checksum mismatch: " + path_ +
                           " page " + std::to_string(page));
  }
  cached_page_ = page;
  return Status::OK();
}

Status SpillRegionReader::Refill(std::size_t need) {
  // Move the unfetched tail to the buffer front, then size the buffer for
  // this fetch (an oversized fetch grows it; the next refill shrinks it).
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    len_ -= pos_;
    pos_ = 0;
  }
  buf_.resize(std::max(need, capacity_));
  // Transient handle: opened for this refill only (see class comment).
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot open spill file: " + path_);
  SPQ_RETURN_NOT_OK(EnsureFraming(in));
  while (len_ < need && file_remaining_ > 0) {
    if (next_read_offset_ >= body_len_) {
      // The region claims more bytes than the framed body holds.
      return Status::OutOfRange("spill region truncated on disk");
    }
    const uint64_t page = next_read_offset_ / page_size_;
    const uint64_t page_start = page * page_size_;
    const std::size_t page_len = static_cast<std::size_t>(
        std::min<uint64_t>(page_size_, body_len_ - page_start));
    SPQ_RETURN_NOT_OK(LoadPage(in, page, page_start, page_len));
    const std::size_t off_in_page =
        static_cast<std::size_t>(next_read_offset_ - page_start);
    const std::size_t take = static_cast<std::size_t>(std::min<uint64_t>(
        {static_cast<uint64_t>(page_len - off_in_page),
         static_cast<uint64_t>(buf_.size() - len_), file_remaining_}));
    std::memcpy(buf_.data() + len_, scratch_.data() + off_in_page, take);
    len_ += take;
    file_remaining_ -= take;
    next_read_offset_ += take;
  }
  if (len_ < need) {
    return Status::OutOfRange("spill region exhausted mid-record");
  }
  return Status::OK();
}

Status SpillRegionReader::Fetch(std::size_t n, const uint8_t** out) {
  if (n > region_remaining_) {
    return Status::OutOfRange("fetch past end of spill region");
  }
  if (len_ - pos_ < n) {
    SPQ_RETURN_NOT_OK(Refill(n));
  }
  *out = buf_.data() + pos_;
  pos_ += n;
  region_remaining_ -= n;
  return Status::OK();
}

}  // namespace spq::mapreduce
