#ifndef SPQ_MAPREDUCE_SPILL_H_
#define SPQ_MAPREDUCE_SPILL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "mapreduce/fault.h"

namespace spq::mapreduce {

/// \brief Disk persistence for map-output segments (Hadoop spill files).
///
/// With JobConfig::spill_dir set, every sorted map-output segment is
/// written to its own file and dropped from memory; reduce tasks read the
/// files back when they merge. This bounds the runtime's resident shuffle
/// memory to the segments a reduce task is actively merging, at the cost
/// of one write + one read per segment — exactly Hadoop's trade.
///
/// On-disk framing: spill files are checksummed per page, like HDFS's
/// per-chunk CRCs. The payload ("body") is written verbatim at offset 0 —
/// so region offsets into the segment image stay plain body offsets —
/// followed by a CRC-32C table (one u32 per kSpillPageBytes page of body)
/// and a fixed trailer {body_len u64, page_size u32, n_pages u32,
/// table_crc u32, magic u32}. Readers verify each page before serving its
/// bytes: corruption (bit rot, torn writes, injected faults) surfaces as
/// IOError — never as garbage records.

/// Body bytes covered by one CRC entry (the HDFS-style checksum chunk).
inline constexpr std::size_t kSpillPageBytes = 64 * 1024;
/// Fixed trailer size in bytes; the CRC table sits immediately before it.
inline constexpr std::size_t kSpillTrailerBytes = 24;

/// \brief RAII activation of deterministic storage-fault injection for
/// spill I/O on the current thread (FaultSpec::storage_fault_prob).
///
/// The job runtime scopes one of these around each map attempt's spill
/// writes and each reduce attempt's spill reads, salting the fault sites
/// with (run, task, attempt) — a retried attempt therefore re-rolls its
/// faults and converges. Inactive (zero-cost reads aside) when `spec` is
/// null or has no storage faults. Not nestable; thread-local.
class ScopedStorageFaults {
 public:
  ScopedStorageFaults(const FaultSpec* spec, uint64_t salt);
  ~ScopedStorageFaults();

  ScopedStorageFaults(const ScopedStorageFaults&) = delete;
  ScopedStorageFaults& operator=(const ScopedStorageFaults&) = delete;
};

/// Writes `bytes` to `path` with page-CRC framing (creating parent
/// directories). Overwrites. Under an active ScopedStorageFaults scope the
/// write may be deterministically torn or bit-flipped, and is then read
/// back and verified (the HDFS write-pipeline ack): a faulted image
/// surfaces as IOError here so the task attempt can retry.
Status WriteSpillFile(const std::string& path,
                      const std::vector<uint8_t>& bytes);

/// Reads a spill file's body back in full, verifying the framing and every
/// page CRC. IOError on any mismatch — corrupt bytes are never returned.
StatusOr<std::vector<uint8_t>> ReadSpillFile(const std::string& path);

/// Deletes a spill file; missing files are not an error (idempotent).
void RemoveSpillFile(const std::string& path);

/// Returns a collision-free spill path for map task `map_task`, reduce
/// partition `reduce_part` of run `run_id` under `dir`.
std::string SpillPath(const std::string& dir, uint64_t run_id,
                      uint32_t map_task, uint32_t reduce_part);

/// Process-unique run id for spill file naming.
uint64_t NextSpillRunId();

/// \brief Sequential reader over one byte region of a spill file through a
/// fixed-size buffer, so reduce tasks never hold whole segments in memory.
/// The one windowed-streaming primitive of the runtime: a spilled
/// FlatSegment streams through three of them (key rows, payloads, pool;
/// merge.h).
///
/// Fetch(n) returns a pointer to the region's next n contiguous bytes,
/// refilling from disk as needed; the pointer stays valid until the next
/// Fetch. The buffer grows beyond `buffer_capacity` only when a single
/// Fetch needs it, and shrinks back on the next refill. As long as every
/// Fetch size is a multiple of A and the region offset is A-aligned, Fetch
/// pointers are A-aligned (refills compact to the buffer front).
///
/// The file is opened transiently per refill (open, seek, read one
/// buffer, close), never held across Fetches: a reduce task merging M
/// spilled segments with 3 region cursors each would otherwise pin 3*M
/// descriptors for the whole merge and exhaust the fd limit under high
/// fan-in — the open cost is a few microseconds per 64 KiB, only on the
/// out-of-core path.
class SpillRegionReader {
 public:
  static constexpr std::size_t kDefaultBufferBytes = 64 * 1024;

  SpillRegionReader() = default;
  SpillRegionReader(SpillRegionReader&&) = default;
  SpillRegionReader& operator=(SpillRegionReader&&) = default;

  /// Positions the reader at byte `offset` of `path`; the region spans
  /// `length` bytes. Fetching past the region fails OutOfRange; a
  /// missing/unreadable file surfaces as IOError on the first Fetch that
  /// needs it.
  void Open(std::string path, uint64_t offset, uint64_t length,
            std::size_t buffer_capacity = kDefaultBufferBytes);

  /// Next `n` bytes of the region; valid until the next Fetch.
  Status Fetch(std::size_t n, const uint8_t** out);

  /// Bytes of the region not yet returned by Fetch.
  uint64_t remaining() const { return region_remaining_; }

 private:
  static constexpr uint64_t kNoPage = ~0ull;

  /// Compacts the buffer and reads from disk until it holds `need`
  /// unfetched bytes, taking whole page remainders that fit (one transient
  /// open per call). Every byte served is copied out of a CRC-verified
  /// page; a region reaching past the framed body length is truncated
  /// (OutOfRange).
  Status Refill(std::size_t need);
  /// Lazily parses + verifies the file's framing trailer and CRC table.
  Status EnsureFraming(std::ifstream& in);
  /// Loads body page `page` into scratch_ and verifies its CRC (cached, so
  /// sub-page refills re-read at most one page). IOError on short reads or
  /// checksum mismatch — injected or real.
  Status LoadPage(std::ifstream& in, uint64_t page, uint64_t page_start,
                  std::size_t page_len);

  std::string path_;
  uint64_t next_read_offset_ = 0;  ///< body offset of the next refill
  std::vector<uint8_t> buf_;
  std::size_t capacity_ = 0;
  std::size_t pos_ = 0;            ///< fetched bytes within buf_
  std::size_t len_ = 0;            ///< valid bytes within buf_
  uint64_t file_remaining_ = 0;    ///< region bytes not yet read from disk
  uint64_t region_remaining_ = 0;  ///< region bytes not yet fetched

  // Framing state (loaded lazily on the first refill).
  bool framing_loaded_ = false;
  uint64_t body_len_ = 0;
  uint32_t page_size_ = 0;
  std::vector<uint32_t> page_crcs_;
  std::vector<uint8_t> scratch_;   ///< last verified page
  uint64_t cached_page_ = kNoPage;
};

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_SPILL_H_
