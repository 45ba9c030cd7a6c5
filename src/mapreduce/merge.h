#ifndef SPQ_MAPREDUCE_MERGE_H_
#define SPQ_MAPREDUCE_MERGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mapreduce/codec.h"
#include "mapreduce/job.h"
#include "mapreduce/spill.h"

namespace spq::mapreduce {

/// The reduce half of the runtime's one shuffle (runtime.h): map tasks lay
/// each reduce partition out as a FlatSegment, and a reduce task merges
/// its segments through FlatMergeStream and walks the groups with
/// FlatGroupCursor.

/// \brief Radix-structure trait that makes a (K, V) record type runnable:
/// it carries the job's sort and grouping comparators (the paper's
/// Section 2.1 customization points) as integer keys, and the value's
/// fixed-stride encoding. The primary template is disabled; jobs opt in by
/// specializing it (see spq/shuffle_types.h).
///
/// An enabled specialization must provide:
///
///   static constexpr bool kEnabled = true;
///   static constexpr uint32_t kPayloadStride;   // fixed bytes per payload
///
///   // Radix decomposition of the composite key. The derived order —
///   // (Bucket asc, OrderKey asc, emission index asc) — must equal a
///   // stable sort under the job's sort comparator, and Bucket equality
///   // must equal the job's grouping comparator (flat groups are
///   // delimited by bucket changes).
///   static uint64_t Bucket(const K&);
///   static uint64_t OrderKey(const K&);
///   static K MakeKey(uint64_t bucket, uint64_t order_key);
///
///   // Zero-copy record view; plain value struct whose varlen fields
///   // point into the segment pool (or a streaming buffer, valid until
///   // the owning stream advances).
///   struct View;  // or `using View = ...;`
///
///   // Exact pool bytes the record's varlen data will occupy; lets the
///   // segment builder allocate the whole byte image once, up front.
///   static uint64_t PoolBytes(const V&);
///
///   // Writes exactly kPayloadStride bytes at `dst`. Varlen data is
///   // written at `pool + *pool_pos` (advancing *pool_pos by PoolBytes),
///   // and the payload's trailing 8 bytes MUST be the record's pool
///   // slice as (u32 byte offset, u32 byte length) — the generic readers
///   // use that contract to locate and stream the pool.
///   static void EncodePayload(const V&, uint8_t* dst, uint8_t* pool,
///                             uint64_t* pool_pos);
///
///   // `span` points at the record's pool slice (nullptr when empty).
///   static View MakeView(const uint8_t* payload, const uint8_t* span);
template <typename K, typename V>
struct FlatShuffleTraits {
  static constexpr bool kEnabled = false;
};

/// \brief One sorted run in the flat-arena layout. The byte image (also
/// the spill-file image) has three regions:
///
///   [ key rows : num_records x 16  — (u64 bucket, u64 order key) each ]
///   [ payloads : num_records x FlatShuffleTraits::kPayloadStride      ]
///   [ pool     : pool_bytes of varlen data (e.g. the TermId pool)     ]
///
/// Key rows live apart from payloads so the k-way merge touches only 16
/// hot bytes per record; payloads decode with plain loads into Views whose
/// varlen fields alias the shared pool (no per-record heap allocation).
/// Pool slices are appended in record order, so offsets are monotone and a
/// spilled segment streams through three sequential fixed-size cursors.
struct FlatSegment {
  std::vector<uint8_t> bytes;  ///< empty when the segment was spilled
  uint64_t num_records = 0;
  uint64_t pool_bytes = 0;
  std::string spill_path;
  uint64_t byte_size = 0;

  static constexpr uint64_t kKeyRowBytes = 16;
};

namespace internal {

/// Cursor over one FlatSegment: in-memory segments are walked zero-copy;
/// spilled segments stream through three SpillRegionReaders (key rows,
/// payloads, pool), each with a fixed-size buffer.
template <typename K, typename V>
class FlatSegmentReader {
  using Traits = FlatShuffleTraits<K, V>;
  static constexpr uint64_t kStride = Traits::kPayloadStride;

 public:
  explicit FlatSegmentReader(const FlatSegment* segment)
      : n_(segment->num_records) {
    const uint64_t keys_bytes = n_ * FlatSegment::kKeyRowBytes;
    const uint64_t payload_bytes = n_ * kStride;
    const uint64_t expected = keys_bytes + payload_bytes + segment->pool_bytes;
    if (segment->byte_size != expected) {
      status_ = Status::Internal("flat segment size mismatch");
      return;
    }
    if (!segment->spill_path.empty()) {
      spilled_ = true;
      // Cursors open the file transiently per refill, so a reduce task
      // merging many spilled segments holds no descriptors between reads.
      keys_cursor_.Open(segment->spill_path, 0, keys_bytes);
      payload_cursor_.Open(segment->spill_path, keys_bytes, payload_bytes);
      pool_cursor_.Open(segment->spill_path, keys_bytes + payload_bytes,
                        segment->pool_bytes);
    } else {
      keys_ = segment->bytes.data();
      payloads_ = keys_ + keys_bytes;
      pool_ = payloads_ + payload_bytes;
      pool_len_ = segment->pool_bytes;
    }
  }

  /// Advances to the next record; accessors are valid after a true return
  /// and stay valid until the next call. Errors latch into status().
  bool Next() {
    if (!status_.ok() || read_ >= n_) return false;
    if (spilled_) {
      const uint8_t* krow = nullptr;
      Status st = keys_cursor_.Fetch(FlatSegment::kKeyRowBytes, &krow);
      if (st.ok()) {
        bucket_ = wire::LoadU64(krow);
        order_key_ = wire::LoadU64(krow + 8);
        st = payload_cursor_.Fetch(kStride, &payload_);
      }
      if (st.ok()) {
        const uint32_t span_off = wire::LoadU32(payload_ + kStride - 8);
        const uint32_t span_len = wire::LoadU32(payload_ + kStride - 4);
        span_ = nullptr;
        if (span_len > 0) {
          // The sequential pool cursor is only sound when slices really
          // are appended in record order; verify against the stored
          // offset so a violating writer (or a corrupt file) fails loudly
          // instead of scoring against the wrong keywords.
          if (span_off != pool_pos_) {
            status_ = Status::Internal("flat segment pool not sequential");
            return false;
          }
          st = pool_cursor_.Fetch(span_len, &span_);
          pool_pos_ += span_len;
        }
      }
      if (!st.ok()) {
        status_ = st;
        return false;
      }
    } else {
      const uint8_t* krow = keys_ + read_ * FlatSegment::kKeyRowBytes;
      bucket_ = wire::LoadU64(krow);
      order_key_ = wire::LoadU64(krow + 8);
      payload_ = payloads_ + read_ * kStride;
      const uint32_t span_off = wire::LoadU32(payload_ + kStride - 8);
      const uint32_t span_len = wire::LoadU32(payload_ + kStride - 4);
      if (static_cast<uint64_t>(span_off) + span_len > pool_len_) {
        status_ = Status::Internal("flat segment pool span out of range");
        return false;
      }
      span_ = span_len > 0 ? pool_ + span_off : nullptr;
    }
    ++read_;
    return true;
  }

  uint64_t bucket() const { return bucket_; }
  uint64_t order_key() const { return order_key_; }
  typename Traits::View view() const {
    return Traits::MakeView(payload_, span_);
  }
  const Status& status() const { return status_; }

 private:
  uint64_t n_;
  uint64_t read_ = 0;
  // In-memory segment:
  const uint8_t* keys_ = nullptr;
  const uint8_t* payloads_ = nullptr;
  const uint8_t* pool_ = nullptr;
  uint64_t pool_len_ = 0;
  // Spilled segment:
  bool spilled_ = false;
  SpillRegionReader keys_cursor_;
  SpillRegionReader payload_cursor_;
  SpillRegionReader pool_cursor_;
  uint64_t pool_pos_ = 0;  ///< pool bytes consumed; must match span offsets
  // Current record:
  uint64_t bucket_ = 0;
  uint64_t order_key_ = 0;
  const uint8_t* payload_ = nullptr;
  const uint8_t* span_ = nullptr;
  Status status_;
};

}  // namespace internal

/// \brief K-way merge over flat-arena segments. A tournament loser tree
/// compares raw (bucket, order key, segment index) integer triples —
/// exactly ⌈log₂(k)⌉ comparisons per record, each against the loser stored
/// on the winner's leaf-to-root path, with no comparator indirection and
/// no key/value copies: value() hands out a zero-copy View that stays
/// valid until the next Advance (the winning reader refills lazily, on the
/// *following* Advance). Ties break by segment index, so the order is
/// deterministic and stable with respect to map task order.
template <typename K, typename V>
class FlatMergeStream {
  using Traits = FlatShuffleTraits<K, V>;

 public:
  explicit FlatMergeStream(const std::vector<const FlatSegment*>& segments) {
    readers_.reserve(segments.size());
    for (const FlatSegment* seg : segments) {
      readers_.push_back(
          std::make_unique<internal::FlatSegmentReader<K, V>>(seg));
    }
    exhausted_.assign(readers_.size(), 1);
    for (std::size_t i = 0; i < readers_.size(); ++i) {
      if (readers_[i]->Next()) {
        exhausted_[i] = 0;
      } else if (!readers_[i]->status().ok()) {
        status_ = readers_[i]->status();
      }
    }
    BuildLoserTree();
  }

  /// Loads the next record in global sorted order. False when exhausted or
  /// after a read error (check status()).
  bool Advance() {
    if (!status_.ok()) return false;
    if (current_loaded_) {
      current_loaded_ = false;
      if (!AdvanceWinner()) return false;
    }
    // A reduce partition no map task fed has no readers and no bracket.
    if (readers_.empty() || exhausted_[winner_]) return false;
    const auto* r = readers_[winner_].get();
    key_ = Traits::MakeKey(r->bucket(), r->order_key());
    current_loaded_ = true;
    return true;
  }

  uint64_t bucket() const { return readers_[winner_]->bucket(); }
  const K& key() const { return key_; }
  typename Traits::View value() const { return readers_[winner_]->view(); }
  const Status& status() const { return status_; }

 private:
  /// Reader order with exhausted readers after every live one, so an
  /// exhausted reader reaches the top only once all readers are.
  bool PlayoffLess(std::size_t a, std::size_t b) const {
    if (exhausted_[a] != exhausted_[b]) return !exhausted_[a];
    if (exhausted_[a]) return a < b;
    const auto* ra = readers_[a].get();
    const auto* rb = readers_[b].get();
    if (ra->bucket() != rb->bucket()) return ra->bucket() < rb->bucket();
    if (ra->order_key() != rb->order_key()) {
      return ra->order_key() < rb->order_key();
    }
    return a < b;  // deterministic tie-break by map task index
  }

  // Nodes 1..n-1 hold the loser of their subtree's playoff; reader i sits
  // at implicit leaf n+i (valid for any n >= 1: every internal node has
  // two children in [2, 2n), and with n = 1 the lone leaf is the root).
  // The bracket's shape does not affect the winner — PlayoffLess is a
  // strict total order, so the minimum always reaches the top.

  void BuildLoserTree() {
    const std::size_t n = readers_.size();
    if (n == 0) return;
    tree_.assign(n, 0);
    std::vector<std::size_t> win(2 * n);
    for (std::size_t j = n; j < 2 * n; ++j) win[j] = j - n;
    for (std::size_t j = n; j-- > 1;) {
      const std::size_t a = win[2 * j];
      const std::size_t b = win[2 * j + 1];
      const bool a_wins = PlayoffLess(a, b);
      win[j] = a_wins ? a : b;
      tree_[j] = a_wins ? b : a;
    }
    winner_ = win[1];
  }

  /// Refills the current winner and replays its leaf-to-root path: one
  /// comparison per level. False on a read error.
  bool AdvanceWinner() {
    const std::size_t w = winner_;
    if (!readers_[w]->Next()) {
      if (!readers_[w]->status().ok()) {
        status_ = readers_[w]->status();
        return false;
      }
      exhausted_[w] = 1;
    }
    std::size_t cur = w;
    for (std::size_t j = (readers_.size() + w) / 2; j >= 1; j /= 2) {
      if (PlayoffLess(tree_[j], cur)) std::swap(cur, tree_[j]);
    }
    winner_ = cur;
    return true;
  }

  std::vector<std::unique_ptr<internal::FlatSegmentReader<K, V>>> readers_;
  std::vector<uint8_t> exhausted_;  ///< per reader
  std::vector<std::size_t> tree_;  ///< loser ids at internal nodes 1..n-1
  std::size_t winner_ = 0;
  bool current_loaded_ = false;
  K key_{};
  Status status_;
};

/// \brief Cursor over the values of one reduce group (declared in job.h).
/// Groups are delimited by bucket changes — by the traits contract that
/// equals the job's grouping comparator. key() is the *full* composite key
/// of the current value, exactly like Hadoop, where the key object seen
/// inside reduce() changes as the value iterator advances (eSPQsco reads
/// the map-computed score from there). Next/key/value are direct
/// (non-virtual) calls and value() is a zero-copy View, which is what lets
/// the reduce cores score straight out of the segment arena. The group's
/// first record is already loaded in the stream at construction.
template <typename K, typename V>
class FlatGroupCursor {
 public:
  using View = typename FlatShuffleTraits<K, V>::View;

  FlatGroupCursor(FlatMergeStream<K, V>* stream, uint64_t group_bucket)
      : stream_(stream), group_bucket_(group_bucket) {}

  bool Next() {
    if (done_) return false;
    if (first_pending_) {
      first_pending_ = false;
      return true;
    }
    if (!stream_->Advance()) {
      done_ = true;
      next_group_loaded_ = false;
      return false;
    }
    if (stream_->bucket() != group_bucket_) {
      done_ = true;
      next_group_loaded_ = true;
      return false;
    }
    return true;
  }

  const K& key() const { return stream_->key(); }
  View value() const { return stream_->value(); }

  /// Drains any values the reducer did not consume (early termination) and
  /// reports whether the stream stopped on the first record of the next
  /// group (true) or at end-of-stream (false).
  bool FinishGroup() {
    while (Next()) {
    }
    return next_group_loaded_;
  }

 private:
  FlatMergeStream<K, V>* stream_;
  uint64_t group_bucket_;
  bool first_pending_ = true;
  bool done_ = false;
  bool next_group_loaded_ = false;
};

}  // namespace spq::mapreduce

#endif  // SPQ_MAPREDUCE_MERGE_H_
