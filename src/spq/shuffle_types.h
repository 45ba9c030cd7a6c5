#ifndef SPQ_SPQ_SHUFFLE_TYPES_H_
#define SPQ_SPQ_SHUFFLE_TYPES_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "mapreduce/codec.h"
#include "mapreduce/merge.h"
#include "spq/types.h"
#include "text/vocabulary.h"

namespace spq::core {

/// \brief The composite map-output key of Algorithms 1/3/5.
///
/// `cell` drives the Partitioner and the grouping comparator; `order`
/// drives the secondary sort inside a group:
///   pSPQ     — data 0, features 1 (tag; Algorithm 1)
///   eSPQlen  — data 0, features |f.W| (Algorithm 3)
///   eSPQsco  — data kDataOrderScore (< -1), features -w(f,q) so that one
///              ascending comparator yields decreasing score (Algorithm 5
///              uses +2 with a reversed comparator; equivalent).
struct CellKey {
  geo::CellId cell = 0;
  double order = 0.0;
};

/// Sentinel order that places data objects before any feature under the
/// eSPQsco ordering (feature orders lie in [-1, 0)).
inline constexpr double kDataOrderScore = -2.0;

/// The job's sort and grouping comparators, as the paper states them. The
/// flat shuffle never calls them: FlatShuffleTraits below encodes the same
/// order, and shuffle_types_test.cc pins the two against each other.
inline bool CellKeySortLess(const CellKey& a, const CellKey& b) {
  if (a.cell != b.cell) return a.cell < b.cell;
  return a.order < b.order;
}

inline bool CellKeyGroupEqual(const CellKey& a, const CellKey& b) {
  return a.cell == b.cell;
}

/// Cell-based partitioner. With R == number of cells (the paper's setup)
/// this is the identity; with fewer reducers, consecutive cells spread
/// round-robin so a hot region does not land on one reducer.
inline uint32_t CellPartitioner(const CellKey& key, uint32_t num_partitions) {
  return key.cell % num_partitions;
}

/// \brief Branchless bijection from double to a uint64 whose unsigned
/// ascending order equals the double's `<` order (for non-NaN values):
/// positive doubles get their sign bit flipped, negative doubles get all
/// bits flipped. -0.0 is first normalized to +0.0 so that values `<`
/// considers equal stay equal under the integer order — that is what lets
/// the flat shuffle sort `order` as a plain uint64_t and still reproduce
/// CellKeySortLess's order bit-for-bit.
inline uint64_t OrderedDoubleKey(double d) {
  d += 0.0;  // -0.0 -> +0.0
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  const uint64_t mask =
      static_cast<uint64_t>(-static_cast<int64_t>(bits >> 63)) |
      0x8000000000000000ull;
  return bits ^ mask;
}

/// Inverse of OrderedDoubleKey (up to the -0.0 normalization).
inline double OrderedKeyToDouble(uint64_t key) {
  const uint64_t mask = (key & 0x8000000000000000ull) != 0
                            ? 0x8000000000000000ull
                            : ~0ull;
  const uint64_t bits = key ^ mask;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// \brief The shuffled value: the entire (data or feature) object, exactly
/// as Algorithms 1/3/5 emit it. `kind` mirrors the x.tag of the paper.
///
/// The keyword list has two representations:
///   - owning: `keywords` holds the sorted term ids (dataset flattening and
///     the store's copies of flat record views produce this form);
///   - borrowed: `keyword_span`/`keyword_span_len` alias term storage owned
///     elsewhere and override `keywords`.
/// Borrowed objects are what makes Lemma-1 cell duplication O(1) per copy:
/// the mappers emit `Borrowed()` aliases of their input record, so the
/// map-input arena acts as the shared term pool and no emission clones the
/// keyword vector (see MapContext::Emit for the lifetime contract). Always
/// read the list through KeywordData()/KeywordCount(), never `keywords`
/// directly.
struct ShuffleObject {
  enum Kind : uint8_t { kData = 0, kFeature = 1 };

  uint8_t kind = kData;
  ObjectId id = 0;
  geo::Point pos;
  /// Sorted term ids; empty for data objects and for borrowed aliases.
  std::vector<text::TermId> keywords;
  /// When non-null, the keyword list lives in borrowed storage (the term
  /// pool) and `keywords` is ignored.
  const text::TermId* keyword_span = nullptr;
  uint32_t keyword_span_len = 0;

  bool is_data() const { return kind == kData; }
  bool is_feature() const { return kind == kFeature; }

  /// O(1) non-owning alias of this object: same scalars, keyword list
  /// referenced as a span into this object's storage. Valid only while the
  /// source object outlives every alias — the SPQ mappers alias their
  /// input records, which the runtime keeps alive for the whole job.
  ShuffleObject Borrowed() const {
    ShuffleObject o;
    o.kind = kind;
    o.id = id;
    o.pos = pos;
    o.keyword_span =
        keyword_span != nullptr ? keyword_span : keywords.data();
    o.keyword_span_len = keyword_span != nullptr
                             ? keyword_span_len
                             : static_cast<uint32_t>(keywords.size());
    return o;
  }
};

/// \brief Zero-copy view of one shuffled record in a flat-arena segment:
/// the scalar header by value, the keyword list as a span into the
/// segment's shared TermId pool. What the reduce cores consume on the
/// cold flat shuffle — no per-record vector, no decode.
///
/// Valid until the owning stream advances, except for data-object views
/// (empty keyword span), which hold no pool reference and may be retained
/// (the batched reducer caches them across groups).
struct ShuffleObjectView {
  uint8_t kind = ShuffleObject::kData;
  ObjectId id = 0;
  geo::Point pos;
  const text::TermId* keywords = nullptr;
  uint32_t num_keywords = 0;

  bool is_data() const { return kind == ShuffleObject::kData; }
  bool is_feature() const { return kind == ShuffleObject::kFeature; }
};

/// Uniform keyword-span access for the reduce cores, which are templated
/// over the record representation (ShuffleObjectView on the cold flat
/// shuffle, borrowed ShuffleObjects on the warm route), and for the flat
/// payload encoder, which must handle both the owning and borrowed
/// ShuffleObject forms.
inline const text::TermId* KeywordData(const ShuffleObject& x) {
  return x.keyword_span != nullptr ? x.keyword_span : x.keywords.data();
}
inline std::size_t KeywordCount(const ShuffleObject& x) {
  return x.keyword_span != nullptr ? x.keyword_span_len : x.keywords.size();
}
inline const text::TermId* KeywordData(const ShuffleObjectView& x) {
  return x.keywords;
}
inline std::size_t KeywordCount(const ShuffleObjectView& x) {
  return x.num_keywords;
}

/// Flat-arena payload codec for ShuffleObject values, used by the
/// FlatShuffleTraits<CellKey, ShuffleObject> specialization below. Payload
/// layout (kShufflePayloadStride bytes):
///   [0..8)   id        u64
///   [8..16)  pos.x     f64
///   [16..24) pos.y     f64
///   [24..28) kind      u32
///   [28..32) pool off  u32   (bytes; trailing span per the traits contract)
///   [32..36) pool len  u32   (bytes; num_keywords * sizeof(TermId))
/// The 36-byte stride keeps every field and every pool slice 4-aligned, so
/// keyword spans are read in place as const TermId*.
inline constexpr uint32_t kShufflePayloadStride = 36;

inline uint64_t ShufflePoolBytes(const ShuffleObject& v) {
  return KeywordCount(v) * sizeof(text::TermId);
}

inline void EncodeShufflePayload(const ShuffleObject& v, uint8_t* dst,
                                 uint8_t* pool, uint64_t* pool_pos) {
  namespace wire = mapreduce::wire;
  wire::StoreU64(dst, v.id);
  wire::StoreF64(dst + 8, v.pos.x);
  wire::StoreF64(dst + 16, v.pos.y);
  wire::StoreU32(dst + 24, v.kind);
  wire::StoreU32(dst + 28, static_cast<uint32_t>(*pool_pos));
  const std::size_t span_bytes = KeywordCount(v) * sizeof(text::TermId);
  wire::StoreU32(dst + 32, static_cast<uint32_t>(span_bytes));
  if (span_bytes > 0) {
    std::memcpy(pool + *pool_pos, KeywordData(v), span_bytes);
    *pool_pos += span_bytes;
  }
}

inline ShuffleObjectView MakeShuffleView(const uint8_t* payload,
                                         const uint8_t* span) {
  namespace wire = mapreduce::wire;
  ShuffleObjectView view;
  view.id = wire::LoadU64(payload);
  view.pos.x = wire::LoadF64(payload + 8);
  view.pos.y = wire::LoadF64(payload + 16);
  view.kind = static_cast<uint8_t>(wire::LoadU32(payload + 24));
  view.num_keywords =
      wire::LoadU32(payload + 32) / static_cast<uint32_t>(sizeof(text::TermId));
  view.keywords =
      span != nullptr ? reinterpret_cast<const text::TermId*>(span) : nullptr;
  return view;
}

}  // namespace spq::core

namespace spq::mapreduce {

/// Flat-shuffle radix structure of the single-query job: the bucket is
/// the cell (partitioning and grouping are cell-driven), the order key is
/// the sortable-uint image of the secondary sort component. (bucket asc,
/// order key asc) == CellKeySortLess; bucket equality == CellKeyGroupEqual.
template <>
struct FlatShuffleTraits<core::CellKey, core::ShuffleObject> {
  static constexpr bool kEnabled = true;
  static constexpr uint32_t kPayloadStride = core::kShufflePayloadStride;
  using View = core::ShuffleObjectView;

  static uint64_t Bucket(const core::CellKey& k) { return k.cell; }
  static uint64_t OrderKey(const core::CellKey& k) {
    return core::OrderedDoubleKey(k.order);
  }
  static core::CellKey MakeKey(uint64_t bucket, uint64_t order_key) {
    return core::CellKey{static_cast<geo::CellId>(bucket),
                         core::OrderedKeyToDouble(order_key)};
  }
  static uint64_t PoolBytes(const core::ShuffleObject& v) {
    return core::ShufflePoolBytes(v);
  }
  static void EncodePayload(const core::ShuffleObject& v, uint8_t* dst,
                            uint8_t* pool, uint64_t* pool_pos) {
    core::EncodeShufflePayload(v, dst, pool, pool_pos);
  }
  static View MakeView(const uint8_t* payload, const uint8_t* span) {
    return core::MakeShuffleView(payload, span);
  }
};

}  // namespace spq::mapreduce

#endif  // SPQ_SPQ_SHUFFLE_TYPES_H_
