// A generic record type for the MapReduce runtime's own tests: a u64 key
// and a u64 value. The key's high 32 bits are the reduce group and its low
// 32 bits the secondary sort component, so the FlatShuffleTraits
// specialization below is the job's sort comparator ((group, order)
// ascending) and grouping comparator (equal group) in radix form.

#ifndef SPQ_TESTS_TESTING_U64_SHUFFLE_H_
#define SPQ_TESTS_TESTING_U64_SHUFFLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/job.h"
#include "mapreduce/merge.h"

namespace spq::mapreduce {

/// The value is the payload's first 8 bytes; the trailing 8 are its pool
/// slice, always empty.
template <>
struct FlatShuffleTraits<uint64_t, uint64_t> {
  static constexpr bool kEnabled = true;
  static constexpr uint32_t kPayloadStride = 16;
  using View = uint64_t;

  static uint64_t Bucket(uint64_t key) { return key >> 32; }
  static uint64_t OrderKey(uint64_t key) { return key & 0xffffffffull; }
  static uint64_t MakeKey(uint64_t bucket, uint64_t order_key) {
    return (bucket << 32) | order_key;
  }
  static uint64_t PoolBytes(uint64_t /*value*/) { return 0; }
  static void EncodePayload(uint64_t value, uint8_t* dst, uint8_t* /*pool*/,
                            uint64_t* pool_pos) {
    wire::StoreU64(dst, value);
    wire::StoreU32(dst + 8, static_cast<uint32_t>(*pool_pos));
    wire::StoreU32(dst + 12, 0);
  }
  static View MakeView(const uint8_t* payload, const uint8_t* /*span*/) {
    return wire::LoadU64(payload);
  }
};

}  // namespace spq::mapreduce

namespace spq::testing {

using U64Cursor = mapreduce::FlatGroupCursor<uint64_t, uint64_t>;

/// The key of `group` with secondary sort component `order`.
constexpr uint64_t U64Key(uint32_t group, uint32_t order = 0) {
  return (uint64_t{group} << 32) | order;
}
constexpr uint32_t GroupOf(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
constexpr uint32_t OrderOf(uint64_t key) {
  return static_cast<uint32_t>(key);
}

/// Routes a key by its group, so a group never spans two reduce tasks.
inline uint32_t GroupPartitioner(const uint64_t& key, uint32_t num_parts) {
  return GroupOf(key) % num_parts;
}

/// Sum of the values of one group.
struct GroupSum {
  uint32_t group;
  uint64_t sum;
};

/// Job over u64 inputs: input v goes to group v % num_groups, and each
/// group reduces to the sum of its inputs.
inline mapreduce::JobSpec<uint64_t, uint64_t, uint64_t, GroupSum>
GroupSumSpec(uint32_t num_groups) {
  class ModMapper : public mapreduce::Mapper<uint64_t, uint64_t, uint64_t> {
   public:
    explicit ModMapper(uint32_t num_groups) : num_groups_(num_groups) {}
    void Map(const uint64_t& v,
             mapreduce::MapContext<uint64_t, uint64_t>& ctx) override {
      ctx.Emit(U64Key(static_cast<uint32_t>(v % num_groups_)), v);
    }

   private:
    uint32_t num_groups_;
  };
  mapreduce::JobSpec<uint64_t, uint64_t, uint64_t, GroupSum> spec;
  spec.mapper_factory = [num_groups] {
    return std::make_unique<ModMapper>(num_groups);
  };
  spec.partitioner = GroupPartitioner;
  spec.flat_reducer_factory = [] {
    return [](const uint64_t& key, U64Cursor& values,
              mapreduce::ReduceContext<GroupSum>& ctx) {
      uint64_t sum = 0;
      while (values.Next()) sum += values.value();
      ctx.Emit({GroupOf(key), sum});
    };
  };
  return spec;
}

inline std::map<uint32_t, uint64_t> SumsByGroup(
    const std::vector<GroupSum>& records) {
  std::map<uint32_t, uint64_t> sums;
  for (const GroupSum& r : records) sums[r.group] = r.sum;
  return sums;
}

}  // namespace spq::testing

#endif  // SPQ_TESTS_TESTING_U64_SHUFFLE_H_
