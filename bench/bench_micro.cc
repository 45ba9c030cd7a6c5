// Google-benchmark microbenchmarks for the hot kernels under every figure:
// Jaccard merges, grid cell math and duplication targets, top-k updates,
// the flat shuffle's segment layout, and its k-way merge.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "geo/grid.h"
#include "mapreduce/merge.h"
#include "mapreduce/runtime.h"
#include "spq/shuffle_types.h"
#include "spq/topk.h"
#include "text/jaccard.h"

namespace spq {
namespace {

std::vector<text::TermId> RandomTerms(Rng& rng, std::size_t n,
                                      uint32_t vocab) {
  std::vector<text::TermId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(rng.NextUint32(vocab));
  return ids;
}

void BM_JaccardSorted(benchmark::State& state) {
  Rng rng(1);
  text::KeywordSet a(RandomTerms(rng, state.range(0), 1000));
  text::KeywordSet b(RandomTerms(rng, state.range(0), 1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaccardSorted(a.ids(), b.ids()));
  }
}
BENCHMARK(BM_JaccardSorted)->Arg(8)->Arg(55)->Arg(100);

// The reducers' shape: a short query (first arg) against long feature
// keyword lists — the case the galloping intersection targets.
void BM_JaccardSortedAsymmetric(benchmark::State& state) {
  Rng rng(11);
  text::KeywordSet q(RandomTerms(rng, state.range(0), 100'000));
  text::KeywordSet f(RandomTerms(rng, state.range(1), 100'000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaccardSorted(q.ids(), f.ids()));
  }
}
BENCHMARK(BM_JaccardSortedAsymmetric)
    ->Args({3, 100})
    ->Args({3, 1000})
    ->Args({10, 1000});

// Same shape through the threshold-aware entry: with a tight threshold
// the size-ratio bound skips the merge entirely.
void BM_JaccardSortedBounded(benchmark::State& state) {
  Rng rng(12);
  text::KeywordSet q(RandomTerms(rng, 3, 100'000));
  text::KeywordSet f(RandomTerms(rng, state.range(0), 100'000));
  const double threshold = 0.5;  // > min/max for every arg below
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::JaccardSortedBounded(q.ids().data(), q.ids().size(),
                                   f.ids().data(), f.ids().size(), threshold));
  }
}
BENCHMARK(BM_JaccardSortedBounded)->Arg(100)->Arg(1000);

void BM_JaccardUpperBound(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::JaccardUpperBound(3, 57));
  }
}
BENCHMARK(BM_JaccardUpperBound);

void BM_GridCellOf(benchmark::State& state) {
  auto grid = geo::UniformGrid::Make(geo::Rect{0, 0, 1, 1}, 50, 50);
  Rng rng(2);
  std::vector<geo::Point> points(1024);
  for (auto& p : points) p = {rng.NextDouble(), rng.NextDouble()};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid->CellOf(points[i++ & 1023]));
  }
}
BENCHMARK(BM_GridCellOf);

void BM_GridDuplicationTargets(benchmark::State& state) {
  auto grid = geo::UniformGrid::Make(geo::Rect{0, 0, 1, 1}, 50, 50);
  const double r = 0.02 * static_cast<double>(state.range(0)) / 100.0;
  Rng rng(3);
  std::vector<geo::Point> points(1024);
  for (auto& p : points) p = {rng.NextDouble(), rng.NextDouble()};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid->CellsWithinDist(points[i++ & 1023], r));
  }
}
BENCHMARK(BM_GridDuplicationTargets)->Arg(10)->Arg(50)->Arg(100);

void BM_TopKUpdate(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::pair<core::ObjectId, double>> updates(4096);
  for (auto& u : updates) {
    u = {rng.NextUint64(500), rng.NextDouble()};
  }
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    core::TopKList lk(k);
    for (const auto& [id, score] : updates) lk.Update(id, score);
    benchmark::DoNotOptimize(lk.Threshold());
  }
  state.SetItemsProcessed(state.iterations() * updates.size());
}
BENCHMARK(BM_TopKUpdate)->Arg(10)->Arg(100);

// The shuffle's k-way merge on realistic SPQ records: `fan_in` segments
// of 512 pre-bucketed (CellKey, ShuffleObject) records merged through the
// loser tree into zero-copy views. The fan-in is the number of map tasks
// feeding one reduce partition.
void BM_FlatMerge(benchmark::State& state) {
  const std::size_t fan_in = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  std::vector<mapreduce::FlatSegment> segments;
  for (std::size_t s = 0; s < fan_in; ++s) {
    std::vector<std::pair<core::CellKey, core::ShuffleObject>> records(512);
    for (auto& [k, v] : records) {
      k.cell = rng.NextUint32(100);
      k.order = -rng.NextDouble();
      v.kind = core::ShuffleObject::kFeature;
      v.id = rng.NextUint64();
      v.pos = {rng.NextDouble(), rng.NextDouble()};
      v.keywords = text::KeywordSet(RandomTerms(rng, 8, 10'000)).ids();
    }
    segments.push_back(
        *mapreduce::internal::BuildFlatSegment<core::CellKey,
                                               core::ShuffleObject>(records));
  }
  std::vector<const mapreduce::FlatSegment*> ptrs;
  for (const auto& s : segments) ptrs.push_back(&s);
  for (auto _ : state) {
    mapreduce::FlatMergeStream<core::CellKey, core::ShuffleObject> stream(
        ptrs);
    uint64_t sum = 0;
    while (stream.Advance()) sum += stream.value().id;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * fan_in * 512);
}
BENCHMARK(BM_FlatMerge)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(32)->Arg(64);

// Map-side layout step: cell bucketing + u64 order-key sort into the flat
// arena (BuildFlatSegment). The emitted records are copied inside the
// timed loop, as a map task's partition buffer would be filled.
void BM_MapSortEncodeBucketed(benchmark::State& state) {
  Rng rng(8);
  std::vector<std::pair<core::CellKey, core::ShuffleObject>> records(4096);
  for (auto& [k, v] : records) {
    k.cell = rng.NextUint32(100);
    k.order = -rng.NextDouble();
    v.kind = core::ShuffleObject::kFeature;
    v.id = rng.NextUint64();
    v.keywords = text::KeywordSet(RandomTerms(rng, 8, 10'000)).ids();
  }
  for (auto _ : state) {
    auto copy = records;
    auto seg = mapreduce::internal::BuildFlatSegment<core::CellKey,
                                                     core::ShuffleObject>(
        copy);
    benchmark::DoNotOptimize(seg->byte_size);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_MapSortEncodeBucketed);

}  // namespace
}  // namespace spq

BENCHMARK_MAIN();
