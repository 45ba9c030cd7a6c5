// Unit tests of the reduce cores' `reduce.pairs_tested` accounting on a
// hand-built cell: a CellData, its built CellGridIndex, and a cursor over
// feature records with known `order` values. Every expected count is worked
// out by hand from the cell layout below. The last three tests stream rows
// through a cold (owned) group too; the last two (DistanceKernelTest) pin
// the inline distance test's boundary, NaN and signed-zero semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/counters.h"
#include "spq/algorithms.h"
#include "spq/reduce_core.h"

namespace spq::core::reduce_core {
namespace {

/// Nine data rows (id = 100 + row). A feature at kCentre with kRadius
/// reaches rows 2, 5 and 7 only. A probe from kCentre covers every bucket
/// of the index, so its candidates are all nine rows, in ascending order.
const std::vector<geo::Point> kRows = {
    {0.05, 0.05}, {0.95, 0.05}, {0.50, 0.55}, {0.05, 0.95}, {0.95, 0.95},
    {0.45, 0.50}, {0.50, 0.05}, {0.52, 0.48}, {0.05, 0.50}};
const geo::Point kCentre{0.5, 0.5};
constexpr double kRadius = 0.1;

/// A group's values over a fixed record list: the cores need only
/// Next()/key()/value().
struct VectorCursor {
  std::vector<std::pair<CellKey, ShuffleObject>> records;
  std::size_t next = 0;

  bool Next() {
    if (next == records.size()) return false;
    ++next;
    return true;
  }
  const CellKey& key() const { return records[next - 1].first; }
  const ShuffleObject& value() const { return records[next - 1].second; }
};

std::pair<CellKey, ShuffleObject> Feature(ObjectId id, double order,
                                          std::vector<text::TermId> terms) {
  ShuffleObject f;
  f.kind = ShuffleObject::kFeature;
  f.id = id;
  f.pos = kCentre;
  f.keywords = std::move(terms);
  return {CellKey{0, order}, std::move(f)};
}

/// Data record `row` of a cold group (id = 100 + row).
std::pair<CellKey, ShuffleObject> Data(std::size_t row, geo::Point pos) {
  ShuffleObject o;
  o.kind = ShuffleObject::kData;
  o.id = 100 + row;
  o.pos = pos;
  return {CellKey{0, 0.0}, std::move(o)};
}

/// Runs `algo` over `rows` (the nine-row cell by default), as a warm
/// (frozen) partition with `dead_rows` tombstoned. The index is built over
/// all rows, so only the cores' own dead-row masking keeps tombstoned rows
/// out of the count.
std::vector<ResultEntry> RunOnCell(
    Algorithm algo, const Query& query, VectorCursor cursor,
    const std::vector<uint32_t>& dead_rows, mapreduce::Counters& counters,
    const std::vector<geo::Point>& rows = kRows) {
  CellData cell;
  for (std::size_t row = 0; row < rows.size(); ++row) {
    cell.ids.push_back(100 + row);
    cell.positions.push_back(rows[row]);
  }
  CellGridIndex index;
  index.Build(cell.positions);
  FrozenCellRef ref{&cell, &index, &dead_rows};
  QueryScratch scratch;
  std::vector<ResultEntry> out;
  RunReduce(algo, query, ref, scratch, cursor, counters,
            [&out](const ResultEntry& e) { out.push_back(e); });
  return out;
}

Query MakeQuery(uint32_t k) {
  Query query;
  query.k = k;
  query.radius = kRadius;
  query.keywords = text::KeywordSet{1, 2};
  return query;
}

// eSPQsco, k = 2: the feature's candidates are rows 0..8; the hits are
// rows 2 and 5, so the second report lands on the 6th candidate and
// Lemma 3 stops there. The three past the stop (rows 6, 7, 8 — row 7 a
// hit) are never tested and not counted.
TEST(ReduceCoreTest, EspqScoCountsLanesUpToTheKthReport) {
  VectorCursor cursor;
  cursor.records.push_back(Feature(1, -0.5, {1}));
  cursor.records.push_back(Feature(2, -0.25, {2}));  // never examined
  mapreduce::Counters counters;
  const std::vector<ResultEntry> out =
      RunOnCell(Algorithm::kESPQSco, MakeQuery(2), cursor, {}, counters);

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 102u);
  EXPECT_EQ(out[1].id, 105u);
  EXPECT_EQ(out[0].score, 0.5);
  EXPECT_EQ(counters.Get(counter::kPairsTested), 6u);
  EXPECT_EQ(counters.Get(counter::kFeaturesExamined), 1u);
  EXPECT_EQ(counters.Get(counter::kEarlyTerminations), 1u);
  EXPECT_EQ(counters.Get(counter::kGroups), 1u);
}

// The same probe with rows 0 and 3 tombstoned: the tested candidates are
// rows 1, 2, 4, 5 — the dead rows before the stop are not counted.
TEST(ReduceCoreTest, EspqScoSkipsTombstonedRowsBeforeCounting) {
  VectorCursor cursor;
  cursor.records.push_back(Feature(1, -0.5, {1}));
  mapreduce::Counters counters;
  const std::vector<ResultEntry> out = RunOnCell(
      Algorithm::kESPQSco, MakeQuery(2), cursor, {0, 3}, counters);

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 102u);
  EXPECT_EQ(out[1].id, 105u);
  EXPECT_EQ(counters.Get(counter::kPairsTested), 4u);
  EXPECT_EQ(counters.Get(counter::kEarlyTerminations), 1u);
}

// pSPQ: feature A (w = 1) tests all nine rows and scores rows 2, 5, 7 at
// 1.0. Feature B (w = 0.5) probes the same nine rows, but only the six
// whose running score is below 0.5 get a distance test: 9 + 6 = 15.
TEST(ReduceCoreTest, PspqCountsOnlyCandidatesTheFeatureCanImprove) {
  VectorCursor cursor;
  cursor.records.push_back(Feature(1, 1.0, {1, 2}));
  cursor.records.push_back(Feature(2, 1.0, {1}));
  mapreduce::Counters counters;
  const std::vector<ResultEntry> out =
      RunOnCell(Algorithm::kPSPQ, MakeQuery(10), cursor, {}, counters);

  ASSERT_EQ(out.size(), 3u);
  for (const ResultEntry& e : out) EXPECT_EQ(e.score, 1.0) << e.id;
  EXPECT_EQ(counters.Get(counter::kPairsTested), 15u);
  EXPECT_EQ(counters.Get(counter::kFeaturesExamined), 2u);
}

// A cold (owned) group whose data records straddle its first feature:
// rows 0-4, feature A at kCentre (w = 1), rows 5-8, then feature B
// (w = 0.5) at (0.5, 0.1), whose disk holds only the late row 6. The
// index built for A covers rows 0-4; B's probe must rebuild it over all
// nine rows, or row 6 is never scored. A scores only row 2: rows 5 and 7
// arrive after it.
TEST(ReduceCoreTest, OwnedGroupIndexesDataThatArriveAfterAFeature) {
  VectorCursor cursor;
  const auto add_rows = [&cursor](std::size_t lo, std::size_t hi) {
    for (std::size_t row = lo; row < hi; ++row) {
      cursor.records.push_back(Data(row, kRows[row]));
    }
  };
  add_rows(0, 5);
  cursor.records.push_back(Feature(1, 1.0, {1, 2}));
  add_rows(5, kRows.size());
  cursor.records.push_back(Feature(2, 1.0, {1}));
  cursor.records.back().second.pos = {0.5, 0.1};
  mapreduce::Counters counters;
  std::vector<ResultEntry> out;
  RunReduceOwned(Algorithm::kPSPQ, MakeQuery(10), cursor, counters,
                 [&out](const ResultEntry& e) { out.push_back(e); });

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 102u);
  EXPECT_EQ(out[0].score, 1.0);
  EXPECT_EQ(out[1].id, 106u);
  EXPECT_EQ(out[1].score, 0.5);
  EXPECT_EQ(counters.Get(counter::kFeaturesExamined), 2u);
}

// ------------------------------------------------------- distance test
//
// DistanceKernelTest pins the reduce cores' distance test, `d² <= r²`
// evaluated inline per candidate (`geo::Distance2`), for all three
// algorithms, warm (frozen partition) and cold (owned group).

/// One feature (w = 1) at `centre` with radius `radius` over `rows`, run by
/// `algo` warm or cold. Every row must be a candidate and tested once, and
/// every report must score 1; returns the scored ids, sorted.
std::vector<ObjectId> ScoredRows(Algorithm algo,
                                 const std::vector<geo::Point>& rows,
                                 geo::Point centre, double radius, bool warm) {
  Query query = MakeQuery(10);
  query.radius = radius;
  VectorCursor cursor;
  if (!warm) {
    for (std::size_t row = 0; row < rows.size(); ++row) {
      cursor.records.push_back(Data(row, rows[row]));
    }
  }
  cursor.records.push_back(Feature(1, -1.0, {1, 2}));
  cursor.records.back().second.pos = centre;
  mapreduce::Counters counters;
  std::vector<ResultEntry> out;
  if (warm) {
    out = RunOnCell(algo, query, cursor, {}, counters, rows);
  } else {
    RunReduceOwned(algo, query, cursor, counters,
                   [&out](const ResultEntry& e) { out.push_back(e); });
  }
  const std::string label = AlgorithmName(algo) + (warm ? " warm" : " cold") +
                            " r=" + std::to_string(radius);
  EXPECT_EQ(counters.Get(counter::kPairsTested), rows.size()) << label;
  std::vector<ObjectId> got;
  for (const ResultEntry& e : out) {
    EXPECT_EQ(e.score, 1.0) << label << " id " << e.id;
    got.push_back(e.id);
  }
  std::sort(got.begin(), got.end());
  return got;
}

// A row exactly r = 5 from the feature (3-4-5: d² == r² == 25) scores; at
// one ulp of radius less it does not.
TEST(DistanceKernelTest, ExactBoundaryIsInside) {
  const std::vector<geo::Point> rows = {{3.0, 4.0}, {0.0, 0.0}};
  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    for (const bool warm : {true, false}) {
      const std::string label =
          AlgorithmName(algo) + (warm ? " warm" : " cold");
      EXPECT_EQ(ScoredRows(algo, rows, {0.0, 0.0}, 5.0, warm),
                (std::vector<ObjectId>{100, 101}))
          << label;
      EXPECT_EQ(ScoredRows(algo, rows, {0.0, 0.0}, std::nextafter(5.0, 0.0),
                           warm),
                (std::vector<ObjectId>{101}))
          << label;
    }
  }
}

// Rows with a NaN coordinate are tested but never score (`<=` is false on
// NaN); a (-0, -0) row under a feature at (-0, 0) is at distance 0 and
// scores, as does a row well inside the radius.
TEST(DistanceKernelTest, NanAndSignedZeroMatchScalarSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<geo::Point> rows = {
      {nan, 0.0}, {0.0, nan}, {-0.0, -0.0}, {1.0, 1.0}, {nan, nan}};
  for (Algorithm algo :
       {Algorithm::kPSPQ, Algorithm::kESPQLen, Algorithm::kESPQSco}) {
    for (const bool warm : {true, false}) {
      EXPECT_EQ(ScoredRows(algo, rows, {-0.0, 0.0}, 5.0, warm),
                (std::vector<ObjectId>{102, 103}))
          << AlgorithmName(algo) << (warm ? " warm" : " cold");
    }
  }
}

}  // namespace
}  // namespace spq::core::reduce_core
