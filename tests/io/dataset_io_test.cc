#include "io/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/buffer.h"
#include "datagen/generator.h"

namespace spq::io {
namespace {

using core::Dataset;

Dataset SampleDataset() {
  auto dataset = datagen::MakeUniformDataset(
      {.num_objects = 500, .seed = 21, .vocab_size = 40,
       .min_keywords = 1, .max_keywords = 6});
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.bounds, b.bounds);
  ASSERT_EQ(a.data.size(), b.data.size());
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_EQ(a.data[i].id, b.data[i].id);
    EXPECT_EQ(a.data[i].pos, b.data[i].pos);
  }
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    EXPECT_EQ(a.features[i].id, b.features[i].id);
    EXPECT_EQ(a.features[i].pos, b.features[i].pos);
    EXPECT_EQ(a.features[i].keywords, b.features[i].keywords);
  }
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// One NaN or infinite value planted in an otherwise valid dataset, and
/// the row each parser must name when it rejects it.
struct NonFiniteCase {
  std::string name;
  Dataset dataset;
  std::string binary_row;  // DecodeDataset's name for the row
  std::size_t tsv_line;    // the row's line in SaveDatasetTsv's output
};

/// NaN, +inf and -inf in each coordinate of a data row and a feature row
/// and in each bounds field. SaveDatasetTsv writes the bounds header on
/// line 1, then the two data rows, then the two feature rows.
std::vector<NonFiniteCase> NonFiniteCases() {
  Dataset base;
  base.bounds = {0, 0, 1, 1};
  base.data = {{1, {0.1, 0.2}}, {2, {0.3, 0.4}}};
  for (core::ObjectId id : {3, 4}) {
    core::FeatureObject f;
    f.id = id;
    f.pos = {0.5, 0.6};
    f.keywords = text::KeywordSet({4, 5});
    base.features.push_back(f);
  }
  struct Target {
    const char* name;
    double* (*field)(Dataset&);
    const char* binary_row;
    std::size_t tsv_line;
  };
  const Target targets[] = {
      {"data x", [](Dataset& d) { return &d.data[1].pos.x; },
       "data row 1", 3},
      {"data y", [](Dataset& d) { return &d.data[1].pos.y; },
       "data row 1", 3},
      {"feature x", [](Dataset& d) { return &d.features[1].pos.x; },
       "feature row 1", 5},
      {"feature y", [](Dataset& d) { return &d.features[1].pos.y; },
       "feature row 1", 5},
      {"bounds min_x", [](Dataset& d) { return &d.bounds.min_x; },
       "bounds", 1},
      {"bounds min_y", [](Dataset& d) { return &d.bounds.min_y; },
       "bounds", 1},
      {"bounds max_x", [](Dataset& d) { return &d.bounds.max_x; },
       "bounds", 1},
      {"bounds max_y", [](Dataset& d) { return &d.bounds.max_y; },
       "bounds", 1},
  };
  const std::pair<const char*, double> values[] = {
      {"NaN", std::numeric_limits<double>::quiet_NaN()},
      {"+inf", std::numeric_limits<double>::infinity()},
      {"-inf", -std::numeric_limits<double>::infinity()}};
  std::vector<NonFiniteCase> cases;
  for (const auto& [value_name, value] : values) {
    for (const Target& target : targets) {
      NonFiniteCase c{std::string(value_name) + " in " + target.name, base,
                      target.binary_row, target.tsv_line};
      *target.field(c.dataset) = value;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

TEST(BinaryFormatTest, EncodeDecodeRoundTrip) {
  Dataset dataset = SampleDataset();
  auto decoded = DecodeDataset(EncodeDataset(dataset));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectDatasetsEqual(dataset, *decoded);
}

TEST(BinaryFormatTest, EmptyDatasetRoundTrip) {
  Dataset dataset;
  dataset.bounds = {0, 0, 1, 1};
  auto decoded = DecodeDataset(EncodeDataset(dataset));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->data.empty());
  EXPECT_TRUE(decoded->features.empty());
}

TEST(BinaryFormatTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = EncodeDataset(SampleDataset());
  bytes[0] = 'X';
  EXPECT_TRUE(DecodeDataset(bytes).status().IsInvalidArgument());
}

TEST(BinaryFormatTest, RejectsTruncation) {
  std::vector<uint8_t> bytes = EncodeDataset(SampleDataset());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DecodeDataset(bytes).ok());
}

TEST(BinaryFormatTest, RejectsTrailingGarbage) {
  std::vector<uint8_t> bytes = EncodeDataset(SampleDataset());
  bytes.push_back(0xFF);
  EXPECT_TRUE(DecodeDataset(bytes).status().IsInvalidArgument());
}

// Element counts the payload cannot hold are rejected as InvalidArgument
// before anything is reserved for them: reserving a lying 2^62-element
// count used to throw std::length_error and abort the process.
TEST(BinaryFormatTest, RejectsLyingCounts) {
  constexpr uint64_t kHuge = uint64_t{1} << 62;
  // Magic and bounds; the rows follow.
  auto header = [] {
    Buffer buf;
    buf.PutBytes("SPQD1", 5);
    for (double v : {0.0, 0.0, 1.0, 1.0}) buf.PutDouble(v);
    return buf;
  };
  auto feature_row = [](Buffer& buf, uint64_t keyword_count) {
    buf.PutVarint(7);
    buf.PutDouble(0.5);
    buf.PutDouble(0.5);
    buf.PutVarint(keyword_count);
    buf.PutVarint(3);  // one keyword's bytes
  };
  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Case> cases;
  {
    Buffer buf = header();
    buf.PutVarint(kHuge);
    cases.push_back({"huge data count", buf.TakeBytes()});
  }
  {
    Buffer buf = header();
    buf.PutVarint(0);
    buf.PutVarint(kHuge);
    cases.push_back({"huge feature count", buf.TakeBytes()});
  }
  {
    Buffer buf = header();
    buf.PutVarint(0);
    buf.PutVarint(1);
    feature_row(buf, kHuge);
    cases.push_back({"huge keyword count", buf.TakeBytes()});
  }
  {
    // Three 17-byte data rows and a feature count byte: 52 bytes hold
    // three rows, not the four claimed.
    Dataset dataset;
    dataset.bounds = {0, 0, 1, 1};
    dataset.data = {{1, {0.1, 0.1}}, {2, {0.2, 0.2}}, {3, {0.3, 0.3}}};
    std::vector<uint8_t> bytes = EncodeDataset(dataset);
    ASSERT_EQ(bytes[5 + 32], 3);  // the data count varint
    bytes[5 + 32] = 4;
    cases.push_back({"data count one past the payload", std::move(bytes)});
  }
  {
    // One keyword byte left after the count, which claims two.
    Buffer buf = header();
    buf.PutVarint(0);
    buf.PutVarint(1);
    feature_row(buf, 2);
    cases.push_back({"keyword count one past the payload", buf.TakeBytes()});
  }
  for (const Case& c : cases) {
    auto decoded = DecodeDataset(c.bytes);
    EXPECT_TRUE(decoded.status().IsInvalidArgument())
        << c.name << ": " << decoded.status().ToString();
  }
}

// NaN and infinite coordinates and bounds have no grid cell; the decoder
// rejects them as InvalidArgument naming the row. The bytes come from
// EncodeDataset, so only the planted value is hostile.
TEST(BinaryFormatTest, RejectsNonFiniteValues) {
  for (const NonFiniteCase& c : NonFiniteCases()) {
    auto decoded = DecodeDataset(EncodeDataset(c.dataset));
    ASSERT_TRUE(decoded.status().IsInvalidArgument())
        << c.name << ": " << decoded.status().ToString();
    EXPECT_NE(decoded.status().ToString().find(c.binary_row),
              std::string::npos)
        << c.name << ": " << decoded.status().ToString();
  }
}

TEST(DfsDatasetTest, StoreAndLoadThroughDfs) {
  dfs::MiniDfs dfs({.num_datanodes = 5, .block_size = 4096,
                    .replication = 3});
  Dataset dataset = SampleDataset();
  ASSERT_TRUE(StoreDataset(dfs, "datasets/un", dataset).ok());
  auto loaded = LoadDataset(dfs, "datasets/un");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(dataset, *loaded);
  // Dataset spans multiple blocks (block_size is small).
  auto meta = dfs.GetMetadata("datasets/un");
  ASSERT_TRUE(meta.ok());
  EXPECT_GT(meta->blocks.size(), 1u);
}

TEST(DfsDatasetTest, LoadSurvivesNodeFailures) {
  dfs::MiniDfs dfs({.num_datanodes = 6, .block_size = 2048,
                    .replication = 3, .seed = 5});
  Dataset dataset = SampleDataset();
  ASSERT_TRUE(StoreDataset(dfs, "d", dataset).ok());
  dfs.datanode(0).Kill();
  dfs.datanode(3).Kill();
  auto loaded = LoadDataset(dfs, "d");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(dataset, *loaded);
}

TEST(TsvFormatTest, RoundTripWithNumericIds) {
  const std::string path = TempPath("spq_tsv_numeric.tsv");
  Dataset dataset = SampleDataset();
  ASSERT_TRUE(SaveDatasetTsv(path, dataset).ok());
  auto loaded = LoadDatasetTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(dataset, *loaded);
  std::remove(path.c_str());
}

TEST(TsvFormatTest, RoundTripWithVocabulary) {
  const std::string path = TempPath("spq_tsv_vocab.tsv");
  text::Vocabulary vocab;
  Dataset dataset;
  dataset.bounds = {0, 0, 10, 10};
  dataset.data = {{1, {4.6, 4.8}}};
  core::FeatureObject f;
  f.id = 2;
  f.pos = {3.8, 5.5};
  f.keywords = text::KeywordSet(
      {vocab.Intern("italian"), vocab.Intern("gourmet")});
  dataset.features.push_back(f);
  ASSERT_TRUE(SaveDatasetTsv(path, dataset, &vocab).ok());

  text::Vocabulary fresh;
  auto loaded = LoadDatasetTsv(path, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->features.size(), 1u);
  EXPECT_EQ(loaded->features[0].keywords.size(), 2u);
  EXPECT_TRUE(fresh.Lookup("italian").ok());
  EXPECT_TRUE(fresh.Lookup("gourmet").ok());
  std::remove(path.c_str());
}

TEST(TsvFormatTest, MissingBoundsHeaderRejected) {
  const std::string path = TempPath("spq_tsv_nobounds.tsv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("D\t1\t0.5\t0.5\n", f);
    std::fclose(f);
  }
  EXPECT_TRUE(LoadDatasetTsv(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(TsvFormatTest, BadRowsRejected) {
  const std::string path = TempPath("spq_tsv_bad.tsv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# bounds\t0\t0\t1\t1\n", f);
    std::fputs("Q\t1\t0.5\t0.5\n", f);  // unknown tag
    std::fclose(f);
  }
  EXPECT_TRUE(LoadDatasetTsv(path).status().IsInvalidArgument());
  // NaN and infinite values, written by SaveDatasetTsv, do not parse as
  // numbers: the row is rejected by file and line.
  for (const NonFiniteCase& c : NonFiniteCases()) {
    ASSERT_TRUE(SaveDatasetTsv(path, c.dataset).ok()) << c.name;
    auto loaded = LoadDatasetTsv(path);
    ASSERT_TRUE(loaded.status().IsInvalidArgument())
        << c.name << ": " << loaded.status().ToString();
    const std::string where = path + ":" + std::to_string(c.tsv_line) + ":";
    EXPECT_NE(loaded.status().ToString().find(where), std::string::npos)
        << c.name << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(TsvFormatTest, NonNumericTermWithoutVocabRejected) {
  const std::string path = TempPath("spq_tsv_terms.tsv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# bounds\t0\t0\t1\t1\n", f);
    std::fputs("F\t1\t0.5\t0.5\titalian\n", f);
    std::fclose(f);
  }
  EXPECT_TRUE(LoadDatasetTsv(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

// A feature with no keywords is written with an empty keyword field; the
// reader must take it back as an empty KeywordSet, as the binary format
// does, and keep reading the rows after it.
TEST(TsvFormatTest, KeywordlessFeatureRoundTrips) {
  const std::string path = TempPath("spq_tsv_keywordless.tsv");
  Dataset dataset;
  dataset.bounds = {0, 0, 1, 1};
  dataset.data = {{1, {0.25, 0.5}}};
  core::FeatureObject bare;
  bare.id = 2;
  bare.pos = {0.5, 0.5};
  core::FeatureObject tagged;
  tagged.id = 3;
  tagged.pos = {0.75, 0.25};
  tagged.keywords = text::KeywordSet{4, 9};
  dataset.features = {bare, tagged, bare};
  dataset.features.back().id = 4;

  ASSERT_TRUE(SaveDatasetTsv(path, dataset).ok());
  auto loaded = LoadDatasetTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(dataset, *loaded);
  EXPECT_TRUE(loaded->features[0].keywords.empty());

  auto decoded = DecodeDataset(EncodeDataset(dataset));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectDatasetsEqual(dataset, *decoded);
  std::remove(path.c_str());
}

// Without a vocabulary a term token is a 32-bit TermId: a negative token
// or one past UINT32_MAX is rejected by file and line, never wrapped into
// another term.
TEST(TsvFormatTest, OutOfRangeTermIdsRejected) {
  const std::string path = TempPath("spq_tsv_term_range.tsv");
  const auto load_row = [&path](const std::string& terms) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# bounds\t0\t0\t1\t1\n", f);
    std::fputs("D\t1\t0.5\t0.5\n", f);
    std::fputs(("F\t2\t0.5\t0.5\t" + terms + "\n").c_str(), f);
    std::fclose(f);
    return LoadDatasetTsv(path);
  };
  for (const char* terms :
       {"4294967296", "4294967297", "3,18446744073709551616", "-1", "7,-0"}) {
    auto loaded = load_row(terms);
    ASSERT_TRUE(loaded.status().IsInvalidArgument())
        << terms << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find(path + ":3:"),
              std::string::npos)
        << terms << ": " << loaded.status().ToString();
  }
  // The largest TermId still loads as itself.
  auto loaded = load_row("0,4294967295");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->features[0].keywords,
            (text::KeywordSet{0, std::numeric_limits<text::TermId>::max()}));
  std::remove(path.c_str());
}

TEST(TsvFormatTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadDatasetTsv("/nonexistent/path.tsv").status().IsIOError());
}

TEST(MakeEngineFromDfsTest, LoadsAndAnswersQueries) {
  dfs::MiniDfs cluster({.num_datanodes = 4, .block_size = 8192,
                        .replication = 2});
  Dataset dataset = SampleDataset();
  ASSERT_TRUE(StoreDataset(cluster, "d", dataset).ok());
  auto engine = MakeEngineFromDfs(cluster, "d",
                                  core::EngineOptions{.grid_size = 5});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  core::Query q;
  q.k = 3;
  q.radius = 0.05;
  q.keywords = text::KeywordSet({1, 2});
  auto result = (*engine)->Execute(q, core::Algorithm::kESPQSco);
  ASSERT_TRUE(result.ok());
  // Matches an engine built directly from the dataset.
  core::SpqEngine direct(dataset, core::EngineOptions{.grid_size = 5});
  auto expected = direct.Execute(q, core::Algorithm::kESPQSco);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(result->entries.size(), expected->entries.size());
  for (std::size_t i = 0; i < result->entries.size(); ++i) {
    EXPECT_EQ(result->entries[i].id, expected->entries[i].id);
    EXPECT_DOUBLE_EQ(result->entries[i].score, expected->entries[i].score);
  }
}

TEST(MakeEngineFromDfsTest, MissingFilePropagates) {
  dfs::MiniDfs cluster;
  EXPECT_TRUE(MakeEngineFromDfs(cluster, "nope").status().IsNotFound());
}

}  // namespace
}  // namespace spq::io
