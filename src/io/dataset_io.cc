#include "io/dataset_io.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "common/buffer.h"
#include "mapreduce/codec.h"

namespace spq::io {

namespace {

constexpr char kMagic[] = "SPQD1";
constexpr std::size_t kMagicLen = 5;

/// Rejects a row count the rest of the payload cannot hold, before
/// anything is reserved for it (a lying count would abort the process).
/// A data row takes at least 17 bytes (one-byte varint id, two doubles), a
/// feature row 18 (plus a one-byte keyword count).
Status CheckRowCount(uint64_t count, uint64_t min_row_bytes,
                     const BufferReader& reader) {
  if (count <= reader.remaining() / min_row_bytes) return Status::OK();
  return Status::InvalidArgument("row count " + std::to_string(count) +
                                 " exceeds the payload");
}

/// Coordinates and bounds must be finite: a NaN or infinite value has no
/// grid cell to live in. The binary decoder rejects such a row, naming it;
/// the TSV reader's stream extraction already fails on one.
bool AllFinite(std::initializer_list<double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Status NonFinite(const std::string& row) {
  return Status::InvalidArgument(row + ": non-finite coordinate");
}

}  // namespace

std::vector<uint8_t> EncodeDataset(const core::Dataset& dataset) {
  Buffer buf;
  buf.PutBytes(kMagic, kMagicLen);
  buf.PutDouble(dataset.bounds.min_x);
  buf.PutDouble(dataset.bounds.min_y);
  buf.PutDouble(dataset.bounds.max_x);
  buf.PutDouble(dataset.bounds.max_y);
  buf.PutVarint(dataset.data.size());
  for (const auto& p : dataset.data) {
    buf.PutVarint(p.id);
    buf.PutDouble(p.pos.x);
    buf.PutDouble(p.pos.y);
  }
  buf.PutVarint(dataset.features.size());
  for (const auto& f : dataset.features) {
    buf.PutVarint(f.id);
    buf.PutDouble(f.pos.x);
    buf.PutDouble(f.pos.y);
    mapreduce::Codec<std::vector<text::TermId>>::Encode(f.keywords.ids(),
                                                        buf);
  }
  return buf.TakeBytes();
}

StatusOr<core::Dataset> DecodeDataset(const std::vector<uint8_t>& bytes) {
  BufferReader reader(bytes.data(), bytes.size());
  char magic[kMagicLen];
  SPQ_RETURN_NOT_OK(reader.GetBytes(magic, kMagicLen));
  if (std::string(magic, kMagicLen) != kMagic) {
    return Status::InvalidArgument("not an SPQD1 dataset");
  }
  core::Dataset dataset;
  SPQ_RETURN_NOT_OK(reader.GetDouble(&dataset.bounds.min_x));
  SPQ_RETURN_NOT_OK(reader.GetDouble(&dataset.bounds.min_y));
  SPQ_RETURN_NOT_OK(reader.GetDouble(&dataset.bounds.max_x));
  SPQ_RETURN_NOT_OK(reader.GetDouble(&dataset.bounds.max_y));
  const geo::Rect& bounds = dataset.bounds;
  if (!AllFinite({bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y})) {
    return NonFinite("bounds");
  }
  uint64_t num_data;
  SPQ_RETURN_NOT_OK(reader.GetVarint(&num_data));
  SPQ_RETURN_NOT_OK(CheckRowCount(num_data, 17, reader));
  dataset.data.reserve(num_data);
  for (uint64_t i = 0; i < num_data; ++i) {
    core::DataObject p;
    SPQ_RETURN_NOT_OK(reader.GetVarint(&p.id));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&p.pos.x));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&p.pos.y));
    if (!AllFinite({p.pos.x, p.pos.y})) {
      return NonFinite("data row " + std::to_string(i));
    }
    dataset.data.push_back(p);
  }
  uint64_t num_features;
  SPQ_RETURN_NOT_OK(reader.GetVarint(&num_features));
  SPQ_RETURN_NOT_OK(CheckRowCount(num_features, 18, reader));
  dataset.features.reserve(num_features);
  for (uint64_t i = 0; i < num_features; ++i) {
    core::FeatureObject f;
    SPQ_RETURN_NOT_OK(reader.GetVarint(&f.id));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&f.pos.x));
    SPQ_RETURN_NOT_OK(reader.GetDouble(&f.pos.y));
    if (!AllFinite({f.pos.x, f.pos.y})) {
      return NonFinite("feature row " + std::to_string(i));
    }
    std::vector<text::TermId> ids;
    SPQ_RETURN_NOT_OK(
        mapreduce::Codec<std::vector<text::TermId>>::Decode(reader, &ids));
    f.keywords = text::KeywordSet(std::move(ids));
    dataset.features.push_back(std::move(f));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after dataset payload");
  }
  return dataset;
}

Status StoreDataset(dfs::MiniDfs& dfs, const std::string& name,
                    const core::Dataset& dataset) {
  return dfs.WriteFile(name, EncodeDataset(dataset));
}

StatusOr<core::Dataset> LoadDataset(const dfs::MiniDfs& dfs,
                                    const std::string& name) {
  SPQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, dfs.ReadFile(name));
  return DecodeDataset(bytes);
}

StatusOr<std::unique_ptr<core::SpqEngine>> MakeEngineFromDfs(
    const dfs::MiniDfs& dfs, const std::string& name,
    core::EngineOptions options) {
  SPQ_ASSIGN_OR_RETURN(core::Dataset dataset, LoadDataset(dfs, name));
  return std::make_unique<core::SpqEngine>(std::move(dataset), options);
}

Status SaveDatasetTsv(const std::string& path, const core::Dataset& dataset,
                      const text::Vocabulary* vocab) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.precision(17);
  out << "# bounds\t" << dataset.bounds.min_x << '\t' << dataset.bounds.min_y
      << '\t' << dataset.bounds.max_x << '\t' << dataset.bounds.max_y << '\n';
  for (const auto& p : dataset.data) {
    out << "D\t" << p.id << '\t' << p.pos.x << '\t' << p.pos.y << '\n';
  }
  for (const auto& f : dataset.features) {
    out << "F\t" << f.id << '\t' << f.pos.x << '\t' << f.pos.y << '\t';
    bool first = true;
    for (text::TermId id : f.keywords.ids()) {
      if (!first) out << ',';
      first = false;
      if (vocab != nullptr) {
        auto term = vocab->Term(id);
        if (!term.ok()) return term.status();
        out << *term;
      } else {
        out << id;
      }
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<core::Dataset> LoadDatasetTsv(const std::string& path,
                                       text::Vocabulary* vocab) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  core::Dataset dataset;
  bool saw_bounds = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    auto parse_error = [&](const std::string& what) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + what);
    };
    if (tag == "#") {
      std::string kind;
      fields >> kind;
      if (kind == "bounds") {
        fields >> dataset.bounds.min_x >> dataset.bounds.min_y >>
            dataset.bounds.max_x >> dataset.bounds.max_y;
        if (!fields) return parse_error("bad bounds header");
        saw_bounds = true;
      }
      continue;
    }
    if (tag == "D") {
      core::DataObject p;
      fields >> p.id >> p.pos.x >> p.pos.y;
      if (!fields) return parse_error("bad data object row");
      dataset.data.push_back(p);
    } else if (tag == "F") {
      core::FeatureObject f;
      fields >> f.id >> f.pos.x >> f.pos.y;
      if (!fields) return parse_error("bad feature object row");
      // SaveDatasetTsv writes an empty keyword field for a feature with no
      // keywords, so the field is optional.
      std::string keywords;
      fields >> keywords;
      std::vector<text::TermId> ids;
      std::string token;
      std::istringstream kw_stream(keywords);
      while (std::getline(kw_stream, token, ',')) {
        if (token.empty()) continue;
        if (vocab != nullptr) {
          ids.push_back(vocab->Intern(token));
        } else {
          char* end = nullptr;
          const unsigned long long v =
              std::strtoull(token.c_str(), &end, 10);
          if (end == nullptr || *end != '\0') {
            return parse_error("non-numeric term id '" + token +
                               "' without vocabulary");
          }
          // strtoull negates a '-' token and saturates past its range;
          // either would otherwise wrap into a wrong 32-bit term.
          if (token[0] == '-' ||
              v > std::numeric_limits<text::TermId>::max()) {
            return parse_error("term id '" + token + "' out of range");
          }
          ids.push_back(static_cast<text::TermId>(v));
        }
      }
      f.keywords = text::KeywordSet(std::move(ids));
      dataset.features.push_back(std::move(f));
    } else {
      return parse_error("unknown row tag '" + tag + "'");
    }
  }
  if (!saw_bounds) {
    return Status::InvalidArgument(path + ": missing '# bounds' header");
  }
  return dataset;
}

}  // namespace spq::io
