#ifndef SPQ_IO_DATASET_IO_H_
#define SPQ_IO_DATASET_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "dfs/mini_dfs.h"
#include "spq/engine.h"
#include "spq/types.h"
#include "text/vocabulary.h"

namespace spq::io {

/// \brief Dataset persistence.
///
/// Two formats:
///  - a compact binary format ("SPQD1") used to host datasets on the
///    MiniDfs cluster, mirroring how the paper's input lives in HDFS and
///    gets consumed block-wise by map tasks;
///  - a human-readable TSV for interchange with external tools:
///      D <id> <x> <y>
///      F <id> <x> <y> <kw1,kw2,...>
///    Keywords are vocabulary terms when a Vocabulary is supplied,
///    numeric term ids otherwise.

/// Serializes a dataset to the binary format.
std::vector<uint8_t> EncodeDataset(const core::Dataset& dataset);

/// Parses the binary format. Corrupt or truncated input yields an error,
/// and so does a NaN or infinite coordinate or bound (InvalidArgument
/// naming the row).
StatusOr<core::Dataset> DecodeDataset(const std::vector<uint8_t>& bytes);

/// Writes the binary format to a DFS file (write-once).
Status StoreDataset(dfs::MiniDfs& dfs, const std::string& name,
                    const core::Dataset& dataset);

/// Reads a dataset back from DFS (tolerates datanode failures up to the
/// replication factor, like any DFS read).
StatusOr<core::Dataset> LoadDataset(const dfs::MiniDfs& dfs,
                                    const std::string& name);

/// Writes the TSV format to a local file.
Status SaveDatasetTsv(const std::string& path, const core::Dataset& dataset,
                      const text::Vocabulary* vocab = nullptr);

/// Reads the TSV format from a local file. With a Vocabulary, keyword
/// tokens are interned; otherwise they must be numeric term ids. A row
/// that does not parse is InvalidArgument naming its file and line; a NaN
/// or infinite coordinate or bound does not parse as a number.
StatusOr<core::Dataset> LoadDatasetTsv(const std::string& path,
                                       text::Vocabulary* vocab = nullptr);

/// Convenience: loads `name` from the DFS cluster and builds a query
/// engine over it — the "job input lives in HDFS" deployment shape of the
/// paper (data is read once per engine, then queried many times).
StatusOr<std::unique_ptr<core::SpqEngine>> MakeEngineFromDfs(
    const dfs::MiniDfs& dfs, const std::string& name,
    core::EngineOptions options = {});

}  // namespace spq::io

#endif  // SPQ_IO_DATASET_IO_H_
