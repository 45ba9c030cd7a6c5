#include "index/centralized.h"

#include <utility>

#include "spq/topk.h"
#include "text/jaccard.h"

namespace spq::index {

CentralizedSpqIndex::CentralizedSpqIndex(const core::Dataset* dataset)
    : dataset_(dataset), inverted_(dataset_->features) {}

std::vector<core::ResultEntry> CentralizedSpqIndex::Execute(
    const core::Query& query) const {
  last_stats_ = {};
  // 1. Textual phase: candidate features via the inverted index.
  const std::vector<uint32_t> candidates =
      inverted_.CandidatesFor(query.keywords);
  last_stats_.candidate_features = candidates.size();

  std::vector<ArTree::Entry> scored;
  scored.reserve(candidates.size());
  for (uint32_t idx : candidates) {
    const core::FeatureObject& f = dataset_->features[idx];
    const double w = text::Jaccard(f.keywords, query.keywords);
    if (w > 0.0) scored.push_back({f.pos, w, f.id});
  }
  last_stats_.scored_features = scored.size();
  if (scored.empty()) return {};

  // 2. Spatial phase: aggregate R-tree over the scored candidates.
  const ArTree tree = ArTree::Build(std::move(scored));

  // 3. Scan data objects with the running τ as the pruning floor.
  core::TopKList lk(query.k);
  for (const core::DataObject& p : dataset_->data) {
    const double floor = lk.Threshold();
    const double s = tree.MaxScoreWithin(p.pos, query.radius, floor);
    if (s > floor) lk.Update(p.id, s);
  }
  return lk.entries();
}

}  // namespace spq::index
