// Ablation: the map-side keyword prefilter (Algorithm 1 line 9). The paper
// notes it "can significantly limit the number of feature objects that
// need to be sent to the Reduce phase"; this bench quantifies that by
// running the same queries with the filter on and off.

#include <cstdio>

#include "common/logging.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "spq/engine.h"

int main() {
  using namespace spq;
  Logger::SetMinLevel(LogLevel::kWarn);

  auto dataset = datagen::MakeRealLikeDataset(
      datagen::FlickrLikeSpec(200'000));
  if (!dataset.ok()) return 1;

  core::EngineOptions with;  // default: prefilter on
  with.grid_size = 50;
  core::EngineOptions without = with;
  without.keyword_prefilter = false;
  core::SpqEngine filtered(*dataset, with);
  core::SpqEngine unfiltered(*std::move(dataset), without);

  datagen::WorkloadSpec spec;
  spec.num_keywords = 3;
  spec.radius = datagen::RadiusFromCellFraction(0.10, 1.0, 50);
  spec.k = 10;
  spec.term_zipf = 1.0;
  spec.vocab_size = 34'716;
  spec.seed = 2017;
  const auto query = datagen::MakeQuery(spec, 0);

  std::printf("==== Ablation: map-side keyword prefilter (FL-like, "
              "|q.W|=3) ====\n\n");
  std::printf("%-9s %-10s %14s %16s %14s %10s %10s\n", "algo", "prefilter",
              "shuffled", "shuffle bytes", "examined", "map(s)", "time(s)");
  for (core::Algorithm algo :
       {core::Algorithm::kPSPQ, core::Algorithm::kESPQLen,
        core::Algorithm::kESPQSco}) {
    struct Config {
      const char* label;
      const core::SpqEngine* engine;
    };
    const Config configs[] = {
        {"on", &filtered},
        {"off", &unfiltered},
    };
    for (const Config& cfg : configs) {
      auto result = cfg.engine->Execute(query, algo);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      const auto& info = result->info;
      std::printf("%-9s %-10s %14llu %16llu %14llu %10.4f %10.4f\n",
                  core::AlgorithmName(algo).c_str(), cfg.label,
                  static_cast<unsigned long long>(info.features_kept +
                                                  info.feature_duplicates),
                  static_cast<unsigned long long>(info.job.shuffle_bytes),
                  static_cast<unsigned long long>(info.features_examined),
                  info.job.map_seconds, info.job.total_seconds);
    }
  }
  std::printf("\nExpected: 'off' shuffles the whole feature set; eSPQsco "
              "still examines few features (zero-score features sort last "
              "and are skipped), while pSPQ pays the full scan.\n");
  return 0;
}
