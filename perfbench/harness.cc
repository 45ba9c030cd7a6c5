#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/metrics.h"
#include "common/random.h"

namespace spq::perfbench {

double TailQuantile(std::size_t n, double cap) {
  // Per-mille candidates keep the "samples beyond" test in integers:
  // n * (1000 - m) / 1000 >= 10 without a rounding edge at n = 100, 1000...
  static constexpr uint64_t kPerMille[] = {999, 995, 990, 980, 950, 900, 750};
  for (uint64_t m : kPerMille) {
    const double q = static_cast<double>(m) / 1000.0;
    if (q > cap + 1e-12) continue;
    if (static_cast<uint64_t>(n) * (1000 - m) >=
        kMinSamplesBeyondTail * 1000) {
      return q;
    }
  }
  return 0.5;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  return metrics::PercentileOfSamples(std::move(samples), q);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> offsets;
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) return offsets;
  Rng rng(seed);
  double at = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; log1p(-u) is finite for u in [0, 1).
    at += -std::log1p(-rng.NextDouble()) / rate_per_s;
    if (at >= duration_s) break;
    offsets.push_back(at);
  }
  return offsets;
}

std::string CompareTopK(const std::vector<core::ResultEntry>& got,
                        const std::vector<core::ResultEntry>& want) {
  char buf[160];
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "length %zu, oracle %zu", got.size(),
                  want.size());
    return buf;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].score != want[i].score) {
      std::snprintf(buf, sizeof(buf), "rank %zu score %.17g, oracle %.17g", i,
                    got[i].score, want[i].score);
      return buf;
    }
  }
  // Runs of equal scores: ids must agree as sets, except in the run that
  // reaches the last rank (the cut may fall inside that tie).
  std::size_t begin = 0;
  while (begin < want.size()) {
    std::size_t end = begin + 1;
    while (end < want.size() && want[end].score == want[begin].score) ++end;
    if (end < want.size()) {
      std::vector<core::ObjectId> a, b;
      for (std::size_t i = begin; i < end; ++i) {
        a.push_back(got[i].id);
        b.push_back(want[i].id);
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) {
        std::snprintf(buf, sizeof(buf), "ids differ in ranks %zu..%zu", begin,
                      end - 1);
        return buf;
      }
    }
    begin = end;
  }
  std::vector<core::ObjectId> ids;
  for (const core::ResultEntry& e : got) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate id in answer";
  }
  return "";
}

LayerSplit SplitLayers(double latency_s, double call_s,
                       const mapreduce::JobStats& job) {
  LayerSplit s;
  s.outside = latency_s - call_s;
  s.engine = call_s - job.total_seconds;
  s.map = job.map_seconds;
  s.reduce = job.reduce_seconds;
  s.shuffle = job.total_seconds - job.map_seconds - job.reduce_seconds;
  return s;
}

}  // namespace spq::perfbench
