// Paper Fig. 18: median max flow stretch as traffic locality varies from 0
// (long-haul heavy) to 2 (local heavy), on high-LLPD networks at load 0.77.
// Low locality hurts B4 most (it congests the wide-area links first); all
// schemes improve as locality rises; MinMax flattens past ~1.5.
//
// The LLPD pre-filter and each per-locality sweep fan out across
// LDR_THREADS (ParallelFor / RunCorpus) instead of walking topologies
// serially.
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"
#include "util/thread_pool.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 18: median max stretch vs locality, networks with LLPD > 0.5\n");
  std::printf("# rows: <scheme>  <locality>  <median-max-stretch>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  const double localities[] = {0.0, 0.5, 1.0, 1.5, 2.0};

  // Parallel LLPD pre-filter: keep the high-diversity group.
  std::vector<double> llpd(corpus.size(), 0.0);
  ParallelFor(corpus.size(), [&](size_t i) {
    if (corpus[i].graph.NodeCount() <= 64) {
      llpd[i] = ComputeLlpd(corpus[i].graph);
    }
  });
  std::vector<Topology> high;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].graph.NodeCount() > 64 || llpd[i] <= 0.5) continue;
    bench::Note("fig18: %s (llpd %.2f)", corpus[i].name.c_str(), llpd[i]);
    high.push_back(corpus[i]);
  }

  std::map<double, std::map<std::string, std::vector<double>>> samples;
  for (double locality : localities) {
    CorpusRunOptions opts;
    opts.scheme_ids = {kSchemeB4, kSchemeOptimal, kSchemeMinMax,
                       kSchemeMinMaxK10};
    opts.workload.num_instances = bench::BenchFullScale() ? 5 : 2;
    opts.workload.locality = locality;
    std::vector<TopologyRun> runs = RunCorpus(high, opts, [&](size_t i) {
      bench::Note("fig18 locality %.1f: %s (%zu/%zu)", locality,
                  high[i].name.c_str(), i + 1, high.size());
    });
    for (const TopologyRun& run : runs) {
      for (const SchemeSeries& s : run.schemes) {
        std::string name = s.scheme == kSchemeOptimal ? "LDR" : s.scheme;
        for (double ms : s.max_stretch) {
          samples[locality][name].push_back(ms);
        }
      }
    }
  }
  for (const auto& [locality, by_scheme] : samples) {
    for (const auto& [scheme, xs] : by_scheme) {
      PrintSeriesRow(scheme, locality, Median(xs));
    }
  }
  return 0;
}
