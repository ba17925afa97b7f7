// Paper Fig. 17: median max flow stretch (log scale in the paper) as load
// grows from 60% to 90% of min-max link utilization, on networks with
// LLPD > 0.5. B4 degrades sharply at high load; LDR stays near 1; at low
// load B4 is optimal and at high load MinMax converges to optimal.
//
// The LLPD pre-filter and each per-load sweep fan out across LDR_THREADS
// (ParallelFor / RunCorpus) instead of walking topologies serially.
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"
#include "util/thread_pool.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 17: median max stretch vs load, networks with LLPD > 0.5\n");
  std::printf("# rows: <scheme>  <load-percent>  <median-max-stretch>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  const double loads[] = {0.60, 0.70, 0.77, 0.85, 0.90};

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
    bench::Note("fig17: %s (llpd %.2f)", corpus[i].name.c_str(), llpd[i]);
    high.push_back(corpus[i]);
  }

  std::map<double, std::map<std::string, std::vector<double>>> samples;
  for (double load : loads) {
    CorpusRunOptions opts;
    opts.scheme_ids = {kSchemeB4, kSchemeOptimal, kSchemeMinMax,
                       kSchemeMinMaxK10};
    opts.workload.num_instances = bench::BenchFullScale() ? 5 : 2;
    opts.workload.target_utilization = load;
    std::vector<TopologyRun> runs = RunCorpus(high, opts, [&](size_t i) {
      bench::Note("fig17 load %.0f%%: %s (%zu/%zu)", load * 100,
                  high[i].name.c_str(), i + 1, high.size());
    });
    for (const TopologyRun& run : runs) {
      for (const SchemeSeries& s : run.schemes) {
        std::string name = s.scheme == kSchemeOptimal ? "LDR" : s.scheme;
        for (double ms : s.max_stretch) {
          samples[load][name].push_back(ms);
        }
      }
    }
  }
  for (const auto& [load, by_scheme] : samples) {
    for (const auto& [scheme, xs] : by_scheme) {
      PrintSeriesRow(scheme, load * 100, Median(xs));
    }
  }
  return 0;
}
