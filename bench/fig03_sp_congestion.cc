// Paper Fig. 3: fraction of congested source-destination pairs under
// delay-proportional shortest-path routing, vs the network's LLPD. Median
// and 90th percentile across traffic-matrix instances (load 0.77 min-cut,
// locality 1). High-LLPD networks concentrate traffic under SP.
#include <atomic>

#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 3: SP congestion vs LLPD\n");
  std::printf("# rows: median|p90  <llpd>  <congested-fraction>   (one point per network)\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeSp};
  opts.workload.num_instances = bench::BenchFullScale() ? 10 : 3;
  std::atomic<size_t> done{0};
  std::vector<TopologyRun> runs =
      RunCorpus(corpus, opts, [&](size_t i) {
        bench::Note("fig03: %s done (%zu/%zu)", corpus[i].name.c_str(),
                    done.fetch_add(1) + 1, corpus.size());
      });
  for (const TopologyRun& run : runs) {
    if (run.schemes.empty()) continue;
    const SchemeSeries& sp = run.schemes[0];
    PrintSeriesRow("median", run.llpd, Median(sp.congested_fraction));
    PrintSeriesRow("p90", run.llpd, Percentile(sp.congested_fraction, 90));
  }
  return 0;
}
