// Paper Fig. 4 (a-d): congestion and total latency stretch of the active
// schemes vs LLPD — (a) latency-optimal, (b) B4, (c) MinMax, (d) MinMaxK10.
// Per network: median and 90th percentile across traffic-matrix instances.
// The paper's headlines: the optimal scheme fits everything with low
// stretch; B4 congests precisely on the high-LLPD networks; MinMax never
// congests but stretches; MinMaxK10 recovers some latency but can congest.
#include <atomic>

#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 4: active schemes, congestion + total stretch vs LLPD\n");
  std::printf(
      "# rows: cong-median:<scheme>|cong-p90:<scheme>|stretch-median:<scheme>"
      "|stretch-p90:<scheme>  <llpd>  <value>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeOptimal, kSchemeB4, kSchemeMinMax,
                     kSchemeMinMaxK10};
  opts.workload.num_instances = bench::BenchFullScale() ? 10 : 3;
  std::atomic<size_t> done{0};
  std::vector<TopologyRun> runs =
      RunCorpus(corpus, opts, [&](size_t i) {
        bench::Note("fig04: %s done (%zu/%zu)", corpus[i].name.c_str(),
                    done.fetch_add(1) + 1, corpus.size());
      });
  for (const TopologyRun& run : runs) {
    for (const SchemeSeries& s : run.schemes) {
      PrintSeriesRow("cong-median:" + s.scheme, run.llpd,
                     Median(s.congested_fraction));
      PrintSeriesRow("cong-p90:" + s.scheme, run.llpd,
                     Percentile(s.congested_fraction, 90));
      PrintSeriesRow("stretch-median:" + s.scheme, run.llpd,
                     Median(s.total_stretch));
      PrintSeriesRow("stretch-p90:" + s.scheme, run.llpd,
                     Percentile(s.total_stretch, 90));
    }
  }
  return 0;
}
