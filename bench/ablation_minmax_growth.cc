// Ablation (paper §8 "generality of building blocks"): MinMax with a fixed
// k = 10 path set vs MinMax with LDR-style iteratively grown path sets. The
// paper predicts growth "should help MinMax avoid needless detours" (and
// congestion on very diverse networks, where 10 fixed paths are too few).
#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Ablation: MinMaxK10 (fixed paths) vs MinMax (grown paths)\n");
  std::printf("# rows: <scheme>-stretch|<scheme>-fit  <llpd>  <value>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeMinMax, kSchemeMinMaxK10};
  opts.workload.num_instances = bench::BenchFullScale() ? 5 : 2;
  opts.workload.target_utilization = 0.85;  // stress path choice
  int idx = 0;
  for (const Topology& t : corpus) {
    bench::Note("ablation-minmax: %s (%d/%zu)", t.name.c_str(), ++idx,
                corpus.size());
    TopologyRun run = RunTopology(t, opts);
    for (const SchemeSeries& s : run.schemes) {
      double fit = 0;
      for (bool f : s.feasible) fit += f ? 1 : 0;
      fit /= static_cast<double>(s.feasible.size());
      PrintSeriesRow(s.scheme + "-stretch", run.llpd, Median(s.total_stretch));
      PrintSeriesRow(s.scheme + "-fit", run.llpd, fit);
    }
  }
  return 0;
}
