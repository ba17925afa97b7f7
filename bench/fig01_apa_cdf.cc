// Paper Fig. 1: CDF curves of APA for all networks, path-stretch limit 1.4.
// Each topology contributes one CDF (series = topology name). Also prints a
// per-network LLPD summary ("llpd" series) — the scalar reduction of each
// curve used throughout the paper.
#include "bench/bench_util.h"
#include "metrics/llpd.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 1: APA CDF per network (stretch limit 1.4)\n");
  std::printf("# rows: apa:<network>  <apa>  <cum-fraction>  |  llpd  <index>  <llpd>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  ApaOptions opts;
  int idx = 0;
  for (const Topology& t : corpus) {
    bench::Note("fig01: %s (%d/%zu)", t.name.c_str(), ++idx, corpus.size());
    std::vector<PairApa> apa = ComputeApa(t.graph, opts);
    EmpiricalCdf cdf;
    for (const PairApa& p : apa) cdf.Add(p.apa);
    PrintCdf("apa:" + t.name, cdf, 40);
    PrintSeriesRow("llpd", idx, LlpdFromApa(apa, opts.apa_threshold));
  }
  return 0;
}
