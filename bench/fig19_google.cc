// Paper Fig. 19: the Fig. 3 shortest-path experiment with Google's
// enterprise WAN added. Our Google-like topology is the highest-LLPD
// network in the corpus and, like the real one, cannot be routed with
// shortest paths alone — while the near-optimal scheme handles it (the
// existence proof that high-LLPD global networks are buildable and
// routable with the right scheme).
//
// The corpus pass fans out across LDR_THREADS via RunCorpus; the Google
// topology runs afterwards (its instances parallelize inside RunTopology).
#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "topology/zoo_corpus.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 19: SP congestion vs LLPD with the Google-like WAN added\n");
  std::printf("# rows: median|p90|google-median|google-p90|google-optimal  <llpd>  <value>\n");
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeSp};
  opts.workload.num_instances = bench::BenchFullScale() ? 10 : 3;

  std::vector<Topology> corpus = bench::BenchCorpus();
  std::vector<TopologyRun> runs = RunCorpus(corpus, opts, [&](size_t i) {
    bench::Note("fig19: %s (%zu/%zu)", corpus[i].name.c_str(), i + 1,
                corpus.size());
  });
  for (const TopologyRun& run : runs) {
    if (run.schemes.empty()) continue;
    PrintSeriesRow("median", run.llpd, Median(run.schemes[0].congested_fraction));
    PrintSeriesRow("p90", run.llpd,
                   Percentile(run.schemes[0].congested_fraction, 90));
  }

  Topology google = GoogleLike();
  bench::Note("fig19: Google-like (%zu nodes, %zu links)",
              google.graph.NodeCount(), google.graph.LinkCount());
  CorpusRunOptions gopts = opts;
  gopts.scheme_ids = {kSchemeSp, kSchemeB4, kSchemeOptimal};
  gopts.max_nodes = 128;
  TopologyRun grun = RunTopology(google, gopts);
  PrintSeriesRow("google-median", grun.llpd,
                 Median(grun.schemes[0].congested_fraction));
  PrintSeriesRow("google-p90", grun.llpd,
                 Percentile(grun.schemes[0].congested_fraction, 90));
  // B4 performs nearly optimally on this topology (paper §8).
  PrintSeriesRow("google-b4-congestion", grun.llpd,
                 Median(grun.schemes[1].congested_fraction));
  PrintSeriesRow("google-b4-stretch", grun.llpd,
                 Median(grun.schemes[1].total_stretch));
  PrintSeriesRow("google-optimal-stretch", grun.llpd,
                 Median(grun.schemes[2].total_stretch));
  return 0;
}
