// Paper Fig. 8: median change in total delay as uniform headroom increases
// ({0, 11, 23, 40}%), with the network loaded lighter (min-cut at 60%, so
// the TM could grow 1.65x). The paper's point: even high-LLPD networks pay
// little latency for moderate headroom; only near the MinMax extreme (40%)
// does delay climb.
#include "bench/bench_util.h"
#include "graph/shortest_path.h"
#include "routing/lp_routing.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 8: median total-delay stretch vs LLPD at several headrooms\n");
  std::printf("# rows: h<percent>  <llpd>  <median-stretch>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  const double headrooms[] = {0.0, 0.11, 0.23, 0.40};
  int idx = 0;
  for (const Topology& t : corpus) {
    bench::Note("fig08: %s (%d/%zu)", t.name.c_str(), ++idx, corpus.size());
    if (t.graph.NodeCount() > 64) continue;
    double llpd = ComputeLlpd(t.graph);
    KspCache cache(&t.graph);
    WorkloadOptions wopts;
    wopts.num_instances = bench::BenchFullScale() ? 5 : 2;
    wopts.target_utilization = 0.60;
    auto workloads = MakeScaledWorkloads(t, &cache, wopts);
    std::vector<double> apsp = AllPairsShortestDelay(t.graph);
    for (double h : headrooms) {
      LatencyOptimalScheme scheme(&t.graph, &cache, h);
      std::vector<double> stretches;
      for (const auto& aggs : workloads) {
        EvalResult e = Evaluate(t.graph, aggs, scheme.Route(aggs), apsp);
        stretches.push_back(e.total_stretch);
      }
      char series[32];
      std::snprintf(series, sizeof(series), "h%d",
                    static_cast<int>(h * 100 + 0.5));
      PrintSeriesRow(series, llpd, Median(stretches));
    }
  }
  return 0;
}
