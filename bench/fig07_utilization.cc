// Paper Fig. 7: link-utilization CDF on GTS's network (median traffic
// matrix), latency-optimal vs MinMax. The point: most links look identical
// under both schemes; the latency-optimal placement runs its few busiest
// links close to 100% while MinMax leaves ~23% free — the headroom dial's
// two endpoints.
#include <algorithm>

#include "bench/bench_util.h"
#include "graph/shortest_path.h"
#include "routing/lp_routing.h"
#include "sim/corpus_runner.h"
#include "topology/zoo_corpus.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 7: link utilization CDF, GTS-like median TM\n");
  std::printf("# rows: util:<scheme>  <utilization>  <cdf>  |  mean:<scheme> 0 <mean-util>\n");
  Topology gts;
  for (Topology& t : ZooCorpus()) {
    if (t.name == "GTS-like") gts = std::move(t);
  }
  KspCache cache(&gts.graph);
  WorkloadOptions wopts;
  wopts.num_instances = bench::BenchFullScale() ? 9 : 3;
  auto workloads = MakeScaledWorkloads(gts, &cache, wopts);
  std::vector<double> apsp = AllPairsShortestDelay(gts.graph);

  // Pick the median instance by optimal-scheme total stretch.
  LatencyOptimalScheme opt(&gts.graph, &cache);
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < workloads.size(); ++i) {
    EvalResult e =
        Evaluate(gts.graph, workloads[i], opt.Route(workloads[i]), apsp);
    ranked.emplace_back(e.total_stretch, i);
  }
  std::sort(ranked.begin(), ranked.end());
  const auto& aggs = workloads[ranked[ranked.size() / 2].second];

  for (const char* id : {kSchemeOptimal, kSchemeMinMax}) {
    auto scheme = MakeScheme(id, &gts.graph, &cache);
    RoutingOutcome out = scheme->Route(aggs);
    EvalResult eval = Evaluate(gts.graph, aggs, out, apsp);
    EmpiricalCdf cdf(eval.link_utilization);
    PrintCdf(std::string("util:") + id, cdf, 60);
    PrintSeriesRow(std::string("mean:") + id, 0,
                   Mean(eval.link_utilization));
    PrintSeriesRow(std::string("stretch:") + id, 0, eval.total_stretch);
    bench::Note("fig07: %s mean util %.3f stretch %.3f", id,
                Mean(eval.link_utilization), eval.total_stretch);
  }
  return 0;
}
