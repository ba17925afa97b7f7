// Paper Fig. 15: runtime CDFs of the optimization on the hardest-to-route
// networks (LLPD > 0.5): LDR with a warm k-shortest-path cache, LDR from a
// cold cache, and the link-based (arc) multi-commodity formulation of the
// same problem. The paper's point: path-based + iterative growth is ~two
// orders of magnitude faster than the link-based LP, and most of LDR's cost
// is Yen's algorithm (hence caching pays).
#include "bench/bench_util.h"
#include "metrics/llpd.h"
#include "routing/link_based.h"
#include "routing/lp_routing.h"
#include "sim/corpus_runner.h"
#include "sim/workload.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 15: optimization runtime CDFs on LLPD > 0.5 networks\n");
  std::printf("# rows: ldr|ldr-cold|link-based  <ms>  <cdf>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  bool full = bench::BenchFullScale();
  EmpiricalCdf warm_cdf, cold_cdf, link_cdf;
  int idx = 0;
  for (const Topology& t : corpus) {
    ++idx;
    if (t.graph.NodeCount() > (full ? 64u : 30u)) continue;
    double llpd = ComputeLlpd(t.graph);
    if (llpd <= 0.5) continue;
    bench::Note("fig15: %s (llpd %.2f, %d/%zu)", t.name.c_str(), llpd, idx,
                corpus.size());
    KspCache cache(&t.graph);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    auto workloads = MakeScaledWorkloads(t, &cache, wopts);
    const auto& aggs = workloads[0];

    // Cold cache: fresh KspCache.
    {
      KspCache cold(&t.graph);
      IterativeOptions opts;
      RoutingOutcome out = IterativeLpRoute(t.graph, aggs, &cold, opts);
      cold_cdf.Add(out.solve_ms);
    }
    // Warm: the cache above was already filled by scaling + cold run reuse.
    {
      IterativeOptions opts;
      RoutingOutcome out = IterativeLpRoute(t.graph, aggs, &cache, opts);
      warm_cdf.Add(out.solve_ms);
    }
    // Link-based formulation.
    {
      LinkBasedResult r = SolveLinkBased(t.graph, aggs);
      link_cdf.Add(r.solve_ms);
      bench::Note("fig15:   link-based %.0f ms (solved=%d)", r.solve_ms,
                  r.solved ? 1 : 0);
    }
  }
  PrintCdf("ldr", warm_cdf, 50);
  PrintCdf("ldr-cold", cold_cdf, 50);
  PrintCdf("link-based", link_cdf, 50);
  PrintSeriesRow("median-ms:ldr", 0, warm_cdf.ValueAt(0.5));
  PrintSeriesRow("median-ms:ldr-cold", 0, cold_cdf.ValueAt(0.5));
  PrintSeriesRow("median-ms:link-based", 0, link_cdf.ValueAt(0.5));
  return 0;
}
