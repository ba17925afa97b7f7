// Paper Fig. 20: do routing schemes profit from LLPD-guided topology
// growth? Four networks that are hard to route with low latency get +5%
// links chosen greedily by LLPD gain; we report median and p90 latency
// stretch before and after, per scheme. Only a scheme that can exploit
// path diversity (LDR) fully converts the new links into latency wins; the
// MinMax family may even get *worse* (it load-balances over the new links).
#include <algorithm>

#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "sim/growth.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  std::printf("# Fig 20: stretch before/after +5%% links (picked by LLPD gain)\n");
  std::printf("# rows: median:<scheme>|p90:<scheme>  <stretch-before>  <stretch-after>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();

  // Pick 4 non-clique networks with the highest optimal-routing stretch:
  // ring-like topologies where even optimal placement detours.
  CorpusRunOptions probe;
  probe.scheme_ids = {kSchemeOptimal};
  probe.workload.num_instances = 2;
  probe.max_nodes = 40;
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Topology& t = corpus[i];
    if (t.graph.NodeCount() > probe.max_nodes) continue;
    if (t.name.find("Clique") != std::string::npos ||
        t.name.find("Globalcenter") != std::string::npos) {
      continue;  // cannot add links to a clique
    }
    TopologyRun run = RunTopology(t, probe);
    if (run.schemes.empty()) continue;
    ranked.emplace_back(Median(run.schemes[0].total_stretch), i);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  ranked.resize(std::min<size_t>(4, ranked.size()));

  CorpusRunOptions eval;
  eval.scheme_ids = {kSchemeOptimal, kSchemeB4, kSchemeMinMax,
                     kSchemeMinMaxK10};
  eval.workload.num_instances = bench::BenchFullScale() ? 5 : 2;
  eval.max_nodes = 40;

  for (const auto& [stretch, idx] : ranked) {
    Topology t = corpus[idx];
    bench::Note("fig20: growing %s (optimal stretch %.3f)", t.name.c_str(),
                stretch);
    // The same traffic is routed before and after growth (the paper holds
    // load fixed; only the topology changes).
    KspCache cache(&t.graph);
    auto workloads = MakeScaledWorkloads(t, &cache, eval.workload);
    TopologyRun before = RunTopologyOnWorkloads(t, workloads, eval);
    Rng rng(20202);
    GrowthOptions gopts;
    gopts.max_candidates = bench::BenchFullScale() ? 150 : 60;
    std::vector<GrowthStep> steps = GreedyLlpdAugment(&t, gopts, &rng);
    for (const GrowthStep& s : steps) {
      bench::Note("fig20:   added %d-%d llpd %.3f -> %.3f", s.a, s.b,
                  s.llpd_before, s.llpd_after);
    }
    TopologyRun after = RunTopologyOnWorkloads(t, workloads, eval);
    for (size_t s = 0; s < before.schemes.size(); ++s) {
      const SchemeSeries& pre = before.schemes[s];
      const SchemeSeries& post = after.schemes[s];
      std::string name = pre.scheme == kSchemeOptimal ? "LDR" : pre.scheme;
      PrintSeriesRow("median:" + name, Median(pre.total_stretch),
                     Median(post.total_stretch));
      PrintSeriesRow("p90:" + name, Percentile(pre.total_stretch, 90),
                     Percentile(post.total_stretch, 90));
      // Absolute delay ratio: < 1 means the scheme converted the new links
      // into real latency reduction (immune to the shorter-SP denominator).
      PrintSeriesRow("delay-ratio:" + name, 0,
                     Median(post.weighted_delay_ms) /
                         std::max(1e-9, Median(pre.weighted_delay_ms)));
    }
  }
  return 0;
}
