#include "sim/corpus_runner.h"

#include "graph/shortest_path.h"
#include "routing/b4.h"
#include "routing/lp_routing.h"
#include "routing/shortest_path_routing.h"
#include "util/thread_pool.h"

namespace ldr {

namespace {

// Single source of truth for scheme identifiers: MakeScheme and
// ValidSchemeId must never disagree, or the runner's pre-sized result slots
// would drift out of step with the schemes actually constructed.
struct SchemeEntry {
  const char* id;
  std::unique_ptr<RoutingScheme> (*make)(const Graph*, KspCache*);
};

const SchemeEntry kSchemeTable[] = {
    {kSchemeSp,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<ShortestPathScheme>(g, c);
     }},
    {kSchemeB4,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<B4Scheme>(g, c);
     }},
    {kSchemeB4Headroom,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<B4Scheme>(g, c, 0.1);
     }},
    {kSchemeOptimal,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<LatencyOptimalScheme>(g, c, 0.0, "Optimal");
     }},
    {kSchemeLdr10,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<LatencyOptimalScheme>(g, c, 0.10, "LDR10");
     }},
    {kSchemeMinMax,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<MinMaxScheme>(g, c);
     }},
    {kSchemeMinMaxK10,
     [](const Graph* g, KspCache* c) -> std::unique_ptr<RoutingScheme> {
       return std::make_unique<MinMaxScheme>(g, c, 10);
     }},
};

}  // namespace

bool ValidSchemeId(const std::string& id) {
  for (const SchemeEntry& e : kSchemeTable) {
    if (id == e.id) return true;
  }
  return false;
}

std::unique_ptr<RoutingScheme> MakeScheme(const std::string& id,
                                          const Graph* g, KspCache* cache) {
  for (const SchemeEntry& e : kSchemeTable) {
    if (id == e.id) return e.make(g, cache);
  }
  return nullptr;
}

TopologyRun RunTopology(const Topology& topology,
                        const CorpusRunOptions& opts) {
  if (topology.graph.NodeCount() > opts.max_nodes) {
    TopologyRun run;
    run.topology = topology.name;
    run.nodes = topology.graph.NodeCount();
    run.links = topology.graph.LinkCount();
    return run;
  }
  KspCache cache(&topology.graph);
  return RunTopologyOnWorkloads(
      topology, MakeScaledWorkloads(topology, &cache, opts.workload), opts);
}

namespace {

// Routes one instance with one scheme and writes the measurements into the
// instance's slot — index-addressed so every worker count yields identical
// series.
void EvaluateInstance(const Topology& topology, RoutingScheme* scheme,
                      const std::vector<Aggregate>& aggs,
                      const std::vector<double>& apsp, size_t slot,
                      SchemeSeries* series) {
  RoutingOutcome out = scheme->Route(aggs);
  EvalResult eval = Evaluate(topology.graph, aggs, out, apsp);
  series->congested_fraction[slot] = eval.congested_fraction;
  series->total_stretch[slot] = eval.total_stretch;
  series->max_stretch[slot] = eval.max_stretch;
  series->weighted_delay_ms[slot] = eval.weighted_delay_ms;
  series->feasible[slot] = out.feasible;
  series->solve_ms[slot] = out.solve_ms;
  uint32_t refs = 0;
  for (const auto& alloc : out.allocations) {
    refs += static_cast<uint32_t>(alloc.size());
  }
  series->allocation_refs[slot] = refs;
}

}  // namespace

TopologyRun RunTopologyOnWorkloads(
    const Topology& topology,
    const std::vector<std::vector<Aggregate>>& workloads,
    const CorpusRunOptions& opts) {
  TopologyRun run;
  run.topology = topology.name;
  run.nodes = topology.graph.NodeCount();
  run.links = topology.graph.LinkCount();
  if (run.nodes > opts.max_nodes) return run;

  run.llpd = ComputeLlpd(topology.graph);
  std::vector<double> apsp = AllPairsShortestDelay(topology.graph);

  for (const std::string& id : opts.scheme_ids) {
    if (!ValidSchemeId(id)) continue;
    SchemeSeries series;
    series.scheme = id;
    series.congested_fraction.resize(workloads.size());
    series.total_stretch.resize(workloads.size());
    series.max_stretch.resize(workloads.size());
    series.weighted_delay_ms.resize(workloads.size());
    series.feasible.resize(workloads.size());
    series.solve_ms.resize(workloads.size());
    series.allocation_refs.resize(workloads.size());
    run.schemes.push_back(std::move(series));
  }

  // Instances are independent optimizations. Each worker keeps one KspCache
  // for all the instances and schemes it processes (Yen results are pure, so
  // per-worker memoization cannot change results), and measurements land in
  // per-instance slots, so the series are identical for any LDR_THREADS. One
  // thread, one instance or a call from inside a corpus worker runs inline
  // on worker 0: one KspCache amortizes Yen across every scheme and
  // instance, as the paper's warm-cache controller would.
  std::vector<std::unique_ptr<KspCache>> caches(DefaultThreadCount());
  ParallelForWorker(workloads.size(), [&](size_t worker, size_t i) {
    if (caches[worker] == nullptr) {
      caches[worker] = std::make_unique<KspCache>(&topology.graph);
    }
    for (SchemeSeries& series : run.schemes) {
      std::unique_ptr<RoutingScheme> scheme =
          MakeScheme(series.scheme, &topology.graph, caches[worker].get());
      EvaluateInstance(topology, scheme.get(), workloads[i], apsp, i,
                       &series);
    }
  });
  for (const std::unique_ptr<KspCache>& cache : caches) {
    if (cache == nullptr) continue;
    run.path_unique_stored += cache->store()->intern_misses();
  }
  for (const SchemeSeries& series : run.schemes) {
    for (uint32_t refs : series.allocation_refs) {
      run.path_allocation_refs += refs;
    }
  }
  return run;
}

std::vector<TopologyRun> RunCorpus(const std::vector<Topology>& corpus,
                                   const CorpusRunOptions& opts,
                                   const std::function<void(size_t)>& progress) {
  std::vector<TopologyRun> runs(corpus.size());
  ParallelFor(corpus.size(), [&](size_t i) {
    runs[i] = RunTopology(corpus[i], opts);
    if (progress) progress(i);
  });
  return runs;
}

}  // namespace ldr
