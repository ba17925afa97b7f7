// Microbenchmarks for the full Fig. 13 iterative path-growth loop
// (google-benchmark): IterativeLpRoute on routing-shaped workloads over
// synthetic mesh topologies (one warm solver carried across rounds), plus
// the controller-style re-entry with and without an LpReuseContext. The KSP
// cache is pre-warmed outside the timed region so the numbers isolate LP
// work — the paper's point is that KSP dominates and is cacheable, and
// these benches track the part that is left.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/ksp.h"
#include "routing/lp_routing.h"
#include "sim/workload.h"
#include "topology/generators.h"
#include "util/random.h"

namespace {

using namespace ldr;

struct IterativeFixture {
  Topology topology;
  KspCache cache;
  std::vector<Aggregate> aggregates;

  explicit IterativeFixture(int w, int h, double load)
      : topology(MakeFixtureTopology(w, h)), cache(&topology.graph) {
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.target_utilization = load;
    wopts.seed = 17;
    aggregates = MakeScaledWorkloads(topology, &cache, wopts)[0];
    // Warm the KSP cache to the depth the loop will reach, so timing
    // isolates LP work from Yen's algorithm.
    IterativeOptions opts;
    IterativeLpRoute(topology.graph, aggregates, &cache, opts);
  }

  static Topology MakeFixtureTopology(int w, int h) {
    Rng rng(5);
    return MakeGrid("bench-grid", w, h, 0.3, 0.0, EuropeRegion(), &rng,
                    {100, 40, 0.3});
  }
};

void BM_IterativeWarm(benchmark::State& state) {
  int side = static_cast<int>(state.range(0));
  // High load forces several growth rounds — the regime the warm start is
  // for (at trivial load the loop exits after one solve).
  IterativeFixture fx(side, side, 0.9);
  IterativeOptions opts;
  for (auto _ : state) {
    RoutingOutcome out =
        IterativeLpRoute(fx.topology.graph, fx.aggregates, &fx.cache, opts);
    benchmark::DoNotOptimize(out.max_level);
    state.counters["rounds"] = static_cast<double>(out.lp_rounds);
  }
}

BENCHMARK(BM_IterativeWarm)->Arg(4)->Arg(5)->Arg(6);

// Controller-style warm re-entry: demands drift a few percent and the
// optimization re-runs. With an LpReuseContext the grown path sets and the
// factorized basis survive; without, every epoch pays the full loop.
void BM_ControllerReentryWarm(benchmark::State& state) {
  int side = static_cast<int>(state.range(0));
  IterativeFixture fx(side, side, 0.85);
  IterativeOptions opts;
  LpReuseContext reuse;
  IterativeLpRoute(fx.topology.graph, fx.aggregates, &fx.cache, opts, &reuse);
  std::vector<Aggregate> drifted = fx.aggregates;
  uint64_t tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(100 + tick++);
    for (Aggregate& a : drifted) {
      a.demand_gbps *= rng.Uniform(0.97, 1.03);
    }
    state.ResumeTiming();
    RoutingOutcome out = IterativeLpRoute(fx.topology.graph, drifted,
                                          &fx.cache, opts, &reuse);
    benchmark::DoNotOptimize(out.max_level);
  }
}
BENCHMARK(BM_ControllerReentryWarm)->Arg(4)->Arg(5);

void BM_ControllerReentryCold(benchmark::State& state) {
  int side = static_cast<int>(state.range(0));
  IterativeFixture fx(side, side, 0.85);
  IterativeOptions opts;
  std::vector<Aggregate> drifted = fx.aggregates;
  uint64_t tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(100 + tick++);
    for (Aggregate& a : drifted) {
      a.demand_gbps *= rng.Uniform(0.97, 1.03);
    }
    state.ResumeTiming();
    RoutingOutcome out =
        IterativeLpRoute(fx.topology.graph, drifted, &fx.cache, opts);
    benchmark::DoNotOptimize(out.max_level);
  }
}
BENCHMARK(BM_ControllerReentryCold)->Arg(4)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
