// Microbenchmarks for the graph substrate (google-benchmark): Dijkstra,
// Yen's k-shortest paths (the paper notes KSP, not the LP, bottlenecks
// LDR), Dinic max-flow, and the FFT PMF convolution of the multiplexing
// check.
#include <benchmark/benchmark.h>

#include "graph/ksp.h"
#include "graph/max_flow.h"
#include "graph/path_store.h"
#include "graph/shortest_path.h"
#include "topology/generators.h"
#include "traffic/fft.h"
#include "util/random.h"

namespace {

using namespace ldr;

Topology BenchTopology(int w, int h) {
  Rng rng(99);
  return MakeGrid("bench", w, h, 0.3, 0.0, EuropeRegion(), &rng,
                  {100, 100, 0.0});
}

void BM_Dijkstra(benchmark::State& state) {
  Topology t = BenchTopology(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto sp = ShortestPath(t.graph, 0,
                           static_cast<NodeId>(t.graph.NodeCount() - 1));
    benchmark::DoNotOptimize(sp);
  }
}
BENCHMARK(BM_Dijkstra)->Arg(4)->Arg(6)->Arg(8);

void BM_YenKsp(benchmark::State& state) {
  Topology t = BenchTopology(5, 5);
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    PathStore store(&t.graph);
    KspGenerator gen(&store, 0,
                     static_cast<NodeId>(t.graph.NodeCount() - 1));
    benchmark::DoNotOptimize(gen.GetId(k - 1));
  }
}
BENCHMARK(BM_YenKsp)->Arg(1)->Arg(5)->Arg(20);

void BM_YenKspCached(benchmark::State& state) {
  // The warm-cache path LDR relies on: repeated GetId() is O(1).
  Topology t = BenchTopology(5, 5);
  KspCache cache(&t.graph);
  NodeId dst = static_cast<NodeId>(t.graph.NodeCount() - 1);
  cache.Get(0, dst)->GetId(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(0, dst)->GetId(19));
  }
}
BENCHMARK(BM_YenKspCached);

void BM_MaxFlow(benchmark::State& state) {
  Topology t = BenchTopology(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double f = MaxFlowGbps(t.graph, 0,
                           static_cast<NodeId>(t.graph.NodeCount() - 1));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_MaxFlow)->Arg(4)->Arg(8);

void BM_FftConvolution(benchmark::State& state) {
  // One link's uncorrelated-multiplexing convolution as the controller makes
  // it: `k` aggregate PMFs over a common bin width of (sum of peaks) / 1024,
  // so their lengths sum to ~1024 bins and the result fills one 1024-point
  // transform (paper: "all the needed convolutions in milliseconds").
  // With a second argument d > 0 the first PMF has d bins and the other k - 1
  // share the rest: the measured shape, whose longest PMF holds more than
  // n/8 bins. With d = 0 every PMF gets a near-equal share, which leaves
  // more leading stages for ConvolvePmfs to skip.
  size_t k = static_cast<size_t>(state.range(0));
  size_t dominant = static_cast<size_t>(state.range(1));
  Rng rng(5);
  std::vector<double> share(k);
  double share_total = 0;
  for (double& s : share) {
    s = rng.Uniform(0.5, 1.5);
    share_total += s;
  }
  if (dominant > 0) share_total -= share[0];
  const size_t spread = dominant > 0 ? 1024 - dominant : 1023;
  std::vector<std::vector<double>> pmfs(k);
  size_t extra_left = 1023;  // sum of (length - 1): result length 1024
  for (size_t a = 0; a < k; ++a) {
    size_t extra = dominant > 0 && a == 0 ? dominant - 1
                   : a + 1 < k ? static_cast<size_t>(
                                     static_cast<double>(spread) * share[a] /
                                     share_total)
                               : extra_left;
    extra_left -= extra;
    double total = 0;
    for (size_t i = 0; i <= extra; ++i) {
      pmfs[a].push_back(rng.NextDouble());
      total += pmfs[a].back();
    }
    for (double& v : pmfs[a]) v /= total;
  }
  for (auto _ : state) {
    auto out = ConvolvePmfs(pmfs);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftConvolution)
    ->Args({4, 0})->Args({10, 0})->Args({17, 0})
    ->Args({4, 400})->Args({10, 400})->Args({17, 400});

}  // namespace

BENCHMARK_MAIN();
