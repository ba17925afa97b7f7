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
  // Convolve `k` aggregate PMFs of 1024 bins each — one link's multiplexing
  // check (paper: "all the needed convolutions in milliseconds").
  size_t k = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::vector<double>> pmfs(k, std::vector<double>(1024));
  for (auto& pmf : pmfs) {
    double total = 0;
    for (double& v : pmf) {
      v = rng.NextDouble();
      total += v;
    }
    for (double& v : pmf) v /= total;
  }
  for (auto _ : state) {
    auto out = ConvolvePmfs(pmfs);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftConvolution)->Arg(2)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
