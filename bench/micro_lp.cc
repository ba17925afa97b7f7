// Microbenchmarks for the simplex LP solver (google-benchmark): random
// covering LPs and routing-shaped LPs at several sizes. These track the
// solver cost that dominates LDR's per-iteration work.
#include <benchmark/benchmark.h>

#include "bench/lp_shapes.h"
#include "lp/lp.h"
#include "util/random.h"

namespace {

using ldr::Rng;
using namespace ldr::lp;

void BM_LpCovering(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int m = n / 3;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(42);
    Problem p;
    std::vector<int> vars(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) vars[static_cast<size_t>(j)] = p.AddVariable(0, 1, 1);
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> row;
      for (int t = 0; t < 8; ++t) {
        row.emplace_back(vars[rng.NextIndex(static_cast<uint64_t>(n))], 1.0);
      }
      p.AddRow(RowType::kGe, 1.0, row);
    }
    state.ResumeTiming();
    Solution s = Solve(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_LpCovering)->Arg(100)->Arg(300)->Arg(1000);

// Routing-shaped LP: groups of path fractions summing to 1, capacity rows.
void BM_LpRoutingShape(benchmark::State& state) {
  int aggregates = static_cast<int>(state.range(0));
  int links = aggregates / 2;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    Problem p;
    int omax = p.AddVariable(1, kInfinity, 1e6);
    std::vector<std::vector<std::pair<int, double>>> link_terms(
        static_cast<size_t>(links));
    for (int a = 0; a < aggregates; ++a) {
      std::vector<std::pair<int, double>> sum_row;
      for (int k = 0; k < 3; ++k) {
        int v = p.AddVariable(0, 1, rng.Uniform(1, 20));
        sum_row.emplace_back(v, 1.0);
        for (int h = 0; h < 3; ++h) {
          link_terms[rng.NextIndex(static_cast<uint64_t>(links))].emplace_back(
              v, rng.Uniform(0.5, 2.0));
        }
      }
      p.AddRow(RowType::kEq, 1.0, sum_row);
    }
    for (int l = 0; l < links; ++l) {
      int ol = p.AddVariable(1, kInfinity, 1.0);
      auto row = link_terms[static_cast<size_t>(l)];
      row.emplace_back(ol, -10.0);
      p.AddRow(RowType::kLe, 0.0, row);
      p.AddRow(RowType::kLe, 0.0, {{ol, 1.0}, {omax, -1.0}});
    }
    state.ResumeTiming();
    Solution s = Solve(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_LpRoutingShape)->Arg(50)->Arg(150)->Arg(400);

// --- warm vs cold re-solve --------------------------------------------------
// The Fig. 13 loop's inner operation: a solved routing LP gains one round of
// path columns and is re-solved. Warm keeps the Solver (and its optimal
// basis) alive and appends through AddColumn; cold rebuilds the grown
// problem from scratch and solves it from the slack basis. Same LP content
// both ways (see bench/lp_shapes.h); the ratio is the payoff of the
// incremental core.
void BM_LpResolveWarm(benchmark::State& state) {
  int aggregates = static_cast<int>(state.range(0));
  int links = aggregates / 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto spec = ldr::bench::RoutingLpSpec::Random(7, aggregates, links);
    ldr::bench::WarmLp warm = ldr::bench::BuildSolverBase(spec);
    Solution base = warm.solver.Solve();  // untimed: basis the round inherits
    state.ResumeTiming();
    ldr::bench::AppendGrowth(spec, &warm);
    Solution s = warm.solver.Solve();
    benchmark::DoNotOptimize(s.objective);
    benchmark::DoNotOptimize(base.objective);
  }
}
BENCHMARK(BM_LpResolveWarm)->Arg(50)->Arg(150)->Arg(400);

// AddColumn alone (no re-solve): one Fig. 13 growth round appended into a
// solved warm solver. Under revised-simplex storage there is no tableau
// column to price the append into, so this is O(1) per column regardless of
// the row count — the old representation paid O(m·nnz) here.
void BM_LpAddColumnRound(benchmark::State& state) {
  int aggregates = static_cast<int>(state.range(0));
  int links = aggregates / 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto spec = ldr::bench::RoutingLpSpec::Random(7, aggregates, links);
    ldr::bench::WarmLp warm = ldr::bench::BuildSolverBase(spec);
    Solution base = warm.solver.Solve();
    benchmark::DoNotOptimize(base.objective);
    state.ResumeTiming();
    ldr::bench::AppendGrowth(spec, &warm);
    benchmark::DoNotOptimize(warm.solver.VariableCount());
  }
}
// Iterations pinned: the timed region is microseconds while each iteration
// rebuilds and solves the base untimed — letting min_time pick the count
// would re-run that setup thousands of times.
BENCHMARK(BM_LpAddColumnRound)->Arg(50)->Arg(150)->Arg(400)->Iterations(32);

void BM_LpResolveCold(benchmark::State& state) {
  int aggregates = static_cast<int>(state.range(0));
  int links = aggregates / 2;
  for (auto _ : state) {
    state.PauseTiming();
    auto spec = ldr::bench::RoutingLpSpec::Random(7, aggregates, links);
    state.ResumeTiming();
    Problem p = ldr::bench::BuildProblem(spec, /*with_growth=*/true);
    Solution s = Solve(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_LpResolveCold)->Arg(50)->Arg(150)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
