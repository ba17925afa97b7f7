#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "routing/b4.h"
#include "routing/lp_routing.h"
#include "routing/shortest_path_routing.h"
#include "sim/corpus_runner.h"
#include "sim/evaluate.h"
#include "sim/workload.h"
#include "topology/generators.h"

namespace ldr {
namespace {

Aggregate MakeAgg(NodeId s, NodeId d, double gbps) {
  Aggregate a;
  a.src = s;
  a.dst = d;
  a.demand_gbps = gbps;
  a.flow_count = std::max(1.0, gbps * 10);
  return a;
}

Graph TwoPath() {
  // A -> B: direct (1 ms, 10G) or via C (3 ms, 10G).
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  g.AddBidiLink(a, b, 1, 10);
  g.AddBidiLink(a, c, 1, 10);
  g.AddBidiLink(c, b, 2, 10);
  return g;
}

TEST(Evaluate, NoCongestionCleanStretch) {
  Graph g = TwoPath();
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 5)};
  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(1);
  auto sp = ShortestPath(g, 0, 1);
  out.allocations[0].push_back({store.Intern(*sp), 1.0});
  auto apsp = AllPairsShortestDelay(g);
  EvalResult r = Evaluate(g, aggs, out, apsp);
  EXPECT_DOUBLE_EQ(r.congested_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.total_stretch, 1.0);
  EXPECT_DOUBLE_EQ(r.max_stretch, 1.0);
  EXPECT_EQ(r.overloaded_links, 0u);
}

TEST(Evaluate, DetectsOverload) {
  Graph g = TwoPath();
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 15)};  // 15 > 10 on direct
  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(1);
  auto sp = ShortestPath(g, 0, 1);
  out.allocations[0].push_back({store.Intern(*sp), 1.0});
  auto apsp = AllPairsShortestDelay(g);
  EvalResult r = Evaluate(g, aggs, out, apsp);
  EXPECT_DOUBLE_EQ(r.congested_fraction, 1.0);
  EXPECT_EQ(r.overloaded_links, 1u);
  EXPECT_NEAR(r.link_utilization[0], 1.5, 1e-9);
}

TEST(Evaluate, StretchAccountsForSplit) {
  Graph g = TwoPath();
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 10)};
  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(1);
  auto direct = ShortestPath(g, 0, 1);
  ExclusionSet excl;
  excl.links.assign(g.LinkCount(), false);
  excl.links[0] = true;
  excl.links[1] = true;
  auto detour = ShortestPath(g, 0, 1, excl);
  ASSERT_TRUE(detour.has_value());
  out.allocations[0].push_back({store.Intern(*direct), 0.5});
  out.allocations[0].push_back({store.Intern(*detour), 0.5});
  auto apsp = AllPairsShortestDelay(g);
  EvalResult r = Evaluate(g, aggs, out, apsp);
  // Mean delay = 0.5*1 + 0.5*3 = 2; stretch 2.
  EXPECT_NEAR(r.total_stretch, 2.0, 1e-9);
  EXPECT_NEAR(r.max_stretch, 2.0, 1e-9);
}

TEST(Evaluate, MultipleAggregatesCongestedFraction) {
  Graph g = TwoPath();
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 15), MakeAgg(0, 2, 1)};
  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(2);
  out.allocations[0].push_back({store.Intern(*ShortestPath(g, 0, 1)), 1.0});
  out.allocations[1].push_back({store.Intern(*ShortestPath(g, 0, 2)), 1.0});
  auto apsp = AllPairsShortestDelay(g);
  EvalResult r = Evaluate(g, aggs, out, apsp);
  EXPECT_NEAR(r.congested_fraction, 0.5, 1e-9);
}

TEST(Evaluate, LinkLoadsSumAllocations) {
  Graph g = TwoPath();
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 8), MakeAgg(0, 1, 4)};
  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(2);
  auto sp = ShortestPath(g, 0, 1);
  out.allocations[0].push_back({store.Intern(*sp), 1.0});
  out.allocations[1].push_back({store.Intern(*sp), 0.5});
  auto loads = LinkLoads(g, aggs, out);
  EXPECT_NEAR(loads[0], 8 + 2, 1e-9);
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// The engine evaluates against the sources' rows only; on masked graphs the
// result must be AllPairsShortestDelay's bit for bit. Sources (nodes 0-3)
// and destinations (4-9) are disjoint, so a table holding the wrong rows
// drops aggregates from the stretch sums and changes weighted_delay_ms.
TEST(Evaluate, SourceRowsMatchAllPairsOnMaskedGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Topology t = MakeChordedRing("r", 10, 3, UsRegion(), &rng);
    Graph& g = t.graph;
    for (int i = 0; i < 2; ++i) {
      g.SetLinkDown(static_cast<LinkId>(rng.NextIndex(g.LinkCount())), true);
    }
    std::vector<Aggregate> aggs;
    for (int i = 0; i < 10; ++i) {
      aggs.push_back(MakeAgg(static_cast<NodeId>(rng.NextIndex(4)),
                             static_cast<NodeId>(4 + rng.NextIndex(6)),
                             rng.Uniform(20, 120)));
    }
    std::vector<double> all_pairs = AllPairsShortestDelay(g);
    std::vector<double> source_rows = SourceRowsShortestDelay(g, aggs);
    KspCache cache(&g);
    ShortestPathScheme sp(&g, &cache);
    B4Scheme b4(&g, &cache);
    for (RoutingScheme* scheme : {static_cast<RoutingScheme*>(&sp),
                                  static_cast<RoutingScheme*>(&b4)}) {
      SCOPED_TRACE(scheme->name());
      RoutingOutcome out = scheme->Route(aggs);
      EvalResult want = Evaluate(g, aggs, out, all_pairs);
      EvalResult got = Evaluate(g, aggs, out, source_rows);
      EXPECT_GT(want.weighted_delay_ms, 0);
      EXPECT_EQ(Bits(got.congested_fraction), Bits(want.congested_fraction));
      EXPECT_EQ(Bits(got.total_stretch), Bits(want.total_stretch));
      EXPECT_EQ(Bits(got.max_stretch), Bits(want.max_stretch));
      EXPECT_EQ(Bits(got.weighted_delay_ms), Bits(want.weighted_delay_ms));
      EXPECT_EQ(got.overloaded_links, want.overloaded_links);
      ASSERT_EQ(got.link_utilization.size(), want.link_utilization.size());
      for (size_t l = 0; l < got.link_utilization.size(); ++l) {
        EXPECT_EQ(Bits(got.link_utilization[l]),
                  Bits(want.link_utilization[l]));
      }
    }
  }
}

TEST(Workload, ScalingHitsTargetUtilization) {
  Rng rng(3);
  Topology t = MakeGrid("g", 3, 3, 0.2, 0.0, EuropeRegion(), &rng,
                        {100, 100, 0.0});
  KspCache cache(&t.graph);
  WorkloadOptions opts;
  opts.num_instances = 2;
  opts.target_utilization = 0.77;
  auto workloads = MakeScaledWorkloads(t, &cache, opts);
  ASSERT_EQ(workloads.size(), 2u);
  for (const auto& aggs : workloads) {
    ASSERT_FALSE(aggs.empty());
    double u = MinMaxUtilization(t.graph, aggs, &cache);
    EXPECT_NEAR(u, 0.77, 0.02);
  }
}

TEST(Workload, DifferentInstancesDiffer) {
  Rng rng(4);
  Topology t = MakeGrid("g", 3, 3, 0.2, 0.0, EuropeRegion(), &rng,
                        {100, 100, 0.0});
  KspCache cache(&t.graph);
  WorkloadOptions opts;
  opts.num_instances = 2;
  auto w = MakeScaledWorkloads(t, &cache, opts);
  ASSERT_EQ(w.size(), 2u);
  // Total demand can coincide after scaling, but the per-aggregate pattern
  // must differ.
  bool any_diff = w[0].size() != w[1].size();
  for (size_t i = 0; !any_diff && i < w[0].size(); ++i) {
    if (std::abs(w[0][i].demand_gbps - w[1][i].demand_gbps) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workload, DeterministicForSeed) {
  Rng rng(5);
  Topology t = MakeGrid("g", 3, 3, 0.2, 0.0, EuropeRegion(), &rng,
                        {100, 100, 0.0});
  KspCache c1(&t.graph), c2(&t.graph);
  WorkloadOptions opts;
  opts.num_instances = 1;
  opts.seed = 42;
  auto w1 = MakeScaledWorkloads(t, &c1, opts);
  auto w2 = MakeScaledWorkloads(t, &c2, opts);
  ASSERT_EQ(w1[0].size(), w2[0].size());
  for (size_t i = 0; i < w1[0].size(); ++i) {
    EXPECT_DOUBLE_EQ(w1[0][i].demand_gbps, w2[0][i].demand_gbps);
  }
}

TEST(Workload, ScaleToTargetHandlesEmpty) {
  Graph g = TwoPath();
  KspCache cache(&g);
  std::vector<Aggregate> empty;
  EXPECT_DOUBLE_EQ(ScaleToTargetUtilization(g, &empty, &cache, 0.5), 1.0);
}

// The parallel corpus runner must be bitwise deterministic in the worker
// count: LDR_THREADS=1 and LDR_THREADS=4 produce identical SchemeSeries.
TEST(CorpusRunner, RunTopologyDeterministicAcrossThreadCounts) {
  Rng rng(11);
  Topology t = MakeGrid("det-grid", 3, 3, 0.3, 0.0, EuropeRegion(), &rng,
                        {100, 40, 0.3});
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeSp, kSchemeOptimal, kSchemeMinMax};
  opts.workload.num_instances = 4;
  opts.workload.seed = 7;

  setenv("LDR_THREADS", "1", 1);
  TopologyRun serial = RunTopology(t, opts);
  setenv("LDR_THREADS", "4", 1);
  TopologyRun parallel = RunTopology(t, opts);
  unsetenv("LDR_THREADS");

  ASSERT_EQ(serial.schemes.size(), parallel.schemes.size());
  for (size_t s = 0; s < serial.schemes.size(); ++s) {
    const SchemeSeries& a = serial.schemes[s];
    const SchemeSeries& b = parallel.schemes[s];
    EXPECT_EQ(a.scheme, b.scheme);
    ASSERT_EQ(a.congested_fraction.size(), b.congested_fraction.size());
    for (size_t i = 0; i < a.congested_fraction.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.congested_fraction[i], b.congested_fraction[i]);
      EXPECT_DOUBLE_EQ(a.total_stretch[i], b.total_stretch[i]);
      EXPECT_DOUBLE_EQ(a.max_stretch[i], b.max_stretch[i]);
      EXPECT_DOUBLE_EQ(a.weighted_delay_ms[i], b.weighted_delay_ms[i]);
      EXPECT_EQ(a.feasible[i], b.feasible[i]);
    }
  }
}

TEST(CorpusRunner, RunCorpusOrdersResultsLikeInput) {
  Rng rng(12);
  std::vector<Topology> corpus;
  corpus.push_back(MakeRing("ring-a", 6, EuropeRegion(), &rng));
  corpus.push_back(MakeTree("tree-b", 7, UsRegion(), &rng));
  corpus.push_back(MakeGrid("grid-c", 2, 3, 0.0, 0.0, AsiaRegion(), &rng));
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeSp};
  opts.workload.num_instances = 2;

  setenv("LDR_THREADS", "3", 1);
  std::vector<TopologyRun> runs = RunCorpus(corpus, opts);
  unsetenv("LDR_THREADS");
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].topology, "ring-a");
  EXPECT_EQ(runs[1].topology, "tree-b");
  EXPECT_EQ(runs[2].topology, "grid-c");
  for (const TopologyRun& run : runs) {
    ASSERT_EQ(run.schemes.size(), 1u);
    EXPECT_EQ(run.schemes[0].solve_ms.size(), 2u);
  }
}

}  // namespace
}  // namespace ldr
