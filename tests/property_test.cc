// Cross-scheme property tests on randomized topologies and workloads:
// invariants that must hold for every routing scheme regardless of inputs,
// plus the paper's structural claims about the metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "metrics/llpd.h"
#include "routing/b4.h"
#include "routing/lp_routing.h"
#include "routing/shortest_path_routing.h"
#include "sim/evaluate.h"
#include "sim/workload.h"
#include "topology/generators.h"
#include "topology/zoo_corpus.h"
#include "util/random.h"
#include "util/stats.h"

namespace ldr {
namespace {

struct Scenario {
  Topology topology;
  std::vector<Aggregate> aggregates;
};

Scenario RandomScenario(uint64_t seed, double load = 0.77) {
  Rng rng(seed);
  Scenario s;
  switch (seed % 3) {
    case 0:
      s.topology = MakeGrid("g", 3, 3, 0.3, 0.05, EuropeRegion(), &rng,
                            {100, 40, 0.3});
      break;
    case 1:
      s.topology =
          MakeChordedRing("r", 10, 3, UsRegion(), &rng, {100, 40, 0.3});
      break;
    default:
      s.topology = MakeWaxman("w", 12, 0.7, 0.3, AsiaRegion(), &rng,
                              {100, 40, 0.3});
      break;
  }
  KspCache cache(&s.topology.graph);
  WorkloadOptions wopts;
  wopts.num_instances = 1;
  wopts.seed = seed * 13 + 1;
  wopts.target_utilization = load;
  s.aggregates = MakeScaledWorkloads(s.topology, &cache, wopts)[0];
  return s;
}

class SchemeInvariantsTest : public ::testing::TestWithParam<int> {};

// Every scheme must route every routable aggregate fully: the per-aggregate
// allocation fractions sum to 1, every path really connects src to dst, and
// fractions are in (0, 1].
TEST_P(SchemeInvariantsTest, AllocationsAreCompleteAndWellFormed) {
  Scenario sc = RandomScenario(static_cast<uint64_t>(GetParam()));
  const Graph& g = sc.topology.graph;
  KspCache cache(&g);
  std::vector<std::unique_ptr<RoutingScheme>> schemes;
  schemes.push_back(std::make_unique<ShortestPathScheme>(&g, &cache));
  schemes.push_back(std::make_unique<B4Scheme>(&g, &cache));
  schemes.push_back(std::make_unique<LatencyOptimalScheme>(&g, &cache));
  schemes.push_back(std::make_unique<LatencyOptimalScheme>(&g, &cache, 0.1));
  schemes.push_back(std::make_unique<MinMaxScheme>(&g, &cache));
  schemes.push_back(std::make_unique<MinMaxScheme>(&g, &cache, 10));
  for (auto& scheme : schemes) {
    RoutingOutcome out = scheme->Route(sc.aggregates);
    ASSERT_EQ(out.allocations.size(), sc.aggregates.size()) << scheme->name();
    for (size_t a = 0; a < sc.aggregates.size(); ++a) {
      double total = 0;
      for (const PathAllocation& pa : out.allocations[a]) {
        EXPECT_GT(pa.fraction, 0) << scheme->name();
        EXPECT_LE(pa.fraction, 1 + 1e-6) << scheme->name();
        ASSERT_FALSE(out.store->Empty(pa.path)) << scheme->name();
        auto nodes = out.store->Nodes(pa.path);
        EXPECT_EQ(nodes.front(), sc.aggregates[a].src) << scheme->name();
        EXPECT_EQ(nodes.back(), sc.aggregates[a].dst) << scheme->name();
        total += pa.fraction;
      }
      EXPECT_NEAR(total, 1.0, 1e-5)
          << scheme->name() << " aggregate " << a;
    }
  }
}

// When a scheme claims feasibility, the evaluator must agree that no link
// is overloaded (schemes and evaluator share the congestion definition).
TEST_P(SchemeInvariantsTest, FeasibleClaimsMatchEvaluator) {
  Scenario sc = RandomScenario(static_cast<uint64_t>(GetParam()));
  const Graph& g = sc.topology.graph;
  KspCache cache(&g);
  std::vector<double> apsp = AllPairsShortestDelay(g);
  for (const char* id :
       {"B4", "Optimal", "MinMax", "MinMaxK10"}) {
    std::unique_ptr<RoutingScheme> scheme;
    if (std::string(id) == "B4") {
      scheme = std::make_unique<B4Scheme>(&g, &cache);
    } else if (std::string(id) == "Optimal") {
      scheme = std::make_unique<LatencyOptimalScheme>(&g, &cache);
    } else if (std::string(id) == "MinMax") {
      scheme = std::make_unique<MinMaxScheme>(&g, &cache);
    } else {
      scheme = std::make_unique<MinMaxScheme>(&g, &cache, 10);
    }
    RoutingOutcome out = scheme->Route(sc.aggregates);
    EvalResult eval = Evaluate(g, sc.aggregates, out, apsp);
    if (out.feasible) {
      EXPECT_EQ(eval.overloaded_links, 0u) << id;
      EXPECT_DOUBLE_EQ(eval.congested_fraction, 0.0) << id;
    }
  }
}

// The paper's central ordering: latency-optimal routing achieves total
// delay no worse than MinMax (which only tie-breaks on delay), and MinMax
// achieves max utilization no worse than latency-optimal.
TEST_P(SchemeInvariantsTest, OptimalVsMinMaxOrdering) {
  Scenario sc = RandomScenario(static_cast<uint64_t>(GetParam()));
  const Graph& g = sc.topology.graph;
  KspCache cache(&g);
  std::vector<double> apsp = AllPairsShortestDelay(g);
  LatencyOptimalScheme opt(&g, &cache);
  MinMaxScheme minmax(&g, &cache);
  RoutingOutcome o = opt.Route(sc.aggregates);
  RoutingOutcome m = minmax.Route(sc.aggregates);
  if (!o.feasible || !m.feasible) return;  // overloaded scenario: skip
  EvalResult oe = Evaluate(g, sc.aggregates, o, apsp);
  EvalResult me = Evaluate(g, sc.aggregates, m, apsp);
  EXPECT_LE(oe.total_stretch, me.total_stretch + 1e-4);
  EXPECT_LE(MaxOf(me.link_utilization), MaxOf(oe.link_utilization) + 1e-4);
}

// Scaling all demands by alpha scales MinMax utilization by ~alpha (the LP
// is positively homogeneous; the iterative approximation tracks it).
TEST_P(SchemeInvariantsTest, MinMaxHomogeneity) {
  Scenario sc = RandomScenario(static_cast<uint64_t>(GetParam()), 0.5);
  const Graph& g = sc.topology.graph;
  KspCache cache(&g);
  double u1 = MinMaxUtilization(g, sc.aggregates, &cache);
  std::vector<Aggregate> doubled = sc.aggregates;
  for (Aggregate& a : doubled) a.demand_gbps *= 2;
  double u2 = MinMaxUtilization(g, doubled, &cache);
  EXPECT_NEAR(u2, 2 * u1, 0.05 * u2);
}

// Shortest-path routing is the stretch-1 baseline by definition.
TEST_P(SchemeInvariantsTest, SpStretchIsOne) {
  Scenario sc = RandomScenario(static_cast<uint64_t>(GetParam()));
  const Graph& g = sc.topology.graph;
  KspCache cache(&g);
  std::vector<double> apsp = AllPairsShortestDelay(g);
  ShortestPathScheme sp(&g, &cache);
  EvalResult e = Evaluate(g, sc.aggregates, sp.Route(sc.aggregates), apsp);
  EXPECT_NEAR(e.total_stretch, 1.0, 1e-9);
  EXPECT_NEAR(e.max_stretch, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeInvariantsTest, ::testing::Range(1, 13));

// APA is symmetric on symmetric (bidirectional, equal-parameter) graphs.
TEST(MetricProperties, ApaSymmetricOnBidiGraphs) {
  Rng rng(91);
  Topology t = MakeGrid("g", 3, 3, 0.3, 0.0, EuropeRegion(), &rng,
                        {100, 100, 0.0});
  auto apa = ComputeApa(t.graph);
  std::map<std::pair<NodeId, NodeId>, double> by_pair;
  for (const PairApa& p : apa) by_pair[{p.src, p.dst}] = p.apa;
  for (const PairApa& p : apa) {
    auto rev = by_pair.find({p.dst, p.src});
    ASSERT_NE(rev, by_pair.end());
    EXPECT_DOUBLE_EQ(p.apa, rev->second);
  }
}

// Paper §2: "the rank ordering does not change greatly if we choose a
// different threshold in the upper half of the distribution". Check that
// LLPD at thresholds 0.6 and 0.8 rank a corpus sample consistently
// (Spearman rank correlation > 0.8).
TEST(MetricProperties, LlpdRankStableAcrossThresholds) {
  std::vector<Topology> corpus = ZooCorpus();
  std::vector<double> llpd_lo, llpd_hi;
  for (size_t i = 0; i < corpus.size(); i += 9) {
    auto apa = ComputeApa(corpus[i].graph);
    llpd_lo.push_back(LlpdFromApa(apa, 0.6));
    llpd_hi.push_back(LlpdFromApa(apa, 0.8));
  }
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  std::vector<double> ra = ranks(llpd_lo), rb = ranks(llpd_hi);
  double n = static_cast<double>(ra.size());
  double d2 = 0;
  for (size_t i = 0; i < ra.size(); ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  double spearman = 1 - 6 * d2 / (n * (n * n - 1));
  EXPECT_GT(spearman, 0.8);
}

// LLPD at threshold 0 counts every connected pair: always 1.0.
TEST(MetricProperties, LlpdAtZeroThresholdIsOne) {
  Rng rng(92);
  Topology t = MakeChordedRing("r", 8, 2, EuropeRegion(), &rng,
                               {100, 100, 0.0});
  auto apa = ComputeApa(t.graph);
  EXPECT_DOUBLE_EQ(LlpdFromApa(apa, 0.0), 1.0);
}

// B4 with zero headroom and B4 whose headroom is immediately returned for
// leftovers must produce identical loads when everything fits anyway.
TEST(B4Properties, HeadroomIrrelevantUnderLowLoad) {
  Scenario sc = RandomScenario(3, /*load=*/0.3);
  const Graph& g = sc.topology.graph;
  KspCache cache(&g);
  B4Scheme plain(&g, &cache);
  B4Scheme hr(&g, &cache, /*headroom=*/0.1);
  RoutingOutcome a = plain.Route(sc.aggregates);
  RoutingOutcome b = hr.Route(sc.aggregates);
  EXPECT_TRUE(a.feasible);
  EXPECT_TRUE(b.feasible);
  std::vector<double> la = LinkLoads(g, sc.aggregates, a);
  std::vector<double> lb = LinkLoads(g, sc.aggregates, b);
  double total_a = Sum(la), total_b = Sum(lb);
  // Same traffic placed; headroom may shift a little of it to longer paths,
  // which can only increase total link-miles of load.
  EXPECT_GE(total_b, total_a - 1e-6);
}

}  // namespace
}  // namespace ldr
