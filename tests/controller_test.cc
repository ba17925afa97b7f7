#include <gtest/gtest.h>

#include "graph/shortest_path.h"
#include "routing/ldr_controller.h"
#include "sim/evaluate.h"
#include "traffic/trace.h"
#include "util/random.h"

namespace ldr {
namespace {

// A -> B with a generous direct link and a longer detour.
Graph SmallNet(double direct_cap) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  g.AddBidiLink(a, b, 1, direct_cap);
  g.AddBidiLink(a, c, 2, 100);
  g.AddBidiLink(c, b, 2, 100);
  return g;
}

std::vector<double> ConstantSeries(double gbps, int minutes = 2) {
  return std::vector<double>(static_cast<size_t>(minutes) * 600, gbps);
}

Aggregate MakeAgg(NodeId s, NodeId d) {
  Aggregate a;
  a.src = s;
  a.dst = d;
  a.demand_gbps = 0;  // ignored by the controller
  a.flow_count = 10;
  return a;
}

TEST(Controller, PredictsHedgedMeanFromHistory) {
  Graph g = SmallNet(100);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1)};
  std::vector<std::vector<double>> history{ConstantSeries(2.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  ASSERT_EQ(r.demand_estimate_gbps.size(), 1u);
  // Constant 2.0 -> Algorithm 1 predicts 2.2.
  EXPECT_NEAR(r.demand_estimate_gbps[0], 2.2, 1e-9);
  EXPECT_TRUE(r.multiplex_ok);
  EXPECT_EQ(r.rounds, 1);
}

TEST(Controller, SmoothTrafficPassesFirstRound) {
  Graph g = SmallNet(10);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1), MakeAgg(1, 0)};
  std::vector<std::vector<double>> history{ConstantSeries(3.0),
                                           ConstantSeries(2.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  EXPECT_TRUE(r.multiplex_ok);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.failing_links_last_round, 0u);
  // Everything fits the direct link; no detours.
  ASSERT_EQ(r.outcome.allocations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(r.outcome.store->DelayMs(r.outcome.allocations[0][0].path), 1.0);
}

TEST(Controller, CorrelatedBurstsForceRerouteOrScaleUp) {
  // Two aggregates whose bursts coincide, sharing a just-big-enough link:
  // the temporal test fails and the controller must scale Ba up, pushing
  // some traffic to the detour.
  Graph g = SmallNet(10);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1), MakeAgg(0, 1)};
  std::vector<double> bursty = ConstantSeries(4.0);
  for (size_t i = 0; i < bursty.size(); i += 50) {
    for (size_t j = i; j < std::min(bursty.size(), i + 5); ++j) {
      bursty[j] = 7.0;  // simultaneous 100ms bursts on both aggregates
    }
  }
  std::vector<std::vector<double>> history{bursty, bursty};
  LdrControllerOptions opts;
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache, opts);
  // First placement (4.4 + 4.4 on a 10G link) fails the temporal check:
  // joint bursts reach 14 Gbps. The controller must iterate.
  EXPECT_GT(r.rounds, 1);
  // After scaling, estimates exceed the plain hedged mean.
  double hedged = 4.0 * 1.1;
  EXPECT_GT(r.demand_estimate_gbps[0] + r.demand_estimate_gbps[1],
            2 * hedged - 1e-9);
}

TEST(Controller, EpochLpTelemetryCoversEveryRound) {
  // The same epoch on fresh controllers, cut to one round and run to the
  // default budget. Both first rounds are the same cold solve, so an epoch
  // record merged over its rounds reports at least the one-round work; a
  // record holding only the last (warm, cheaper) round reports less. Three
  // aggregates overload the direct link, so the cold round must pivot.
  Graph g = SmallNet(10);
  std::vector<Aggregate> aggs{MakeAgg(0, 1), MakeAgg(0, 1), MakeAgg(0, 1)};
  std::vector<double> bursty = ConstantSeries(4.0);
  for (size_t i = 0; i < bursty.size(); i += 50) {
    for (size_t j = i; j < std::min(bursty.size(), i + 5); ++j) bursty[j] = 7.0;
  }
  std::vector<std::vector<double>> history{bursty, bursty, bursty};
  LdrControllerOptions one_round;
  one_round.max_rounds = 1;
  KspCache one_cache(&g);
  LdrControllerResult one =
      RunLdrController(g, aggs, history, &one_cache, one_round);
  KspCache multi_cache(&g);
  LdrControllerResult multi = RunLdrController(g, aggs, history, &multi_cache);
  ASSERT_EQ(one.rounds, 1);
  ASSERT_GT(multi.rounds, 1);
  EXPECT_GT(one.outcome.lp_iterations, 0);
  EXPECT_GE(multi.outcome.lp_iterations, one.outcome.lp_iterations);
  EXPECT_GE(multi.outcome.lp_pivots, one.outcome.lp_pivots);
}

TEST(Controller, ScaleUpTargetsOnlyCrossingAggregates) {
  // One bursty pair on a tight link, one smooth aggregate elsewhere: only
  // the former's Ba should grow.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C"),
         d = g.AddNode("D");
  g.AddBidiLink(a, b, 1, 8);    // tight shared link
  g.AddBidiLink(a, c, 2, 100);  // detour for A->B
  g.AddBidiLink(c, b, 2, 100);
  g.AddBidiLink(c, d, 1, 100);  // smooth aggregate's private link
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(a, b), MakeAgg(a, b), MakeAgg(c, d)};
  std::vector<double> bursty = ConstantSeries(3.0);
  for (size_t i = 0; i < bursty.size(); i += 40) {
    for (size_t j = i; j < std::min(bursty.size(), i + 4); ++j) bursty[j] = 6.0;
  }
  std::vector<std::vector<double>> history{bursty, bursty,
                                           ConstantSeries(1.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  // The smooth aggregate keeps its plain hedged prediction.
  EXPECT_NEAR(r.demand_estimate_gbps[2], 1.1, 1e-9);
}

TEST(Controller, ShortHistoryStillWorks) {
  Graph g = SmallNet(100);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1)};
  // 10 seconds of data only.
  std::vector<std::vector<double>> history{std::vector<double>(100, 5.0)};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  EXPECT_NEAR(r.demand_estimate_gbps[0], 5.5, 1e-9);
  EXPECT_TRUE(r.multiplex_ok);
}

TEST(Controller, MultiMinuteHistoryDrivesDecay) {
  Graph g = SmallNet(100);
  KspCache cache(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1)};
  // Minute 1 at 10, minutes 2-3 at 2: the prediction decays from 11 by 2%
  // per minute, floored at 2.2.
  std::vector<double> h = ConstantSeries(10.0, 1);
  auto low = ConstantSeries(2.0, 2);
  h.insert(h.end(), low.begin(), low.end());
  std::vector<std::vector<double>> history{h};
  LdrControllerResult r = RunLdrController(g, aggs, history, &cache);
  EXPECT_NEAR(r.demand_estimate_gbps[0], 11.0 * 0.98 * 0.98, 1e-9);
}

}  // namespace
}  // namespace ldr
