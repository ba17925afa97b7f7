// Replay-simulator tests, including the end-to-end validation of the
// Fig. 14 multiplexing check: placements the controller accepts keep
// realized transient queues within the 10 ms budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "graph/ksp.h"
#include "routing/ldr_controller.h"
#include "sim/replay.h"
#include "topology/generators.h"
#include "traffic/trace.h"
#include "util/random.h"

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

Graph OneLink(double cap) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  g.AddBidiLink(a, b, 1, cap);
  return g;
}

RoutingOutcome DirectOutcome(PathStore* store, size_t n_aggs) {
  RoutingOutcome out;
  out.store = store;
  out.allocations.resize(n_aggs);
  PathId direct = store->Intern(std::vector<LinkId>{0});
  for (size_t a = 0; a < n_aggs; ++a) {
    out.allocations[a].push_back({direct, 1.0});
  }
  return out;
}

TEST(Replay, NoQueueUnderCapacity) {
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 5)};
  std::vector<std::vector<double>> series{std::vector<double>(100, 5.0)};
  ReplayResult r = ReplayTraffic(g, aggs, DirectOutcome(&store, 1), series);
  EXPECT_DOUBLE_EQ(r.worst_queue_ms, 0);
  EXPECT_EQ(r.links_with_queueing, 0u);
  EXPECT_NEAR(r.links[0].mean_utilization, 0.5, 1e-9);
  EXPECT_NEAR(r.links[0].peak_utilization, 0.5, 1e-9);
}

TEST(Replay, QueueBuildsAndDrains) {
  // 1 period at 20 Gbps into a 10 Gbps link: 1 Gbit backlog = 100 ms.
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 10)};
  std::vector<double> s(30, 5.0);
  s[10] = 20.0;
  std::vector<std::vector<double>> series{s};
  ReplayResult r = ReplayTraffic(g, aggs, DirectOutcome(&store, 1), series);
  EXPECT_NEAR(r.worst_queue_ms, (20.0 - 10.0) * 0.1 / 10.0 * 1000, 1e-9);
  EXPECT_EQ(r.links_with_queueing, 1u);
  // Queue persists while draining at 5 Gbps arrivals vs 10 Gbps service:
  // 1 Gbit drains in 2 periods.
  EXPECT_NEAR(r.links[0].queueing_fraction, 2.0 / 30.0, 1e-9);
}

TEST(Replay, FractionsWeightContributions) {
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 40)};
  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(1);
  out.allocations[0].push_back({store.Intern(std::vector<LinkId>{0}), 0.25});
  std::vector<std::vector<double>> series{std::vector<double>(50, 40.0)};
  ReplayResult r = ReplayTraffic(g, aggs, out, series);
  // Only 10 of 40 Gbps on this link: exactly at capacity, no queue.
  EXPECT_NEAR(r.links[0].peak_utilization, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.worst_queue_ms, 0);
}

TEST(Replay, ShortSeriesGoSilent) {
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 8), MakeAgg(0, 1, 8)};
  std::vector<std::vector<double>> series{std::vector<double>(10, 8.0),
                                          std::vector<double>(5, 8.0)};
  ReplayResult r = ReplayTraffic(g, aggs, DirectOutcome(&store, 2), series);
  // First 5 periods 16 Gbps (queueing), then 8 Gbps (draining).
  EXPECT_GT(r.worst_queue_ms, 0);
  EXPECT_NEAR(r.links[0].peak_utilization, 1.6, 1e-9);
}

TEST(Replay, AggregateDelayIncludesQueueing) {
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 12)};
  std::vector<std::vector<double>> series{std::vector<double>(20, 12.0)};
  ReplayResult r = ReplayTraffic(g, aggs, DirectOutcome(&store, 1), series);
  // Propagation 1 ms plus the worst queue on the link.
  EXPECT_NEAR(r.worst_aggregate_delay_ms, 1.0 + r.links[0].max_queue_ms,
              1e-9);
  EXPECT_GT(r.links[0].max_queue_ms, 0);
}

TEST(Replay, EmptySeriesReportsPropagationDelay) {
  // No periods: no queue, no utilization, but the aggregate still crosses
  // the link's 1 ms of propagation.
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 5)};
  std::vector<std::vector<double>> series{{}};
  ReplayResult r = ReplayTraffic(g, aggs, DirectOutcome(&store, 1), series);
  EXPECT_EQ(r.worst_aggregate_delay_ms, 1.0);
  EXPECT_EQ(r.worst_queue_ms, 0.0);
  EXPECT_EQ(r.links_with_queueing, 0u);
  EXPECT_EQ(r.links[0].mean_utilization, 0.0);
  EXPECT_EQ(r.links[0].queueing_fraction, 0.0);
}

// Reference: the period-by-period (time-major) replay, which the
// link-major ReplayTraffic must match bit for bit on any non-empty horizon.
ReplayResult TimeMajorReplay(
    const Graph& g, const std::vector<Aggregate>& aggregates,
    const RoutingOutcome& outcome,
    const std::vector<std::vector<double>>& series_gbps) {
  ReplayResult result;
  const PathStore& store = *outcome.store;
  size_t num_links = g.LinkCount();
  result.links.assign(num_links, {});
  struct Contribution {
    size_t aggregate;
    double weight;
  };
  std::vector<std::vector<Contribution>> on_link(num_links);
  size_t horizon = 0;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    horizon = std::max(horizon, series_gbps[a].size());
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-12) continue;
      for (LinkId l : store.Links(pa.path)) {
        on_link[static_cast<size_t>(l)].push_back({a, pa.fraction});
      }
    }
  }
  if (horizon == 0) return result;
  std::vector<double> queue_gbit(num_links, 0.0);
  std::vector<double> util_sum(num_links, 0.0);
  std::vector<size_t> queue_periods(num_links, 0);
  for (size_t t = 0; t < horizon; ++t) {
    for (size_t l = 0; l < num_links; ++l) {
      if (on_link[l].empty()) continue;
      double cap = g.link(static_cast<LinkId>(l)).capacity_gbps;
      if (cap <= 0) continue;
      double rate = 0;
      for (const Contribution& c : on_link[l]) {
        if (t < series_gbps[c.aggregate].size()) {
          rate += c.weight * series_gbps[c.aggregate][t];
        }
      }
      LinkReplayStats& stats = result.links[l];
      util_sum[l] += rate / cap;
      stats.peak_utilization = std::max(stats.peak_utilization, rate / cap);
      double arrived = rate * kSeriesPeriodSec;
      double served = cap * kSeriesPeriodSec;
      queue_gbit[l] = std::max(0.0, queue_gbit[l] + arrived - served);
      if (queue_gbit[l] > 1e-12) ++queue_periods[l];
      double delay_ms = queue_gbit[l] / cap * 1000.0;
      stats.max_queue_ms = std::max(stats.max_queue_ms, delay_ms);
    }
  }
  for (size_t l = 0; l < num_links; ++l) {
    if (on_link[l].empty()) continue;
    LinkReplayStats& stats = result.links[l];
    stats.mean_utilization = util_sum[l] / static_cast<double>(horizon);
    stats.queueing_fraction =
        static_cast<double>(queue_periods[l]) / static_cast<double>(horizon);
    result.worst_queue_ms = std::max(result.worst_queue_ms, stats.max_queue_ms);
    if (queue_periods[l] > 0) ++result.links_with_queueing;
  }
  for (size_t a = 0; a < aggregates.size(); ++a) {
    double delay = 0;
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-12) continue;
      double path_delay = 0;
      for (LinkId l : store.Links(pa.path)) {
        path_delay += g.link(l).delay_ms +
                      result.links[static_cast<size_t>(l)].max_queue_ms;
      }
      delay += pa.fraction * path_delay;
    }
    result.worst_aggregate_delay_ms =
        std::max(result.worst_aggregate_delay_ms, delay);
  }
  return result;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Every field of both results, compared as bit patterns.
void ExpectBitwiseEqual(const ReplayResult& got, const ReplayResult& want) {
  EXPECT_EQ(Bits(got.worst_queue_ms), Bits(want.worst_queue_ms));
  EXPECT_EQ(got.links_with_queueing, want.links_with_queueing);
  EXPECT_EQ(Bits(got.worst_aggregate_delay_ms),
            Bits(want.worst_aggregate_delay_ms));
  ASSERT_EQ(got.links.size(), want.links.size());
  for (size_t l = 0; l < got.links.size(); ++l) {
    SCOPED_TRACE("link " + std::to_string(l));
    EXPECT_EQ(Bits(got.links[l].max_queue_ms),
              Bits(want.links[l].max_queue_ms));
    EXPECT_EQ(Bits(got.links[l].mean_utilization),
              Bits(want.links[l].mean_utilization));
    EXPECT_EQ(Bits(got.links[l].peak_utilization),
              Bits(want.links[l].peak_utilization));
    EXPECT_EQ(Bits(got.links[l].queueing_fraction),
              Bits(want.links[l].queueing_fraction));
  }
}

TEST(Replay, MatchesTimeMajorReference) {
  // Fixed shapes. A -> B -> C directly or via D: the aggregate's two paths
  // share A -> B, so that link sums two contributions of one series.
  {
    Graph g;
    NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C"),
           d = g.AddNode("D");
    LinkId ab = g.AddBidiLink(a, b, 1, 10);
    LinkId bc = g.AddBidiLink(b, c, 2, 4);
    LinkId bd = g.AddBidiLink(b, d, 1, 6);
    LinkId dc = g.AddBidiLink(d, c, 1, 6);
    PathStore store(&g);
    RoutingOutcome out;
    out.store = &store;
    out.allocations.resize(3);
    out.allocations[0] = {{store.Intern(std::vector<LinkId>{ab, bc}), 0.3},
                          {store.Intern(std::vector<LinkId>{ab, bd, dc}), 0.7}};
    // Exactly at capacity on B -> C (0.25 x 16 = 4), unequal lengths.
    out.allocations[1] = {{store.Intern(std::vector<LinkId>{bc}), 0.25}};
    out.allocations[2] = {{store.Intern(std::vector<LinkId>{bd}), 1.0}};
    std::vector<Aggregate> aggs{MakeAgg(a, c, 9), MakeAgg(b, c, 16),
                                MakeAgg(b, d, 3)};
    std::vector<double> bursty(90, 9.0);
    for (size_t t = 20; t < 30; ++t) bursty[t] = 14.0;  // congests A -> B
    std::vector<std::vector<double>> series{bursty,
                                            std::vector<double>(40, 16.0),
                                            std::vector<double>(65, 3.0)};
    SCOPED_TRACE("shared link");
    ExpectBitwiseEqual(ReplayTraffic(g, aggs, out, series),
                       TimeMajorReplay(g, aggs, out, series));
    g.SetCapacity(bd, 0);  // a zero-capacity link keeps empty stats
    SCOPED_TRACE("zero capacity");
    ExpectBitwiseEqual(ReplayTraffic(g, aggs, out, series),
                       TimeMajorReplay(g, aggs, out, series));
  }

  // Seeded random placements on chorded rings: up to three KSP paths per
  // aggregate with random splits (some below the 1e-12 cutoff), series of
  // random length, rates high enough that some links congest, one link at
  // zero capacity. Even seeds draw rates from a coarse grid, so sums hit
  // capacity exactly; odd seeds jitter them, so the order of the sums and
  // of the divisions shows in the last bits.
  const double kRates[] = {0.0, 1.25, 2.5, 5.0, 10.0, 20.0};
  const double kCaps[] = {5.0, 10.0, 20.0, 40.0, 7.3};
  const double kSplits[] = {1.0, 0.5, 0.25, 0.3, 0.7, 1e-13};
  size_t congested_cases = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Topology t = MakeChordedRing("r", 8, 3, EuropeRegion(), &rng);
    Graph& g = t.graph;
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      g.SetCapacity(static_cast<LinkId>(l), kCaps[rng.NextIndex(5)]);
    }
    g.SetCapacity(static_cast<LinkId>(rng.NextIndex(g.LinkCount())), 0);
    KspCache cache(&g);
    size_t n = g.NodeCount();
    std::vector<Aggregate> aggs;
    RoutingOutcome out;
    out.store = cache.store();
    std::vector<std::vector<double>> series;
    for (int i = 0; i < 12; ++i) {
      NodeId s = static_cast<NodeId>(rng.NextIndex(n));
      NodeId d = static_cast<NodeId>(rng.NextIndex(n - 1));
      if (d >= s) ++d;
      aggs.push_back(MakeAgg(s, d, 5));
      std::vector<PathAllocation> alloc;
      size_t k = 1 + rng.NextIndex(3);
      for (size_t j = 0; j < k; ++j) {
        PathId p = cache.Get(s, d)->GetId(j);
        if (p == kInvalidPathId) break;
        alloc.push_back({p, kSplits[rng.NextIndex(6)]});
      }
      out.allocations.push_back(alloc);
      std::vector<double> x(rng.NextIndex(120));
      for (double& v : x) {
        v = kRates[rng.NextIndex(6)];
        if (seed % 2 == 1) v *= rng.Uniform(0.9, 1.1);
      }
      series.push_back(x);
    }
    ReplayResult want = TimeMajorReplay(g, aggs, out, series);
    if (want.links_with_queueing > 0) ++congested_cases;
    ExpectBitwiseEqual(ReplayTraffic(g, aggs, out, series), want);
  }
  EXPECT_GT(congested_cases, 0u);
}

// End-to-end: a controller-accepted placement keeps realized queues within
// the 10 ms budget when replaying the same measured traffic.
TEST(Replay, ControllerAcceptedPlacementStaysWithinQueueBudget) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  g.AddBidiLink(a, b, 1, 10);
  g.AddBidiLink(a, c, 2, 10);
  g.AddBidiLink(c, b, 2, 10);
  KspCache cache(&g);
  Rng rng(515);
  std::vector<Aggregate> aggs{MakeAgg(a, b, 0), MakeAgg(a, b, 0),
                              MakeAgg(a, b, 0)};
  std::vector<std::vector<double>> history;
  for (int i = 0; i < 3; ++i) {
    TraceOptions topts;
    topts.minutes = 2;
    topts.mean_gbps = 2.5;
    topts.burst_amplitude = 0.3;
    Rng trng = rng.Fork(static_cast<uint64_t>(i + 1));
    history.push_back(SynthesizeTraceGbps(topts, &trng));
  }
  LdrControllerResult ctrl = RunLdrController(g, aggs, history, &cache);
  ASSERT_TRUE(ctrl.multiplex_ok);
  ReplayResult replay = ReplayTraffic(g, aggs, ctrl.outcome, history);
  EXPECT_LE(replay.worst_queue_ms, 10.0 + 1e-9);
}

// ...and a placement that crams correlated bursts onto one link exceeds it.
TEST(Replay, OverloadedPlacementExceedsBudget) {
  Graph g = OneLink(10);
  PathStore store(&g);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 6), MakeAgg(0, 1, 6)};
  std::vector<double> bursty(1200, 5.0);
  for (size_t i = 0; i < bursty.size(); i += 60) {
    for (size_t j = i; j < std::min(bursty.size(), i + 6); ++j) {
      bursty[j] = 9.0;
    }
  }
  std::vector<std::vector<double>> series{bursty, bursty};
  ReplayResult r = ReplayTraffic(g, aggs, DirectOutcome(&store, 2), series);
  EXPECT_GT(r.worst_queue_ms, 10.0);
}

}  // namespace
}  // namespace ldr
