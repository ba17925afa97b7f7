// Tier-1 coverage for the epoch-driven scenario stack:
//  - KspCache invalidation under topology change (the LinkDown eviction
//    contract, including the candidate-queue guard), and the regression
//    that stale paths are never handed to the LP;
//  - LdrController as a persistent epoch loop (warm re-entry, delta hooks);
//  - ScenarioEngine determinism (thread-count-independent, bitwise),
//    warm-vs-cold epoch parity, a failure/recovery integration run, and
//    commutativity of grouped events that land in the same epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "routing/ldr_controller.h"
#include "sim/scenario_engine.h"
#include "topology/topology.h"
#include "util/failpoint.h"

namespace ldr {
namespace {

// A-B direct (1 ms, tight) with a roomy A-C-B detour, plus an unrelated
// C-D spur. Link ids: A->B=0 B->A=1 A->C=2 C->A=3 C->B=4 B->C=5 C->D=6
// D->C=7.
Topology FailoverNet(double direct_cap = 10) {
  Topology t;
  t.name = "failover-net";
  NodeId a = t.AddPop("A", 10.0, 10.0);
  NodeId b = t.AddPop("B", 10.0, 20.0);
  NodeId c = t.AddPop("C", 20.0, 15.0);
  NodeId d = t.AddPop("D", 30.0, 15.0);
  t.AddCable(a, b, direct_cap, 1.0);
  t.AddCable(a, c, 100, 2.0);
  t.AddCable(c, b, 100, 2.0);
  t.AddCable(c, d, 100, 1.0);
  return t;
}

Aggregate MakeAgg(NodeId s, NodeId d, double demand) {
  Aggregate a;
  a.src = s;
  a.dst = d;
  a.demand_gbps = demand;
  a.flow_count = 10;
  return a;
}

Scenario FailureScenario(const Graph& g, int epochs = 10, int down_at = 3,
                         int up_at = 6) {
  Scenario s;
  s.name = "down-up";
  s.epochs = epochs;
  // Demands sized so everything is comfortable on the detour too.
  s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0),
                  MakeAgg(2, 3, 1.0)};
  s.series_100ms =
      ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  // Fail the A<->B cable (both directions), then restore it.
  s.AddLinkFlap(g, 0, down_at, up_at);
  return s;
}

// Engine options for the default warm engine (incremental) or the cold
// reference that drops the warm LP before every epoch.
ScenarioEngineOptions WithIncremental(bool incremental) {
  ScenarioEngineOptions opts;
  opts.incremental = incremental;
  return opts;
}

bool AnyAllocationCrosses(const RoutingOutcome& outcome, LinkId link) {
  for (const auto& allocation : outcome.allocations) {
    for (const PathAllocation& pa : allocation) {
      if (pa.fraction <= 1e-9) continue;
      if (outcome.store->ContainsLink(pa.path, link)) return true;
    }
  }
  return false;
}

TEST(KspInvalidation, LinkDownEvictsExactlyCrossingPairs) {
  Topology t = FailoverNet();
  Graph& g = t.graph;
  KspCache cache(&g);
  KspGenerator* gab = cache.Get(0, 1);
  ASSERT_NE(gab->GetId(0), kInvalidPathId);  // A->B direct
  KspGenerator* gcd = cache.Get(2, 3);
  ASSERT_NE(gcd->GetId(0), kInvalidPathId);  // C->D, untouched by A->B
  ASSERT_EQ(cache.size(), 2u);

  g.SetLinkDown(0, true);  // A->B fails
  size_t evicted = cache.InvalidateLinks({0});  // a one-member group
  EXPECT_EQ(evicted, 1u);  // exactly the (A,B) generator
  EXPECT_EQ(cache.size(), 1u);
  // The untouched pair keeps its warm generator object.
  EXPECT_EQ(cache.Get(2, 3), gcd);

  // A rebuilt (A,B) generator produces only mask-valid paths, and the
  // store's delay cache still serves them.
  KspGenerator* fresh = cache.Get(0, 1);
  for (size_t k = 0;; ++k) {
    PathId p = fresh->GetId(k);
    if (p == kInvalidPathId) break;
    EXPECT_FALSE(cache.store()->ContainsLink(p, 0));
  }
  EXPECT_DOUBLE_EQ(cache.store()->DelayMs(fresh->GetId(0)), 4.0);  // A-C-B
}

// A->B paths in delay order: A-B (1), A-C-B (4), A-C-D-B (4.5), A-E-B (6).
// Producing the third generates candidates from A-C-B at *two* spur
// positions in one round — A-E-B at spur A, A-C-D-B at spur C — and pops
// only A-C-D-B, so A-E-B genuinely remains in the candidate queue: the
// non-interned half of the generator's state.
Topology CandidateNet(LinkId* e_to_b) {
  Topology t;
  NodeId a = t.AddPop("A", 10, 10), b = t.AddPop("B", 10, 20),
         c = t.AddPop("C", 20, 15), d = t.AddPop("D", 20, 18),
         e = t.AddPop("E", 0, 15);
  t.AddCable(a, b, 10, 1.0);
  t.AddCable(a, c, 10, 2.0);
  t.AddCable(c, b, 10, 2.0);
  t.AddCable(c, d, 10, 1.0);
  t.AddCable(d, b, 10, 1.5);
  t.AddCable(a, e, 10, 3.0);
  LinkId eb = t.AddCable(e, b, 10, 3.0);
  *e_to_b = t.graph.link(eb).src == e ? eb : t.graph.ReverseLink(eb);
  return t;
}

TEST(KspInvalidation, CandidateQueueCrossingEvictsTheGenerator) {
  // Failing a link that only a *queued candidate* crosses must still evict
  // the generator: Yen records only the best spur per position, so a
  // discarded candidate's spur search would never re-run and the masked
  // path space could be under-produced. Eviction rebuilds it correctly.
  LinkId e_to_b = kInvalidLink;
  Topology t = CandidateNet(&e_to_b);
  Graph& g = t.graph;
  KspCache cache(&g);
  KspGenerator* gen = cache.Get(0, 1);
  ASSERT_NE(gen->GetId(2), kInvalidPathId);  // A-B, A-C-B, A-C-D-B produced
  ASSERT_FALSE(cache.store()->ContainsLink(gen->GetId(2), e_to_b));
  KspGenerator* unrelated = cache.Get(2, 3);  // C->D, no state on E-B
  ASSERT_NE(unrelated->GetId(0), kInvalidPathId);

  g.SetLinkDown(e_to_b, true);
  // No *produced* (A,B) path crosses e->b, but the queued A-E-B candidate
  // does: the candidate scan must evict the generator anyway.
  EXPECT_EQ(cache.InvalidateLinks({e_to_b}), 1u);
  EXPECT_EQ(cache.Get(2, 3), unrelated);  // survivor kept
  KspGenerator* fresh = cache.Get(0, 1);
  EXPECT_NE(fresh->GetId(2), kInvalidPathId);  // masked space: 3 paths...
  EXPECT_EQ(fresh->GetId(3), kInvalidPathId);  // ...and no fourth
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_FALSE(cache.store()->ContainsLink(fresh->GetId(k), e_to_b));
  }
}

TEST(KspInvalidation, PopTimeGuardCoversUninvalidatedMasks) {
  // A standalone generator whose graph is masked *without* cache
  // invalidation must still never produce a path crossing the down link
  // (it may under-produce — eviction is the complete answer; see ksp.h).
  LinkId e_to_b = kInvalidLink;
  Topology t = CandidateNet(&e_to_b);
  Graph& g = t.graph;
  PathStore store(&g);
  KspGenerator gen(&store, 0, 1);
  ASSERT_NE(gen.GetId(2), kInvalidPathId);  // A-E-B now queued
  g.SetLinkDown(e_to_b, true);
  // The queued A-E-B candidate is discarded at pop time, never produced.
  EXPECT_EQ(gen.GetId(3), kInvalidPathId);
}

TEST(Controller, StalePathsNeverReachTheLpAfterLinkDown) {
  for (bool drop : {false, true}) {
    SCOPED_TRACE(drop ? "warm state dropped at the event" : "repaired");
    Topology t = FailoverNet();
    Graph& g = t.graph;
    KspCache cache(&g);
    LdrController controller(&g, &cache);
    std::vector<Aggregate> aggs{MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
    std::vector<std::vector<double>> segment{
        std::vector<double>(600, 3.0), std::vector<double>(600, 2.0)};

    LdrControllerResult r1 = controller.RunEpoch(aggs, segment);
    EXPECT_FALSE(r1.warm_epoch);
    EXPECT_TRUE(r1.multiplex_ok);
    // Comfortable direct link: the placement uses it.
    EXPECT_TRUE(AnyAllocationCrosses(r1.outcome, 0));

    // Second epoch, no deltas: warm re-entry, same placement.
    LdrControllerResult r2 = controller.RunEpoch(aggs, segment);
    EXPECT_TRUE(r2.warm_epoch);

    // Fail A->B and B->A. The LP is repaired in place and the epoch
    // re-enters warm via the dual simplex; with the warm state dropped it
    // rebuilds cold. Either way it must never hand a path crossing the
    // failed links to the LP. Each direction is its own one-member event.
    for (LinkId l : {LinkId{0}, LinkId{1}}) {
      g.SetLinkDown(l, true);
      controller.OnLinksDown({l});
    }
    if (drop) controller.DropWarmState();
    EXPECT_GT(controller.ksp_evictions(), 0u);
    LdrControllerResult r3 = controller.RunEpoch(aggs, segment);
    EXPECT_EQ(r3.warm_epoch, !drop);
    EXPECT_EQ(r3.topology_repaired, !drop);
    EXPECT_TRUE(r3.multiplex_ok);
    EXPECT_FALSE(AnyAllocationCrosses(r3.outcome, 0));
    EXPECT_FALSE(AnyAllocationCrosses(r3.outcome, 1));
    // After a repaired epoch the controller canonicalizes with one cold
    // rebuild (the parity contract); after a cold event epoch the next
    // epoch re-enters warm. One epoch later both are warm.
    LdrControllerResult r4 = controller.RunEpoch(aggs, segment);
    EXPECT_EQ(r4.warm_epoch, drop);
    EXPECT_FALSE(r4.topology_repaired);
    LdrControllerResult r5 = controller.RunEpoch(aggs, segment);
    EXPECT_TRUE(r5.warm_epoch);
  }
}

// A LinkDown and the matching LinkUp are each repaired in place (dual
// simplex on the live LP), and both repaired epochs place cleanly.
TEST(Controller, RepairsLinkDownAndUpInPlace) {
  Topology t = FailoverNet();
  Graph& g = t.graph;
  KspCache cache(&g);
  LdrController controller(&g, &cache);
  std::vector<Aggregate> aggs{MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
  std::vector<std::vector<double>> segment{
      std::vector<double>(600, 3.0), std::vector<double>(600, 2.0)};
  controller.RunEpoch(aggs, segment);
  g.SetLinksDown({0, 1}, true);
  controller.OnLinksDown({0, 1});
  LdrControllerResult down = controller.RunEpoch(aggs, segment);
  controller.RunEpoch(aggs, segment);  // canonicalization rebuild
  g.SetLinksDown({0, 1}, false);
  controller.OnLinksUp({0, 1});
  LdrControllerResult up = controller.RunEpoch(aggs, segment);
  EXPECT_TRUE(down.topology_repaired);
  EXPECT_TRUE(up.topology_repaired);
  EXPECT_TRUE(down.multiplex_ok);
  EXPECT_TRUE(up.multiplex_ok);
}

void ExpectReportsIdentical(const ScenarioReport& x, const ScenarioReport& y) {
  ASSERT_EQ(x.epochs.size(), y.epochs.size());
  for (size_t e = 0; e < x.epochs.size(); ++e) {
    const ScenarioEpochReport& a = x.epochs[e];
    const ScenarioEpochReport& b = y.epochs[e];
    EXPECT_EQ(a.event_epoch, b.event_epoch) << "epoch " << e;
    EXPECT_EQ(a.warm, b.warm) << "epoch " << e;
    EXPECT_EQ(a.dual_repair, b.dual_repair) << "epoch " << e;
    EXPECT_EQ(a.rounds, b.rounds) << "epoch " << e;
    EXPECT_EQ(a.multiplex_ok, b.multiplex_ok) << "epoch " << e;
    EXPECT_EQ(a.allocations, b.allocations) << "epoch " << e;
    EXPECT_EQ(a.allocation_hash, b.allocation_hash) << "epoch " << e;
    // Bitwise: metrics are pure functions of the placement and segment.
    EXPECT_EQ(a.demand_total_gbps, b.demand_total_gbps) << "epoch " << e;
    EXPECT_EQ(a.congested_fraction, b.congested_fraction) << "epoch " << e;
    EXPECT_EQ(a.max_stretch, b.max_stretch) << "epoch " << e;
    EXPECT_EQ(a.total_stretch, b.total_stretch) << "epoch " << e;
    EXPECT_EQ(a.worst_queue_ms, b.worst_queue_ms) << "epoch " << e;
    EXPECT_EQ(a.route_churn, b.route_churn) << "epoch " << e;
  }
  ASSERT_EQ(x.events.size(), y.events.size());
  for (size_t i = 0; i < x.events.size(); ++i) {
    EXPECT_EQ(x.events[i].reconverge_epochs, y.events[i].reconverge_epochs);
    // Same sign (timing magnitudes differ run to run, -1 sentinels must not).
    EXPECT_EQ(x.events[i].reconverge_ms < 0, y.events[i].reconverge_ms < 0);
  }
  EXPECT_EQ(x.ksp_evictions, y.ksp_evictions);
}

TEST(ScenarioEngine, ReportsAreThreadCountInvariant) {
  // The engine is serial by design; LDR_THREADS must not leak into it.
  Topology t = FailoverNet();
  setenv("LDR_THREADS", "1", 1);
  ScenarioReport r1 = ScenarioEngine(t, FailureScenario(t.graph)).Run();
  setenv("LDR_THREADS", "4", 1);
  ScenarioReport r4 = ScenarioEngine(t, FailureScenario(t.graph)).Run();
  unsetenv("LDR_THREADS");
  ExpectReportsIdentical(r1, r4);
}

TEST(ScenarioEngine, DualRepairedEpochsReconvergeToColdHashes) {
  // fig21-style A/B: the default engine (warm re-entry, dual-simplex repair
  // across the LinkDown/LinkUp events) against the cold reference
  // (incremental=false), which rebuilds the LP from scratch every epoch.
  // Warmth may only change solve time: every epoch but the two repaired
  // ones — whose path sets are history-dependent — must place bitwise like
  // the cold run, including the canonicalization rebuild right after each
  // repair (PlacementParity).
  Topology t = FailoverNet();
  ScenarioReport rd =
      ScenarioEngine(t, FailureScenario(t.graph), WithIncremental(true)).Run();
  ScenarioReport rc =
      ScenarioEngine(t, FailureScenario(t.graph), WithIncremental(false))
          .Run();
  ASSERT_EQ(rd.epochs.size(), rc.epochs.size());
  for (size_t e = 0; e < rd.epochs.size(); ++e) {
    if (!rd.epochs[e].dual_repair) {
      EXPECT_EQ(rd.epochs[e].allocation_hash, rc.epochs[e].allocation_hash)
          << "epoch " << e;
    }
    EXPECT_TRUE(rd.epochs[e].multiplex_ok) << "epoch " << e;
    EXPECT_TRUE(rc.epochs[e].multiplex_ok) << "epoch " << e;
  }
  EXPECT_TRUE(PlacementParity(rd, rc));
  // The A/B actually ran what it claims: the default engine re-entered warm
  // and repaired both events in place, the cold run did neither.
  EXPECT_GT(rd.warm_epochs, 0u);
  EXPECT_EQ(rd.dual_repair_epochs, 2u);
  EXPECT_EQ(rc.warm_epochs, 0u);
  EXPECT_EQ(rc.dual_repair_epochs, 0u);
}

TEST(ScenarioEngine, FailureRecoveryTimeline) {
  Topology t = FailoverNet();
  Scenario s = FailureScenario(t.graph, /*epochs=*/10, /*down_at=*/3, /*up_at=*/6);
  for (bool inc : {true, false}) {
    SCOPED_TRACE(inc ? "incremental" : "cold reference");
    ScenarioEngine engine(t, s, WithIncremental(inc));
    ScenarioReport report = engine.Run();
    ASSERT_EQ(report.epochs.size(), 10u);

    // Epoch 0 cold. The event epochs (3, 6) are dual-repaired and the
    // canonicalization epochs after them (4, 7) rebuild cold. Everything
    // else re-enters warm. The cold reference rebuilds every epoch.
    for (const ScenarioEpochReport& er : report.epochs) {
      bool event = er.epoch == 3 || er.epoch == 6;
      bool expect_repair = inc && event;
      bool expect_warm = inc && er.epoch != 0 && !event && er.epoch != 4 &&
                         er.epoch != 7;
      EXPECT_EQ(er.warm, expect_warm) << "epoch " << er.epoch;
      EXPECT_EQ(er.dual_repair, expect_repair) << "epoch " << er.epoch;
      EXPECT_EQ(er.event_epoch, er.epoch == 3 || er.epoch == 6);
      // The detour has room: every epoch must keep a clean placement.
      EXPECT_TRUE(er.multiplex_ok) << "epoch " << er.epoch;
      EXPECT_EQ(er.congested_fraction, 0.0) << "epoch " << er.epoch;
    }

    // Reconvergence: every event recovered within the controller's round
    // budget worth of epochs (here: immediately).
    ASSERT_EQ(report.events.size(), 4u);
    for (const ScenarioEventReport& evr : report.events) {
      ASSERT_GE(evr.reconverge_epochs, 0);
      EXPECT_LE(evr.reconverge_epochs, LdrControllerOptions{}.max_rounds);
      // Reconverged events report the wall clock spent reacting (>= 0, not
      // the -1 never-reconverged sentinel).
      EXPECT_GE(evr.reconverge_ms, 0.0);
    }
    EXPECT_EQ(report.dual_repair_epochs, inc ? 2u : 0u);
    if (inc) {
      // The LinkDown repair re-enters the live LP through the dual-simplex
      // restart, and its epoch report carries that solve's telemetry.
      EXPECT_GE(report.epochs[3].lp_warm_restart, 1);
      EXPECT_GT(report.epochs[3].lp_dual_pivots, 0);
    }

    // Route churn: zero on event-free epochs, nonzero exactly when the
    // placement had to move (failure) and when it moved back (recovery).
    EXPECT_EQ(report.EventFreeChurnMax(), 0.0);
    EXPECT_GT(report.epochs[3].route_churn, 0.0);
    if (inc) {
      // The repaired LinkUp epoch keeps the (still valid) detour placement
      // — the in-place LP's path set cannot contain the restored direct
      // path; the canonicalization rebuild one epoch later moves traffic
      // back.
      EXPECT_GT(report.epochs[7].route_churn, 0.0);
    } else {
      EXPECT_GT(report.epochs[6].route_churn, 0.0);
    }

    // The failure evicted the (A,B)/(B,A) generators through the reverse
    // index.
    EXPECT_GT(report.ksp_evictions, 0u);

    // Mask restored at the end of the scenario.
    EXPECT_EQ(engine.graph().DownLinkCount(), 0u);
  }
}

TEST(ScenarioEngine, DemandSurgeStaysWarmAndRaisesDemand) {
  Topology t = FailoverNet();
  Scenario s;
  s.name = "surge";
  s.epochs = 6;
  s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  ScenarioEvent surge;
  surge.type = ScenarioEvent::Type::kDemandSurge;
  surge.epoch = 2;
  surge.duration_epochs = 2;
  surge.factor = 2.0;
  surge.aggregate = 0;
  s.events.push_back(surge);

  ScenarioReport report = ScenarioEngine(t, s).Run();
  ASSERT_EQ(report.epochs.size(), 6u);
  // A demand delta is not a topology delta: the surge epochs re-enter warm.
  for (int e = 1; e < 6; ++e) {
    EXPECT_TRUE(report.epochs[static_cast<size_t>(e)].warm) << "epoch " << e;
  }
  // Surge start and expiry are event epochs; demand follows the surge up
  // (2x immediately) and decays back down afterwards (Algorithm 1).
  EXPECT_TRUE(report.epochs[2].event_epoch);
  EXPECT_TRUE(report.epochs[4].event_epoch);
  EXPECT_FALSE(report.epochs[1].event_epoch);
  EXPECT_GT(report.epochs[2].demand_total_gbps,
            report.epochs[1].demand_total_gbps + 2.9);
  EXPECT_LT(report.epochs[5].demand_total_gbps,
            report.epochs[4].demand_total_gbps);
}

TEST(KspInvalidation, GroupedInvalidationCountsEachGeneratorOnce) {
  // InvalidateLinks must evict exactly the generators crossing ANY member
  // link — and count a generator crossing several members once, not once
  // per member.
  Topology t = FailoverNet();
  Graph& g = t.graph;
  KspCache cache(&g);
  KspGenerator* gab = cache.Get(0, 1);
  // Produce A-B (crosses link 0) AND A-C-B (crosses link 4): the (A,B)
  // generator crosses both members of the group below.
  ASSERT_NE(gab->GetId(1), kInvalidPathId);
  KspGenerator* gcd = cache.Get(2, 3);  // C->D: crosses neither
  ASSERT_NE(gcd->GetId(0), kInvalidPathId);
  ASSERT_EQ(cache.size(), 2u);

  g.SetLinksDown({0, 4}, true);
  EXPECT_EQ(cache.InvalidateLinks({0, 4}), 1u);  // (A,B) once, not twice
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(2, 3), gcd);  // survivor kept warm

  // The rebuilt generator produces only mask-valid paths.
  KspGenerator* fresh = cache.Get(0, 1);
  for (size_t k = 0;; ++k) {
    PathId p = fresh->GetId(k);
    if (p == kInvalidPathId) break;
    EXPECT_FALSE(cache.store()->ContainsLink(p, 0));
    EXPECT_FALSE(cache.store()->ContainsLink(p, 4));
  }
}

TEST(ScenarioEngine, SrlgOutageMasksAllMembersAtomically) {
  // An SRLG over the A-C and C-B cables takes the whole detour in one
  // event: during the outage only the direct A-B cable can carry A<->B
  // traffic, and the event must land as ONE batched delta (one dual-repair
  // epoch per event, not one per member link).
  Topology t = FailoverNet();
  Scenario s;
  s.name = "srlg-conduit";
  s.epochs = 10;
  s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  int srlg = s.AddSrlg("detour-conduit", {2, 4});  // A-C and C-B cables
  s.AddSrlgOutage(srlg, 3, 6);

  for (bool inc : {true, false}) {
    SCOPED_TRACE(inc ? "incremental" : "cold reference");
    ScenarioEngine engine(t, s, WithIncremental(inc));
    ScenarioReport report = engine.Run();
    ASSERT_EQ(report.epochs.size(), 10u);
    for (const ScenarioEpochReport& er : report.epochs) {
      EXPECT_EQ(er.event_epoch, er.epoch == 3 || er.epoch == 6);
      // One grouped delta: exactly the event epochs are dual-repaired.
      EXPECT_EQ(er.dual_repair, inc && (er.epoch == 3 || er.epoch == 6));
      EXPECT_TRUE(er.placement_valid) << "epoch " << er.epoch;
      // The direct cable has room for both aggregates.
      EXPECT_EQ(er.congested_fraction, 0.0) << "epoch " << er.epoch;
    }
    EXPECT_EQ(report.dual_repair_epochs, inc ? 2u : 0u);
    // Down + up, each applied once, each reconverged.
    ASSERT_EQ(report.events.size(), 2u);
    EXPECT_EQ(report.events[0].event.type, ScenarioEvent::Type::kSrlgDown);
    EXPECT_EQ(report.events[1].event.type, ScenarioEvent::Type::kSrlgUp);
    for (const ScenarioEventReport& evr : report.events) {
      EXPECT_GE(evr.reconverge_epochs, 0);
    }
    EXPECT_EQ(report.redundant_events, 0u);
    EXPECT_EQ(engine.graph().DownLinkCount(), 0u);
  }
}

TEST(ScenarioEngine, NodeOutageAppliesLiveSubsetOfIncidentLinks) {
  // Node C fails while one of its incident links (A->C) is already masked
  // by an earlier singleton event: the grouped apply must mask the LIVE
  // subset (partial redundancy — the overlap is reported, not grounds to
  // reject the event), and the restore must bring back everything,
  // including the link the singleton event downed.
  Topology t = FailoverNet();
  Scenario s;
  s.name = "node-outage";
  s.epochs = 10;
  s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  ScenarioEvent pre;
  pre.type = ScenarioEvent::Type::kLinkDown;
  pre.epoch = 2;
  pre.link = 2;  // A->C, incident to C
  s.events.push_back(pre);
  s.AddNodeOutage(2, 3, 6);  // node C: links 2,3,4,5,6,7

  ScenarioEngine engine(t, s);
  ScenarioReport report = engine.Run();
  ASSERT_EQ(report.epochs.size(), 10u);
  // The node-down group is 6 links, of which A->C is already masked: one
  // redundant member, five applied live.
  EXPECT_EQ(report.redundant_events, 1u);
  EXPECT_EQ(report.invalid_events, 0u);
  // All three events applied and reconverged (A<->B rides the direct cable
  // throughout, so recovery is immediate).
  ASSERT_EQ(report.events.size(), 3u);
  for (const ScenarioEventReport& evr : report.events) {
    EXPECT_GE(evr.reconverge_epochs, 0);
  }
  for (const ScenarioEpochReport& er : report.epochs) {
    EXPECT_TRUE(er.placement_valid) << "epoch " << er.epoch;
  }
  // kNodeUp restores every incident link — including the one the singleton
  // kLinkDown masked (it has no matching kLinkUp of its own).
  EXPECT_EQ(engine.graph().DownLinkCount(), 0u);
}

TEST(ScenarioEngine, MaintenanceDrainsOneEpochBeforeTheWindow) {
  // A maintenance window on the direct A-B cable, nominally [4, 6): the
  // mask must land at the drain epoch 3 — the controller's scheduled head
  // start — and lift at 6. A second window whose restore lands past the
  // timeline must leave the cable masked at scenario end.
  Topology t = FailoverNet();
  Scenario s;
  s.name = "maintenance";
  s.epochs = 10;
  s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  ScenarioEvent mw;
  mw.type = ScenarioEvent::Type::kMaintenance;
  mw.epoch = 4;
  mw.link = 0;  // the A-B cable, both directions via CableLinks
  mw.duration_epochs = 2;
  s.events.push_back(mw);

  ScenarioEngine engine(t, s);
  ScenarioReport report = engine.Run();
  ASSERT_EQ(report.epochs.size(), 10u);
  for (const ScenarioEpochReport& er : report.epochs) {
    // Drain at 3 (= 4 - 1), restore at 6 (= 4 + 2); the nominal window
    // start itself is not an event epoch — the traffic already moved.
    EXPECT_EQ(er.event_epoch, er.epoch == 3 || er.epoch == 6)
        << "epoch " << er.epoch;
    EXPECT_TRUE(er.placement_valid) << "epoch " << er.epoch;
    EXPECT_EQ(er.congested_fraction, 0.0) << "epoch " << er.epoch;
  }
  // The drain moved traffic off the cable (churn at 3), and reconvergence
  // is measured from the drain epoch.
  EXPECT_GT(report.epochs[3].route_churn, 0.0);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_GE(report.events[0].reconverge_epochs, 0);
  EXPECT_EQ(engine.graph().DownLinkCount(), 0u);

  // Restore past the timeline: masked at drain epoch 7, never restored.
  Scenario open_ended = s;
  open_ended.events[0].epoch = 8;
  open_ended.events[0].duration_epochs = 5;  // restore at 13 > last epoch
  ScenarioEngine engine2(t, open_ended);
  ScenarioReport r2 = engine2.Run();
  EXPECT_TRUE(r2.epochs[7].event_epoch);
  EXPECT_EQ(engine2.graph().DownLinkCount(), 2u);  // both directions masked
}

TEST(ScenarioEngine, SrlgPartialFailpointKeepsTheLivePrefix) {
  // The scenario.srlg_partial failpoint models a correlated event arriving
  // truncated: only the first half (rounded up) of the live subset is
  // applied, the rest is counted dropped. Down group {2,3,4,5} -> 2 masked,
  // 2 dropped; up group live {2,3} -> 1 restored, 1 dropped — so one link
  // stays masked at scenario end and the books must say exactly that.
  Topology t = FailoverNet();
  Scenario s;
  s.name = "srlg-partial";
  s.epochs = 10;
  s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0)};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
  int srlg = s.AddSrlg("detour-conduit", {2, 4});
  s.AddSrlgOutage(srlg, 3, 6);

  util::Failpoint::Activate("scenario.srlg_partial");
  ScenarioEngine engine(t, s);
  ScenarioReport report = engine.Run();
  util::Failpoint::Deactivate("scenario.srlg_partial");

  // Down: live {2,3,4,5}, keep {2,3}, drop 2. Up: live {2,3}, keep {2},
  // drop 1. The up group's 4,5 members were never masked: redundant 2.
  EXPECT_EQ(report.dropped_events, 3u);
  EXPECT_EQ(report.redundant_events, 2u);
  EXPECT_EQ(engine.graph().DownLinkCount(), 1u);
  ASSERT_EQ(report.events.size(), 2u);  // both applied (their live prefix)
  for (const ScenarioEpochReport& er : report.epochs) {
    EXPECT_TRUE(er.placement_valid) << "epoch " << er.epoch;
  }
}

TEST(ScenarioEngine, GroupedEventDualRepairReconvergesToColdArm) {
  // The DualRepairedEpochsReconvergeToColdHashes contract for a GROUPED
  // delta: an SRLG cut repaired in place via one dual warm restart must
  // place bitwise like the cold reference (incremental=false) in every
  // epoch but the repaired ones.
  Topology t = FailoverNet();
  auto make_scenario = [&]() {
    Scenario s;
    s.name = "srlg-ab";
    s.epochs = 10;
    s.aggregates = {MakeAgg(0, 1, 3.0), MakeAgg(1, 0, 2.0),
                    MakeAgg(2, 3, 1.0)};
    s.series_100ms =
        ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);
    int srlg = s.AddSrlg("detour-conduit", {2, 4});
    s.AddSrlgOutage(srlg, 3, 6);
    return s;
  };
  ScenarioReport rd =
      ScenarioEngine(t, make_scenario(), WithIncremental(true)).Run();
  ScenarioReport rc =
      ScenarioEngine(t, make_scenario(), WithIncremental(false)).Run();
  EXPECT_EQ(rd.dual_repair_epochs, 2u);
  EXPECT_EQ(rc.dual_repair_epochs, 0u);
  EXPECT_TRUE(PlacementParity(rd, rc));
}

// A ring A-B-C-D-E-F with chords A-D, B-E, C-F: every pair keeps a route
// through any one of the correlated outages below. Cable k's forward link
// id is 2k: A-B=0, B-C=2, C-D=4, D-E=6, E-F=8, F-A=10, A-D=12, B-E=14,
// C-F=16.
Topology CommuteNet() {
  Topology t;
  t.name = "commute-net";
  std::vector<NodeId> n;
  const double lat[] = {10, 10, 20, 30, 30, 20};
  const double lon[] = {10, 20, 25, 20, 10, 5};
  for (int i = 0; i < 6; ++i) {
    n.push_back(t.AddPop(std::string(1, static_cast<char>('A' + i)), lat[i],
                         lon[i]));
  }
  for (int i = 0; i < 6; ++i) {
    t.AddCable(n[static_cast<size_t>(i)], n[static_cast<size_t>((i + 1) % 6)],
               40, 1.0 + 0.25 * i);
  }
  for (int i = 0; i < 3; ++i) {
    t.AddCable(n[static_cast<size_t>(i)], n[static_cast<size_t>(i + 3)], 40,
               2.5);
  }
  return t;
}

// Grouped events commute (after Bansal, Koskinen and Tripp's commutativity
// conditions): correlated down events due in the same epoch — an SRLG cut,
// a node failure and a maintenance drain whose groups overlap pairwise —
// applied in every order give the same link masks, the same redundant and
// dropped counts, and bitwise-identical placements every epoch; so do
// their restores, which all land in one later epoch. Every permutation of
// the event list is run, under the LDR controller and a scheme driver.
// Fault injection is off: a dropped notification picks "the n-th event",
// which is order-dependent by construction.
TEST(ScenarioEngine, SameEpochGroupedEventsCommute) {
  Topology t = CommuteNet();
  Scenario base;
  base.name = "commute";
  base.epochs = 9;
  // No aggregate starts or ends at C, the node that fails.
  base.aggregates = {MakeAgg(0, 3, 12.0), MakeAgg(3, 0, 9.0),
                     MakeAgg(1, 3, 15.0), MakeAgg(3, 5, 6.0),
                     MakeAgg(5, 1, 9.0), MakeAgg(4, 0, 6.0)};
  base.series_100ms =
      ConstantScenarioTraffic(base.aggregates, base.epochs, base.epoch_sec);
  // Down at epoch 3, up at epoch 6, for all three groups:
  //   SRLG {A-B, B-C}        links 0,1,2,3
  //   node C                 links 2,3,4,5,16,17  (shares B-C with the SRLG)
  //   maintenance on C-D     links 4,5            (shares C-D with node C)
  int srlg = base.AddSrlg("ab-bc-conduit", {0, 2});
  base.AddSrlgOutage(srlg, 3, 6);
  base.AddNodeOutage(2, 3, 6);
  ScenarioEvent mw;
  mw.type = ScenarioEvent::Type::kMaintenance;
  mw.epoch = 4;  // drains at 3, restores at 4 + 2 = 6
  mw.link = 4;
  mw.duration_epochs = 2;
  base.events.push_back(mw);

  struct Run {
    std::vector<char> mask_after_down;  // per link, after epoch 3
    std::vector<char> mask_at_end;
    size_t redundant = 0;
    size_t dropped = 0;
    std::vector<uint64_t> hashes;
  };
  auto run = [&](const std::vector<size_t>& order, const char* scheme) {
    Scenario s = base;
    s.events.clear();
    for (size_t i : order) s.events.push_back(base.events[i]);
    ScenarioEngineOptions opts;
    opts.scheme_id = scheme;
    Run out;
    Scenario head = s;
    head.epochs = 4;  // stop right after the down epoch
    ScenarioEngine head_engine(t, head, opts);
    head_engine.Run();
    ScenarioEngine engine(t, s, opts);
    ScenarioReport report = engine.Run();
    for (size_t l = 0; l < t.graph.LinkCount(); ++l) {
      LinkId id = static_cast<LinkId>(l);
      out.mask_after_down.push_back(head_engine.graph().IsLinkDown(id));
      out.mask_at_end.push_back(engine.graph().IsLinkDown(id));
    }
    out.redundant = report.redundant_events;
    out.dropped = report.dropped_events;
    for (const ScenarioEpochReport& er : report.epochs) {
      EXPECT_TRUE(er.placement_valid) << "epoch " << er.epoch;
      out.hashes.push_back(er.allocation_hash);
    }
    return out;
  };

  for (const char* scheme : {"", "SP"}) {
    std::vector<size_t> order(base.events.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const Run reference = run(order, scheme);
    // The fixture exercises what it claims: the down epoch masks the three
    // groups' union (8 of 12 members), the overlaps are reported redundant
    // (B-C and C-D, both directions, on the way down and up), and the
    // restores bring everything back.
    EXPECT_EQ(std::count(reference.mask_after_down.begin(),
                         reference.mask_after_down.end(), 1),
              8);
    EXPECT_EQ(std::count(reference.mask_at_end.begin(),
                         reference.mask_at_end.end(), 1),
              0);
    EXPECT_EQ(reference.redundant, 8u);
    size_t permutations = 0;
    while (std::next_permutation(order.begin(), order.end())) {
      ++permutations;
      Run r = run(order, scheme);
      EXPECT_EQ(r.mask_after_down, reference.mask_after_down) << scheme;
      EXPECT_EQ(r.mask_at_end, reference.mask_at_end) << scheme;
      EXPECT_EQ(r.redundant, reference.redundant) << scheme;
      EXPECT_EQ(r.dropped, reference.dropped) << scheme;
      EXPECT_EQ(r.hashes, reference.hashes) << scheme;
    }
    EXPECT_EQ(permutations, 119u);  // 5! orders of the five events
  }
}

TEST(ScenarioEngine, SchemeDriversSurviveFailures) {
  // B4 and SP re-route from scratch each epoch through the same masked
  // graph and invalidated cache; during the outage nothing may cross the
  // failed links.
  Topology t = FailoverNet();
  for (const char* id : {"SP", "B4"}) {
    ScenarioEngineOptions opts;
    opts.scheme_id = id;
    ScenarioReport report =
        ScenarioEngine(t, FailureScenario(t.graph), opts).Run();
    ASSERT_EQ(report.epochs.size(), 10u);
    EXPECT_EQ(report.driver, id);
    for (const ScenarioEpochReport& er : report.epochs) {
      EXPECT_FALSE(er.warm);  // schemes have no warm LP
      EXPECT_EQ(er.congested_fraction, 0.0) << id << " epoch " << er.epoch;
    }
    EXPECT_EQ(report.EventFreeChurnMax(), 0.0) << id;
    EXPECT_GT(report.epochs[3].route_churn, 0.0) << id;
  }
}

}  // namespace
}  // namespace ldr
