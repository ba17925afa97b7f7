// Tier-1 coverage for the survivability campaign stack (PR 10):
//  - GenerateCampaign determinism: a campaign is a pure function of
//    (topology, seed) — same inputs, bitwise-equal Scenario;
//  - RunCampaign replay parity: the acceptance invariant that replaying a
//    campaign from its seed installs bitwise-identical placements;
//  - every campaign epoch holds a ValidatePlacement-clean placement, for
//    LDR and the comparison drivers alike;
//  - the closed-loop CUBIC demand model: backoff under sustained overload,
//    the scale floor, and cubic probing back up;
//  - SurvivabilityCorpus shape (size, node range, family spread);
//  - a seeded campaign soak slice, widened under LDR_SOAK (ci.sh --soak).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "sim/scenario_engine.h"
#include "topology/topology.h"

namespace ldr {
namespace {

bool SoakMode() { return std::getenv("LDR_SOAK") != nullptr; }

// Field-by-field Scenario equality: Scenario carries no operator==, and the
// determinism contract is exactly "every field a replay can observe".
void ExpectScenariosIdentical(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.epoch_sec, b.epoch_sec);
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    EXPECT_EQ(a.aggregates[i].src, b.aggregates[i].src);
    EXPECT_EQ(a.aggregates[i].dst, b.aggregates[i].dst);
    EXPECT_EQ(a.aggregates[i].demand_gbps, b.aggregates[i].demand_gbps);
    EXPECT_EQ(a.aggregates[i].flow_count, b.aggregates[i].flow_count);
  }
  EXPECT_EQ(a.series_100ms, b.series_100ms);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].type, b.events[i].type) << "event " << i;
    EXPECT_EQ(a.events[i].epoch, b.events[i].epoch) << "event " << i;
    EXPECT_EQ(a.events[i].link, b.events[i].link) << "event " << i;
    EXPECT_EQ(a.events[i].srlg, b.events[i].srlg) << "event " << i;
    EXPECT_EQ(a.events[i].node, b.events[i].node) << "event " << i;
    EXPECT_EQ(a.events[i].duration_epochs, b.events[i].duration_epochs)
        << "event " << i;
  }
  ASSERT_EQ(a.srlgs.size(), b.srlgs.size());
  for (size_t i = 0; i < a.srlgs.size(); ++i) {
    EXPECT_EQ(a.srlgs[i].name, b.srlgs[i].name);
    EXPECT_EQ(a.srlgs[i].links, b.srlgs[i].links);
  }
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].failpoint, b.faults[i].failpoint);
    EXPECT_EQ(a.faults[i].from_epoch, b.faults[i].from_epoch);
    EXPECT_EQ(a.faults[i].until_epoch, b.faults[i].until_epoch);
  }
}

TEST(CampaignTest, GenerateIsDeterministic) {
  std::vector<Topology> corpus = SurvivabilityCorpus(2);
  ASSERT_GE(corpus.size(), 1u);
  for (const Topology& topo : corpus) {
    ExpectScenariosIdentical(GenerateCampaign(topo, 7),
                             GenerateCampaign(topo, 7));
  }
  // Different seeds draw different campaigns (workload seed alone already
  // differs; with it the traffic timeline).
  Scenario s1 = GenerateCampaign(corpus[0], 1);
  Scenario s2 = GenerateCampaign(corpus[0], 2);
  EXPECT_TRUE(s1.series_100ms != s2.series_100ms ||
              s1.events.size() != s2.events.size());
}

TEST(CampaignTest, ReplayFromSeedIsBitwiseIdentical) {
  std::vector<Topology> corpus = SurvivabilityCorpus(1);
  ASSERT_EQ(corpus.size(), 1u);
  CampaignRunResult a = RunCampaign(corpus[0], 3);
  CampaignRunResult b = RunCampaign(corpus[0], 3);
  EXPECT_EQ(a.placement_hash, b.placement_hash);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.worst_congestion, b.worst_congestion);
  EXPECT_EQ(a.worst_queue_ms, b.worst_queue_ms);
  EXPECT_EQ(a.reconverge_epochs, b.reconverge_epochs);
  EXPECT_EQ(a.events_applied, b.events_applied);
  EXPECT_EQ(a.min_demand_scale, b.min_demand_scale);
}

TEST(CampaignTest, EveryEpochInstallsValidPlacement) {
  for (const Topology& topo : SurvivabilityCorpus(2)) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      for (const char* id : {"", "B4", "SP"}) {
        CampaignRunResult r = RunCampaign(topo, seed, id);
        EXPECT_TRUE(r.valid_every_epoch)
            << r.driver << " " << topo.name << " seed " << seed;
        EXPECT_EQ(r.epochs, static_cast<size_t>(CampaignOptions().epochs));
        EXPECT_GE(r.availability, 0.0);
        EXPECT_LE(r.availability, 1.0);
        EXPECT_GE(r.min_demand_scale, AdaptiveDemandOptions::kFloor - 1e-12);
        EXPECT_LE(r.min_demand_scale, 1.0);
        // Every applied event got a reconvergence measurement slot.
        EXPECT_EQ(r.reconverge_epochs.size(), r.events_applied);
      }
    }
  }
}

TEST(CampaignTest, AdaptiveDemandBacksOffAndProbesBack) {
  // One 5 Gbps cable offered 8 Gbps: the closed loop must engage (realized
  // queueing >> threshold), multiplicatively back the aggregate off, respect
  // the scale floor, and probe back up along the cubic once the backoff
  // clears the queue.
  Topology t;
  t.name = "overload-pipe";
  NodeId a = t.AddPop("A", 0.0, 0.0);
  NodeId b = t.AddPop("B", 0.0, 1.0);
  t.AddCable(a, b, 5, 1.0);

  Scenario s;
  s.name = "overload";
  s.epochs = 12;
  Aggregate agg;
  agg.src = a;
  agg.dst = b;
  agg.demand_gbps = 8.0;
  agg.flow_count = 10;
  s.aggregates = {agg};
  s.series_100ms = ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);

  ScenarioEngineOptions opts;
  opts.adaptive.enabled = true;
  ScenarioEngine engine(t, s, opts);
  ScenarioReport report = engine.Run();
  ASSERT_EQ(report.epochs.size(), 12u);

  double min_scale = 1.0;
  size_t min_epoch = 0;
  size_t backoff_epochs = 0;
  for (size_t e = 0; e < report.epochs.size(); ++e) {
    const ScenarioEpochReport& er = report.epochs[e];
    if (er.backoff_aggregates > 0) ++backoff_epochs;
    EXPECT_GE(er.demand_scale_min, AdaptiveDemandOptions::kFloor - 1e-12)
        << "epoch " << e;
    EXPECT_LE(er.demand_scale_min, 1.0 + 1e-12) << "epoch " << e;
    if (er.demand_scale_min < min_scale) {
      min_scale = er.demand_scale_min;
      min_epoch = e;
    }
  }
  // Sustained 1.6x overload forces at least one multiplicative backoff...
  EXPECT_GT(backoff_epochs, 0u);
  EXPECT_LE(min_scale, AdaptiveDemandOptions::kBeta + 1e-9);
  // ...and once backed off below capacity (5/8 = 0.625 < beta fits), the
  // cubic probes the scale back up from the trough.
  double max_after_min = 0;
  for (size_t e = min_epoch + 1; e < report.epochs.size(); ++e) {
    max_after_min = std::max(max_after_min, report.epochs[e].demand_scale_min);
  }
  if (min_epoch + 1 < report.epochs.size()) {
    EXPECT_GT(max_after_min, min_scale);
  }
  // The engine's own roll-up agrees with the per-epoch minimum.
  double report_min = 1.0;
  for (const ScenarioEpochReport& er : report.epochs) {
    report_min = std::min(report_min, er.demand_scale_min);
  }
  EXPECT_EQ(report_min, min_scale);

  // Same scenario with the loop disabled: scales stay pinned at 1.
  ScenarioEngine fixed_engine(t, s, ScenarioEngineOptions{});
  ScenarioReport fixed = fixed_engine.Run();
  for (const ScenarioEpochReport& er : fixed.epochs) {
    EXPECT_EQ(er.demand_scale_min, 1.0);
    EXPECT_EQ(er.backoff_aggregates, 0u);
  }
}

TEST(CampaignTest, SurvivabilityCorpusShape) {
  std::vector<Topology> corpus = SurvivabilityCorpus(8);
  ASSERT_EQ(corpus.size(), 8u);
  std::set<std::string> names;
  for (const Topology& topo : corpus) {
    EXPECT_GE(topo.graph.NodeCount(), 8u) << topo.name;
    EXPECT_LE(topo.graph.NodeCount(), 30u) << topo.name;
    EXPECT_GT(topo.graph.LinkCount(), 0u) << topo.name;
    names.insert(topo.name);
  }
  EXPECT_EQ(names.size(), corpus.size());  // no duplicates
  // Deterministic: the slice is part of the bench's replay contract.
  std::vector<Topology> again = SurvivabilityCorpus(8);
  ASSERT_EQ(again.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(again[i].name, corpus[i].name);
  }
}

TEST(CampaignTest, SurvivabilityCampaignSoak) {
  // Seeded campaign slice; ci.sh --soak widens it (and the fault-window
  // count) under LDR_SOAK. Every campaign must hold a valid placement at
  // every epoch under every driver, and LDR replays bitwise.
  const size_t topologies = SoakMode() ? 6 : 2;
  const uint64_t seeds = SoakMode() ? 4 : 2;
  CampaignOptions opts;
  if (SoakMode()) opts.fault_windows = 1;  // arm optimizer fault windows too
  for (const Topology& topo : SurvivabilityCorpus(topologies)) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      CampaignRunResult ldr = RunCampaign(topo, seed, "", opts);
      EXPECT_TRUE(ldr.valid_every_epoch) << topo.name << " seed " << seed;
      CampaignRunResult replay = RunCampaign(topo, seed, "", opts);
      EXPECT_EQ(ldr.placement_hash, replay.placement_hash)
          << topo.name << " seed " << seed;
      for (const char* id : {"B4", "SP"}) {
        CampaignRunResult r = RunCampaign(topo, seed, id, opts);
        EXPECT_TRUE(r.valid_every_epoch)
            << r.driver << " " << topo.name << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace ldr
