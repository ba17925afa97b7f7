// Randomized correlated-failure campaigns (PR 10): the survivability
// evaluation's scenario factory and runner.
//
// A *campaign* is a Scenario sampled deterministically from
// (topology, seed): a scaled single-instance workload plus a timeline of
// correlated failures — SRLG conduit cuts, node outages, scheduled
// maintenance windows (with their drain epoch), plain cable flaps, and
// (optionally) optimizer fault windows. Every draw comes from one SplitMix64
// stream seeded by `seed` mixed with a hash of the topology name, so
// replaying a campaign from its (topology, seed) pair is bitwise-identical —
// the property bench_to_json's survivability_parity marker gates on.
//
// Sampling is *survivability-aware*: a candidate outage is accepted only if,
// at every epoch of its window, the union of all accepted masks keeps every
// workload pair reachable (otherwise availability would measure topology
// disconnection, not controller quality), and only if no concurrently-down
// event shares a cable with it (grouped restores are unconditional, so two
// overlapping owners of one cable would restore each other's masks early).
// Candidates failing either test are resampled a bounded number of times,
// then that event slot is skipped — small or fragile topologies simply get
// sparser campaigns.
#ifndef LDR_SIM_CAMPAIGN_H_
#define LDR_SIM_CAMPAIGN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario_engine.h"
#include "topology/topology.h"

namespace ldr {

struct CampaignOptions {
  int epochs = 18;  // of Scenario's default 60 s each
  // Workload MinMax target utilization; 0.5 leaves the headroom correlated
  // failures are meant to eat into.
  double utilization = 0.5;
  int fault_windows = 0;  // optimizer fault windows (soak arms these)
  // Workload thinning: keeps campaigns lean enough for corpus-wide sweeps.
  double workload_min_fraction = 1e-2;
};

// Deterministic function of (topology, seed): the full campaign Scenario —
// workload, traffic timeline, SRLG definitions, and event schedule.
Scenario GenerateCampaign(const Topology& topology, uint64_t seed,
                          const CampaignOptions& opts = {});

// One campaign run's survivability record — the per-(topology, seed, driver)
// row the bench aggregates.
struct CampaignRunResult {
  std::string scenario;
  std::string driver;
  uint64_t seed = 0;
  // ScenarioReport roll-ups (see their doc comments there).
  double availability = 1;
  double worst_congestion = 0;
  double worst_queue_ms = 0;
  int max_rung = 0;  // MaxFallbackRung as an int (0 = never degraded)
  std::array<size_t, 5> fallback_counts{};
  std::vector<int> reconverge_epochs;  // one per applied event; -1 = never
  size_t events_applied = 0;
  size_t epochs = 0;
  size_t dual_repair_epochs = 0;
  // ValidatePlacement verdict held at EVERY epoch — the acceptance
  // invariant: no campaign epoch may install an invalid placement.
  bool valid_every_epoch = true;
  // Order-sensitive FNV chain over the per-epoch allocation hashes: two runs
  // with equal placement_hash installed bitwise-identical placements in the
  // same order — the replay-parity fingerprint.
  uint64_t placement_hash = 0;
  // Closed-loop demand telemetry: deepest per-aggregate backoff any epoch
  // reached (1.0 = the adaptive model never engaged).
  double min_demand_scale = 1;
};

// Generates the campaign and runs it under one driver with the closed-loop
// demand model enabled. scheme_id "" drives the full LDR controller;
// otherwise a MakeScheme id ("B4", "SP", ...) re-routed each epoch.
CampaignRunResult RunCampaign(const Topology& topology, uint64_t seed,
                              const std::string& scheme_id = "",
                              const CampaignOptions& opts = {});

// A deterministic survivability slice of the zoo corpus: up to `count`
// small (8-30 node) topologies, preferring link-rich networks (where a
// correlated failure is survivable at all) and spanning structural families
// (at most two per family before falling back to fill).
std::vector<Topology> SurvivabilityCorpus(size_t count);

}  // namespace ldr

#endif  // LDR_SIM_CAMPAIGN_H_
