#include "routing/ldr_controller.h"

#include <algorithm>

#include "routing/placement.h"
#include "traffic/trace.h"

namespace ldr {

std::vector<double> AdvancePredictors(
    std::vector<MeanRatePredictor>* predictors,
    const std::vector<std::vector<double>>& segment_100ms,
    const LdrControllerOptions&) {
  if (predictors->size() != segment_100ms.size()) {
    predictors->assign(segment_100ms.size(), MeanRatePredictor());
  }
  std::vector<double> demand(segment_100ms.size(), 0.0);
  for (size_t a = 0; a < segment_100ms.size(); ++a) {
    for (double m : PerMinuteMeansOrMean(segment_100ms[a],
                                         1.0 / kSeriesPeriodSec)) {
      (*predictors)[a].Update(m);
    }
    demand[a] = (*predictors)[a].prediction();
  }
  return demand;
}

LdrController::LdrController(const Graph* graph, KspCache* cache,
                             const LdrControllerOptions& opts)
    : g_(graph), cache_(cache), opts_(opts) {}

// Topology hooks: a topology delta marks the live LP dirty, and the
// next epoch repairs it in place (dead-path variables fixed to zero,
// capacity rows re-synced), with the solver re-entering via dual simplex off
// the still-dual-feasible basis. With no live LP there is nothing to repair
// (nor any path set: the two are always dropped together), and the next
// epoch builds cold.
void LdrController::MarkLpStale() {
  if (reuse_.lp != nullptr) reuse_.lp->MarkTopologyDirty();
}

void LdrController::OnCapacityChange() {
  // PathIds and their cached delays are untouched; only the LP's capacity
  // rows are stale — repaired in place.
  MarkLpStale();
}

// Mask deltas: one reconciliation per event. The LP side is marked stale
// exactly once, so the dual-simplex repair of the next epoch fixes every
// member link's path variables in one pass — one epoch delta, not a
// per-link cascade.
void LdrController::OnLinksDown(const std::vector<LinkId>& links) {
  if (links.empty()) return;
  ksp_evictions_ += cache_->InvalidateLinks(links);
  MarkLpStale();
}

void LdrController::OnLinksUp(const std::vector<LinkId>& links) {
  if (links.empty()) return;
  // A restored link can create shorter paths for any pair; every
  // generator's production order is suspect, so clear them all. The store
  // (stable PathIds, cached delays) survives.
  cache_->Clear();
  MarkLpStale();
}

void LdrController::DropWarmState() {
  reuse_.lp.reset();
  reuse_.paths.clear();
}

LdrControllerResult LdrController::RunEpoch(
    const std::vector<Aggregate>& aggregates,
    const std::vector<std::vector<double>>& segment_100ms) {
  const Graph& g = *g_;
  LdrControllerResult result;

  // (1) Predict each aggregate's next-minute mean (Algorithm 1). The
  // predictors persist: this epoch's update starts from last epoch's
  // prediction, so the 2%-per-minute decay spans reconfigurations exactly
  // as in the deployed loop. Hoisted out of the retry loop: the measured
  // segment never changes across rounds.
  result.demand_estimate_gbps =
      AdvancePredictors(&predictors_, segment_100ms);

  std::vector<Aggregate> working = aggregates;
  for (size_t a = 0; a < working.size(); ++a) {
    working[a].demand_gbps = result.demand_estimate_gbps[a];
  }

  // The LP and grown path sets persist across retry rounds AND across
  // epochs: re-optimizing after a headroom tweak — or for the next minute's
  // demands — re-enters the solver warm with demand deltas instead of
  // rebuilding the Fig. 12 problem from scratch. A topology delta between
  // epochs marks it dirty for an in-place repair (see the On* hooks).
  // Whether warm re-entry actually happened is read off the first round's
  // outcome (IterativeLpRoute makes — and reports — that decision).
  const PathStore& store = *cache_->store();
  std::vector<std::vector<WeightedSeries>> on_link(g.LinkCount());
  std::vector<size_t> on_link_count(g.LinkCount());
  std::vector<bool> failing(g.LinkCount());

  lp::SolveStats lp_stats;  // every round's LP work, not only the last's
  for (int round = 0; round < opts_.max_rounds; ++round) {
    result.rounds = round + 1;
    // (2) Latency-optimal placement for current Ba estimates.
    result.outcome =
        IterativeLpRoute(g, working, cache_, opts_.routing, &reuse_);
    result.solve_ms_total += result.outcome.solve_ms;
    lp_stats.Merge(result.outcome);
    if (round == 0) {
      result.warm_epoch = result.outcome.reused_warm;
      result.topology_repaired = result.outcome.topology_repaired;
    }
    result.fallback = std::max(result.fallback, result.outcome.fallback);
    if (result.outcome.fallback == FallbackRung::kShortestPath) {
      // The LP pipeline is down (rungs 1-2 already failed inside
      // IterativeLpRoute); appraisal and Ba scale-up cannot help — go
      // straight to the epoch decision guard below.
      break;
    }

    // (3) Appraise multiplexing per link using the *measured* last-minute
    // series (not the estimates). Count contributions first so the scatter
    // never reallocates mid-fill.
    std::fill(on_link_count.begin(), on_link_count.end(), size_t{0});
    for (size_t a = 0; a < working.size(); ++a) {
      for (const PathAllocation& pa : result.outcome.allocations[a]) {
        if (pa.fraction <= 1e-9) continue;
        for (LinkId l : store.Links(pa.path)) {
          ++on_link_count[static_cast<size_t>(l)];
        }
      }
    }
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      on_link[l].clear();
      on_link[l].reserve(on_link_count[l]);
    }
    for (size_t a = 0; a < working.size(); ++a) {
      for (const PathAllocation& pa : result.outcome.allocations[a]) {
        if (pa.fraction <= 1e-9) continue;
        for (LinkId l : store.Links(pa.path)) {
          on_link[static_cast<size_t>(l)].push_back(
              {&segment_100ms[a], pa.fraction});
        }
      }
    }
    std::fill(failing.begin(), failing.end(), false);
    size_t fail_count = 0;
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      if (on_link[l].empty()) continue;
      LinkCheckResult check = CheckLinkMultiplexing(
          on_link[l], g.link(static_cast<LinkId>(l)).capacity_gbps,
          opts_.multiplex);
      if (!check.pass) {
        failing[l] = true;
        ++fail_count;
      }
    }
    result.failing_links_last_round = fail_count;
    if (fail_count == 0) {
      result.multiplex_ok = true;
      break;
    }

    // (4) Scale up Ba for aggregates crossing failing links ("add headroom,
    // but only for those aggregates that don't multiplex well"). The store's
    // reverse index marks failing paths once; each allocation then tests by
    // id instead of rescanning its link sequence.
    std::vector<char> path_failing(store.size(), 0);
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      if (!failing[l]) continue;
      for (PathId p : store.PathsOnLink(static_cast<LinkId>(l))) {
        path_failing[static_cast<size_t>(p)] = 1;
      }
    }
    for (size_t a = 0; a < working.size(); ++a) {
      bool crosses = false;
      for (const PathAllocation& pa : result.outcome.allocations[a]) {
        if (pa.fraction <= 1e-9) continue;
        if (path_failing[static_cast<size_t>(pa.path)] != 0) {
          crosses = true;
          break;
        }
      }
      if (crosses) {
        working[a].demand_gbps *= opts_.scale_up;
        result.demand_estimate_gbps[a] = working[a].demand_gbps;
      }
    }
  }

  static_cast<lp::SolveStats&>(result.outcome) = lp_stats;

  // Per-epoch decision guard (PR 6): never install an invalid placement.
  // What reaches here is a clean LP outcome (possibly repaired in place by
  // ladder rungs 1-2 inside IterativeLpRoute) or the rung-4 shortest-path
  // emergency placement. Prefer rung 3 — last epoch's installed placement,
  // pruned of failed-link paths and renormalized — over rung 4 when it is
  // still fully operational.
  PlacementCheck check =
      ValidatePlacement(g, store, result.outcome.allocations);
  if (result.fallback == FallbackRung::kShortestPath || !check.valid) {
    bool replaced = false;
    if (has_last_placement_) {
      auto pruned = last_allocations_;
      if (PruneAndRenormalize(g, store, &pruned) &&
          ValidatePlacement(g, store, pruned).valid) {
        result.outcome.allocations = std::move(pruned);
        result.fallback = FallbackRung::kLastPlacement;
        replaced = true;
      }
    }
    if (!replaced && !check.valid) {
      // No serviceable last placement and the LP outcome itself is invalid
      // (e.g. a corrupted solve smuggled NaN fractions past "optimal"):
      // build the rung-4 emergency placement here.
      result.outcome.allocations = ShortestPathPlacement(working, cache_);
      result.fallback = FallbackRung::kShortestPath;
    }
    result.outcome.feasible = false;
  }
  if (result.fallback != FallbackRung::kNone) {
    // A degraded epoch's warm state is suspect (drifted basis, suppressed
    // path production, stale placement). Rebuilding cold next epoch is also
    // what lets the placement hash reconverge with the fault-free run as
    // soon as faults clear: cold solves are bitwise-reproducible.
    DropWarmState();
  } else if (result.topology_repaired) {
    // A repaired topology epoch served the fast reaction off the dual warm
    // restart; its path sets are history-dependent (pre-event growth plus
    // repair additions), so the placement is not the canonical one a cold
    // rebuild finds. Drop the warm state so the *next* epoch re-optimizes
    // cold off the critical path — from it on, placement hashes match the
    // cold reference (ScenarioEngineOptions::incremental = false) bitwise.
    DropWarmState();
  }
  result.outcome.fallback = result.fallback;
  last_allocations_ = result.outcome.allocations;
  has_last_placement_ = true;
  return result;
}

LdrControllerResult RunLdrController(
    const Graph& g, const std::vector<Aggregate>& aggregates,
    const std::vector<std::vector<double>>& history_100ms, KspCache* cache,
    const LdrControllerOptions& opts) {
  // One-epoch wrapper: a fresh controller fed the entire history as a
  // single segment reproduces the original one-shot behavior exactly (the
  // fresh predictors see every per-minute mean of the history, and the LP
  // context starts cold).
  LdrController controller(&g, cache, opts);
  return controller.RunEpoch(aggregates, history_100ms);
}

}  // namespace ldr
