#include "routing/lp_routing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "lp/lp.h"
#include "routing/placement.h"

namespace ldr {

namespace {

// Fig. 12's weights: M1, the RTT-aware tie-break, is small so it only
// breaks ties between placements of equal total delay; M2 makes congestion
// avoidance dominate every delay term.
constexpr double kM1 = 1e-3;
constexpr double kM2 = 1e6;
// Fig. 13 loop constants: the cap on each aggregate's grown path list; the
// MinMax stopping rule (keep growing until omax fails to improve by
// kImproveEps for kPatience consecutive rounds); and the overload tolerance
// deciding "the traffic fits".
constexpr size_t kMaxPathsPerAggregate = 24;
constexpr double kImproveEps = 1e-6;
constexpr int kPatience = 2;
constexpr double kFitEps = 1e-4;

double NowMs() {
  using namespace std::chrono;
  return duration_cast<duration<double, std::milli>>(
             steady_clock::now().time_since_epoch())
      .count();
}

// §8 class weighting: class c uses class_weights[c] (the last entry
// saturates out-of-range classes); empty means all classes equal. The LP
// builder and the best-solution tracker must both use this one definition.
double ClassWeight(const std::vector<double>& class_weights,
                   int traffic_class) {
  if (class_weights.empty()) return 1.0;
  size_t c = static_cast<size_t>(std::max(0, traffic_class));
  return class_weights[std::min(c, class_weights.size() - 1)];
}

}  // namespace

double AggregateDelayMs(const PathStore& store,
                        const std::vector<PathAllocation>& allocation) {
  double d = 0;
  for (const PathAllocation& pa : allocation) {
    d += pa.fraction * store.DelayMs(pa.path);
  }
  return d;
}

IncrementalRoutingLp::IncrementalRoutingLp(
    const PathStore& store, const std::vector<Aggregate>& aggregates,
    const RoutingLpOptions& opts)
    : store_(&store),
      g_(&store.graph()),
      opts_(opts),
      aggs_(aggregates),
      solver_(opts.solve) {
  cap_scale_ = 1.0 - opts_.headroom;
  size_t num_links = g_->LinkCount();
  npaths_.assign(aggs_.size(), 0);
  xvar_.resize(aggs_.size());
  eq_row_.assign(aggs_.size(), -1);
  paths_.resize(aggs_.size());
  fixed_load_.assign(num_links, 0.0);
  link_row_.assign(num_links, -1);
  olvar_.assign(num_links, -1);
  applied_cap_.assign(num_links, 0.0);
  link_vars_.resize(num_links);
}

double IncrementalRoutingLp::Weight(size_t a) const {
  return 100.0 * ClassWeight(opts_.class_weights, aggs_[a].traffic_class) *
         aggs_[a].flow_count / weight_denom_;
}

// Creates capacity rows (and LDR-mode overload variables) for links that
// became used — carrying fixed load or crossed by a candidate path of a
// variable aggregate — since the last call.
void IncrementalRoutingLp::EnsureLinkRows() {
  for (size_t l = 0; l < link_row_.size(); ++l) {
    if (link_row_[l] >= 0) continue;
    if (fixed_load_[l] <= 0 && link_vars_[l].empty()) continue;
    double cap = g_->link(static_cast<LinkId>(l)).capacity_gbps * cap_scale_;
    if (cap <= 0) cap = 1e-9;
    applied_cap_[l] = cap;
    std::vector<std::pair<int, double>> terms;
    terms.reserve(link_vars_[l].size() + 1);
    for (const auto& [var, a] : link_vars_[l]) {
      terms.emplace_back(var, aggs_[a].demand_gbps);
    }
    if (opts_.minmax) {
      terms.emplace_back(omax_var_, -cap);
      link_row_[l] = solver_.AddRow(lp::RowType::kLe, -fixed_load_[l],
                                    std::move(terms));
    } else {
      olvar_[l] = solver_.AddVariable(1, lp::kInfinity, 1.0);
      terms.emplace_back(olvar_[l], -cap);
      link_row_[l] = solver_.AddRow(lp::RowType::kLe, -fixed_load_[l],
                                    std::move(terms));
      solver_.AddRow(lp::RowType::kLe, 0, {{olvar_[l], 1}, {omax_var_, -1}});
    }
  }
}

// In-place topology repair (MarkTopologyDirty): re-syncs the live LP with
// the graph's current link mask and capacities instead of discarding it.
// LP columns of paths crossing a masked link are fixed to zero (and released
// back to [0, 1] when the link returns) — basis-preserving bound edits the
// solver repairs with dual pivots on the next Solve(). Capacity-row
// coefficients are shifted by the delta against the capacity each row was
// built with (CapacityScale events; SetLinkDown leaves capacity untouched).
void IncrementalRoutingLp::RepairTopology() {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (npaths_[a] < 2) continue;
    for (size_t pi = 0; pi < paths_[a].size(); ++pi) {
      bool dead = false;
      for (LinkId l : store_->Links(paths_[a][pi])) {
        if (g_->IsLinkDown(l)) {
          dead = true;
          break;
        }
      }
      if (dead) {
        solver_.FixVariable(xvar_[a][pi], 0.0);
      } else {
        solver_.SetBounds(xvar_[a][pi], 0.0, 1.0);
      }
    }
  }
  for (size_t l = 0; l < link_row_.size(); ++l) {
    if (link_row_[l] < 0) continue;
    double cap = g_->link(static_cast<LinkId>(l)).capacity_gbps * cap_scale_;
    if (cap <= 0) cap = 1e-9;
    if (cap == applied_cap_[l]) continue;
    int capvar = opts_.minmax ? omax_var_ : olvar_[l];
    solver_.AddToRow(link_row_[l], capvar, -(cap - applied_cap_[l]));
    applied_cap_[l] = cap;
  }
  topology_dirty_ = false;
}

RoutingLpResult IncrementalRoutingLp::Solve(
    const std::vector<std::vector<PathId>>& paths) {
  RoutingLpResult result;
  size_t num_links = g_->LinkCount();

  if (!init_) {
    weight_denom_ = 0;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (paths[a].empty()) continue;
      weight_denom_ += aggs_[a].flow_count * store_->DelayMs(paths[a][0]);
    }
    if (weight_denom_ <= 0) weight_denom_ = 1;
    omax_var_ = opts_.minmax
                    ? solver_.AddVariable(0, lp::kInfinity, kM2)  // U
                    : solver_.AddVariable(1, lp::kInfinity, kM2);  // Omax
    init_ = true;
  }

  // Sync the append-only path growth into the solver.
  for (size_t a = 0; a < aggs_.size(); ++a) {
    size_t prev = npaths_[a];
    size_t cnt = paths[a].size();
    if (cnt == prev) continue;
    if (prev == 0 && cnt == 1) {
      // Fixed placement: load folds into the link constants.
      for (LinkId l : store_->Links(paths[a][0])) {
        size_t li = static_cast<size_t>(l);
        fixed_load_[li] += aggs_[a].demand_gbps;
        if (link_row_[li] >= 0) solver_.SetRhs(link_row_[li], -fixed_load_[li]);
      }
    } else {
      if (prev == 1) {
        // The aggregate joins the LP: un-fold its fixed load.
        for (LinkId l : store_->Links(paths_[a][0])) {
          size_t li = static_cast<size_t>(l);
          fixed_load_[li] -= aggs_[a].demand_gbps;
          if (link_row_[li] >= 0) {
            solver_.SetRhs(link_row_[li], -fixed_load_[li]);
          }
        }
      }
      double s_a = store_->DelayMs(paths[a][0]);
      if (s_a <= 0) s_a = 1e-3;
      size_t first_new = prev >= 2 ? prev : 0;
      for (size_t pi = first_new; pi < cnt; ++pi) {
        double dp = store_->DelayMs(paths[a][pi]);
        double coeff = Weight(a) * dp * (1.0 + kM1 / s_a);
        std::vector<std::pair<int, double>> col_coeffs;
        for (LinkId l : store_->Links(paths[a][pi])) {
          size_t li = static_cast<size_t>(l);
          if (link_row_[li] >= 0) {
            col_coeffs.emplace_back(link_row_[li], aggs_[a].demand_gbps);
          }
        }
        if (eq_row_[a] >= 0) col_coeffs.emplace_back(eq_row_[a], 1.0);
        int v = solver_.AddColumn(0, 1, coeff, col_coeffs);
        xvar_[a].push_back(v);
        for (LinkId l : store_->Links(paths[a][pi])) {
          link_vars_[static_cast<size_t>(l)].emplace_back(v, a);
        }
      }
      if (eq_row_[a] < 0) {
        std::vector<std::pair<int, double>> row;
        row.reserve(xvar_[a].size());
        for (int v : xvar_[a]) row.emplace_back(v, 1.0);
        eq_row_[a] = solver_.AddRow(lp::RowType::kEq, 1.0, std::move(row));
      }
    }
    paths_[a] = paths[a];
    npaths_[a] = cnt;
  }
  EnsureLinkRows();
  if (topology_dirty_) RepairTopology();

  lp::Solution sol = solver_.Solve();
  result.status = sol.status;
  result.columns_priced = sol.columns_priced;
  result.iterations = sol.iterations;
  result.pivots = sol.pivots;
  result.ftran_nnz = sol.ftran_nnz;
  result.basis_bytes = sol.basis_bytes;
  result.lu_nnz = sol.lu_nnz;
  result.eta_count = sol.eta_count;
  result.fill_ratio = sol.fill_ratio;
  result.refactorizations = sol.refactorizations;
  result.pivot_recoveries = sol.pivot_recoveries;
  result.dual_pivots = sol.dual_pivots;
  result.bound_flips = sol.bound_flips;
  result.warm_restart = sol.warm_restart;
  if (!sol.ok()) {
    // kIterLimit/kDeadline carry no usable values — never extract fractions
    // from them; callers walk the fallback ladder on !ok().
    return result;
  }

  // Extract fractions.
  result.fractions.resize(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    result.fractions[a].assign(paths[a].size(), 0.0);
    if (paths[a].empty()) continue;
    if (paths[a].size() == 1) {
      result.fractions[a][0] = 1.0;
      continue;
    }
    for (size_t pi = 0; pi < paths[a].size(); ++pi) {
      result.fractions[a][pi] =
          std::clamp(sol.values[static_cast<size_t>(xvar_[a][pi])], 0.0, 1.0);
    }
  }

  // Recompute per-link levels from actual loads (more robust than reading
  // the LP's overload variables).
  std::vector<double> load = fixed_load_;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (paths[a].size() < 2) continue;
    for (size_t pi = 0; pi < paths[a].size(); ++pi) {
      double f = result.fractions[a][pi];
      if (f <= 1e-12) continue;
      for (LinkId l : store_->Links(paths[a][pi])) {
        load[static_cast<size_t>(l)] += f * aggs_[a].demand_gbps;
      }
    }
  }
  result.link_level.assign(num_links, 0.0);
  result.omax = opts_.minmax ? 0.0 : 1.0;
  for (size_t l = 0; l < num_links; ++l) {
    double cap = g_->link(static_cast<LinkId>(l)).capacity_gbps * cap_scale_;
    if (cap <= 0) continue;
    double level = load[l] / cap;
    result.link_level[l] = level;
    result.omax = std::max(result.omax, level);
  }
  return result;
}

void IncrementalRoutingLp::UpdateDemands(
    const std::vector<Aggregate>& aggregates) {
  for (size_t a = 0; a < aggregates.size(); ++a) {
    double delta = aggregates[a].demand_gbps - aggs_[a].demand_gbps;
    if (delta == 0) continue;
    if (npaths_[a] == 1) {
      for (LinkId l : store_->Links(paths_[a][0])) {
        size_t li = static_cast<size_t>(l);
        fixed_load_[li] += delta;
        if (link_row_[li] >= 0) solver_.SetRhs(link_row_[li], -fixed_load_[li]);
      }
    } else if (npaths_[a] >= 2) {
      for (size_t pi = 0; pi < paths_[a].size(); ++pi) {
        for (LinkId l : store_->Links(paths_[a][pi])) {
          size_t li = static_cast<size_t>(l);
          if (link_row_[li] >= 0) {
            solver_.AddToRow(link_row_[li], xvar_[a][pi], delta);
          }
        }
      }
    }
    aggs_[a].demand_gbps = aggregates[a].demand_gbps;
  }
}

namespace {

// Appends the next-shortest path for every aggregate that crosses a link in
// `hot`. Returns how many aggregates grew.
size_t GrowPathSets(const PathStore& store,
                    const std::vector<Aggregate>& aggregates,
                    const std::vector<std::vector<double>>& fractions,
                    const std::vector<bool>& hot, KspCache* cache,
                    size_t max_paths,
                    std::vector<std::vector<PathId>>* paths) {
  // Flip "which paths cross a hot link" around through the store's reverse
  // index: mark once per hot link, then test each aggregate's used paths by
  // id instead of rescanning their link sequences.
  std::vector<char> path_hot(store.size(), 0);
  for (size_t l = 0; l < hot.size(); ++l) {
    if (!hot[l]) continue;
    for (PathId p : store.PathsOnLink(static_cast<LinkId>(l))) {
      path_hot[static_cast<size_t>(p)] = 1;
    }
  }

  size_t grown = 0;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    auto& plist = (*paths)[a];
    if (plist.empty() || plist.size() >= max_paths) continue;
    bool crosses = false;
    for (size_t pi = 0; pi < plist.size() && !crosses; ++pi) {
      // A single-path aggregate always "uses" its path; otherwise require a
      // meaningful fraction.
      double f = plist.size() == 1 ? 1.0 : fractions[a][pi];
      if (f <= 1e-9) continue;
      crosses = path_hot[static_cast<size_t>(plist[pi])] != 0;
    }
    if (!crosses) continue;
    KspGenerator* gen = cache->Get(aggregates[a].src, aggregates[a].dst);
    PathId next = gen->GetId(plist.size());
    if (next == kInvalidPathId) continue;
    plist.push_back(next);
    ++grown;
  }
  return grown;
}

}  // namespace

RoutingOutcome IterativeLpRoute(const Graph& g,
                                const std::vector<Aggregate>& aggregates,
                                KspCache* cache, const IterativeOptions& opts,
                                LpReuseContext* reuse) {
  double t0 = NowMs();
  const PathStore& store = *cache->store();
  RoutingOutcome outcome;
  outcome.store = &store;
  outcome.allocations.resize(aggregates.size());

  std::vector<std::vector<PathId>> paths;
  // The LP the rounds solve; the reuse slot owns it when the caller has one.
  std::unique_ptr<IncrementalRoutingLp> local_lp;
  IncrementalRoutingLp* ilp = nullptr;
  auto install = [&](std::unique_ptr<IncrementalRoutingLp> lp) {
    ilp = lp.get();
    (reuse != nullptr ? reuse->lp : local_lp) = std::move(lp);
  };
  auto build = [&] {
    return std::make_unique<IncrementalRoutingLp>(store, aggregates, opts.lp);
  };
  bool warm_entry = reuse != nullptr && reuse->lp != nullptr &&
                    reuse->paths.size() == aggregates.size();
  if (warm_entry && reuse->lp->topology_dirty()) {
    // Topology-event re-entry: the repair fixes every dead-path variable to
    // zero, so an aggregate whose whole candidate set crosses masked links
    // would leave its equality row unsatisfiable. Append one live path from
    // the (already invalidated, mask-aware) KSP generator before the solve;
    // an aggregate with no live path at all is unroutable warm — fall back
    // to the cold rebuild for this epoch.
    auto path_dead = [&](PathId p) {
      for (LinkId l : store.Links(p)) {
        if (g.IsLinkDown(l)) return true;
      }
      return false;
    };
    for (size_t a = 0; a < aggregates.size() && warm_entry; ++a) {
      auto& plist = reuse->paths[a];
      if (plist.empty()) continue;
      bool all_dead = true;
      for (PathId p : plist) {
        if (!path_dead(p)) {
          all_dead = false;
          break;
        }
      }
      if (!all_dead) continue;
      KspGenerator* gen = cache->Get(aggregates[a].src, aggregates[a].dst);
      PathId next = gen->GetId(0);
      if (next == kInvalidPathId) {
        warm_entry = false;
        break;
      }
      plist.push_back(next);
    }
    if (!warm_entry) {
      reuse->lp.reset();
      reuse->paths.clear();
    }
  }
  if (warm_entry) {
    // Warm re-entry (controller headroom round or repaired topology event):
    // keep the grown path sets and the live LP, pushing only the deltas.
    outcome.topology_repaired = reuse->lp->topology_dirty();
    paths = reuse->paths;
    reuse->lp->UpdateDemands(aggregates);
    ilp = reuse->lp.get();
    outcome.reused_warm = true;
  } else {
    paths.resize(aggregates.size());
    for (size_t a = 0; a < aggregates.size(); ++a) {
      KspGenerator* gen = cache->Get(aggregates[a].src, aggregates[a].dst);
      for (size_t k = 0; k < std::max<size_t>(1, opts.initial_paths); ++k) {
        PathId p = gen->GetId(k);
        if (p == kInvalidPathId) break;
        paths[a].push_back(p);
      }
    }
    install(build());
  }

  // Weighted total delay of a solution — used to keep the best feasible
  // placement across polish rounds.
  auto weighted_delay = [&](const RoutingLpResult& r,
                            const std::vector<std::vector<PathId>>& ps) {
    double acc = 0;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      double cw =
          ClassWeight(opts.lp.class_weights, aggregates[a].traffic_class);
      for (size_t pi = 0; pi < ps[a].size(); ++pi) {
        acc += cw * aggregates[a].flow_count * r.fractions[a][pi] *
               store.DelayMs(ps[a][pi]);
      }
    }
    return acc;
  };

  // Telemetry must reflect every solve that ran, including failed attempts
  // and the ladder retries below — the rung that finally produced the
  // placement contributes its pivots/ftran_nnz like any other round.
  auto accumulate = [&outcome](const RoutingLpResult& r) {
    outcome.lp_columns_priced += r.columns_priced;
    outcome.lp_iterations += r.iterations;
    outcome.lp_pivots += r.pivots;
    outcome.lp_ftran_nnz += r.ftran_nnz;
    outcome.lp_basis_bytes = std::max(outcome.lp_basis_bytes, r.basis_bytes);
    outcome.lp_lu_nnz = std::max(outcome.lp_lu_nnz, r.lu_nnz);
    outcome.lp_eta_count = std::max(outcome.lp_eta_count, r.eta_count);
    outcome.lp_fill_ratio = std::max(outcome.lp_fill_ratio, r.fill_ratio);
    outcome.lp_refactorizations += r.refactorizations;
    outcome.lp_pivot_recoveries += r.pivot_recoveries;
    outcome.lp_dual_pivots += r.dual_pivots;
    outcome.lp_bound_flips += r.bound_flips;
    if (r.warm_restart) ++outcome.lp_warm_restart;
  };

  RoutingLpResult res;
  RoutingLpResult best_res;
  std::vector<std::vector<PathId>> best_paths;
  double best_delay = lp::kInfinity;
  double best_minmax_omax = lp::kInfinity;
  int patience_left = kPatience;
  // After the first feasible LDR solution, a couple of extra rounds grow
  // path sets across *saturated* links too: the Fig. 13 stop-at-feasible
  // rule can miss placements that move one aggregate slightly to free a
  // full (but not overloaded) shortest path for another.
  int polish_left = 2;
  // Fast-reaction contract for repaired topology events: the grown path
  // sets the warm LP carries over the event ARE the provisioned fallback
  // capacity — reoptimize over them (dual warm restart) and return. Growing
  // here would put the masked-graph Yen recomputation — the KSP work the
  // paper singles out as the bottleneck, and the dominant cost of a cold
  // event epoch — back on the reaction's critical path. The
  // canonicalization rebuild one epoch later regrows from scratch and
  // restores the full-quality placement off that path.
  const bool grow_allowed = opts.grow && !outcome.topology_repaired;
  for (int round = 0; round < opts.max_rounds; ++round) {
    ++outcome.lp_rounds;
    res = ilp->Solve(paths);
    accumulate(res);
    if (!res.ok()) {
      ++outcome.lp_failures;
      // Degradation ladder, rung 1: most in-place solve failures are
      // factorization drift. Force an exact refactorization of the live
      // solver and retry once before giving up on it.
      ilp->ForceRefactorize();
      RoutingLpResult retry = ilp->Solve(paths);
      accumulate(retry);
      if (retry.ok()) {
        res = retry;
        outcome.fallback =
            std::max(outcome.fallback, FallbackRung::kRetryRefactor);
      } else {
        ++outcome.lp_failures;
      }
    }
    if (!res.ok()) {
      // Rung 2: rebuild the LP cold — fresh solver, exact columns, same
      // grown path sets — and install it so later rounds (and the next
      // epoch) run against the healthy instance.
      auto rebuilt = build();
      RoutingLpResult cold = rebuilt->Solve(paths);
      accumulate(cold);
      if (cold.ok()) {
        res = cold;
        outcome.fallback =
            std::max(outcome.fallback, FallbackRung::kColdRebuild);
        install(std::move(rebuilt));
      } else {
        ++outcome.lp_failures;
      }
    }
    if (!res.ok()) break;

    bool feasible_now =
        !opts.lp.minmax && res.omax <= 1.0 + kFitEps;
    if (feasible_now) {
      double d = weighted_delay(res, paths);
      if (d < best_delay - 1e-9) {
        best_delay = d;
        best_res = res;
        best_paths = paths;
      }
    }
    if (!grow_allowed) break;

    if (!opts.lp.minmax) {
      if (feasible_now && polish_left-- <= 0) break;
    } else {
      if (res.omax < best_minmax_omax - kImproveEps) {
        best_minmax_omax = res.omax;
        patience_left = kPatience;
      } else {
        if (--patience_left <= 0) break;
      }
    }

    // Hot links: maximally overloaded (LDR, or saturated when polishing) /
    // maximally utilized (MinMax).
    std::vector<bool> hot(g.LinkCount(), false);
    double threshold = res.omax - std::max(1e-9, res.omax * 1e-6);
    bool any_hot = false;
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      if (res.link_level[l] >= threshold && res.link_level[l] > 0) {
        hot[l] = true;
        any_hot = true;
      }
    }
    if (!any_hot) break;
    size_t grown = GrowPathSets(store, aggregates, res.fractions, hot, cache,
                                kMaxPathsPerAggregate, &paths);
    if (grown == 0) break;  // exhausted: congestion unavoidable
  }

  // Persist the grown (pre-restore) path sets for the next warm re-entry;
  // a failed solve poisons the solver state, so drop it instead.
  if (reuse != nullptr) {
    if (res.ok()) {
      reuse->paths = paths;
    } else {
      reuse->lp.reset();
      reuse->paths.clear();
    }
  }

  // Prefer the best feasible solution seen (LDR mode); otherwise the last.
  if (best_delay < lp::kInfinity) {
    res = best_res;
    paths = best_paths;
  }

  if (res.ok()) {
    // A loop stopped by the round cap right after growing has paths the
    // last solve never saw; growth is append-only, so the solved ones are
    // the leading res.fractions[a].size() entries.
    for (size_t a = 0; a < aggregates.size(); ++a) {
      for (size_t pi = 0; pi < res.fractions[a].size(); ++pi) {
        double f = res.fractions[a][pi];
        if (f <= 1e-9) continue;
        outcome.allocations[a].push_back({paths[a][pi], f});
      }
    }
    outcome.max_level = res.omax;
    // Same acceptance threshold in both LP modes: omax is max utilization
    // under minmax and max overload under LDR, and 1 + kFitEps is the fit
    // boundary for either scale.
    outcome.feasible = res.omax <= 1.0 + kFitEps;
  } else {
    // Degradation ladder, rung 4 (emergency): every aggregate rides its
    // current shortest path — KSP rank 0 under today's mask, not the first
    // path a repaired warm entry carried over, which may cross the failed
    // link. max_level reports the *actual* load of that placement — a
    // failed solve must not leak the default 0 into callers that divide by
    // it (MinMaxUtilization scales whole traffic matrices off this).
    outcome.fallback = FallbackRung::kShortestPath;
    outcome.allocations = ShortestPathPlacement(aggregates, cache);
    std::vector<double> load(g.LinkCount(), 0.0);
    for (size_t a = 0; a < aggregates.size(); ++a) {
      for (const PathAllocation& pa : outcome.allocations[a]) {
        for (LinkId l : store.Links(pa.path)) {
          load[static_cast<size_t>(l)] += aggregates[a].demand_gbps;
        }
      }
    }
    double cap_scale = 1.0 - opts.lp.headroom;
    outcome.max_level = opts.lp.minmax ? 0.0 : 1.0;
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      double cap = g.link(static_cast<LinkId>(l)).capacity_gbps * cap_scale;
      if (cap <= 0) continue;
      outcome.max_level = std::max(outcome.max_level, load[l] / cap);
    }
    outcome.feasible = false;
  }
  outcome.solve_ms = NowMs() - t0;
  return outcome;
}

LatencyOptimalScheme::LatencyOptimalScheme(const Graph* g, KspCache* cache,
                                           double headroom,
                                           std::string display_name)
    : g_(g), cache_(cache) {
  opts_.lp.headroom = headroom;
  name_ = display_name.empty()
              ? (headroom == 0 ? "LatencyOptimal"
                               : "LDR(h=" + std::to_string(headroom) + ")")
              : std::move(display_name);
}

RoutingOutcome LatencyOptimalScheme::Route(
    const std::vector<Aggregate>& aggregates) {
  return IterativeLpRoute(*g_, aggregates, cache_, opts_);
}

MinMaxScheme::MinMaxScheme(const Graph* g, KspCache* cache, size_t k)
    : g_(g), cache_(cache), k_(k) {
  name_ = k == 0 ? "MinMax" : "MinMaxK" + std::to_string(k);
}

RoutingOutcome MinMaxScheme::Route(const std::vector<Aggregate>& aggregates) {
  IterativeOptions opts;
  opts.lp.minmax = true;
  if (k_ > 0) {
    opts.initial_paths = k_;
    opts.grow = false;
  }
  return IterativeLpRoute(*g_, aggregates, cache_, opts);
}

double MinMaxUtilization(const Graph& g,
                         const std::vector<Aggregate>& aggregates,
                         KspCache* cache) {
  IterativeOptions opts;
  opts.lp.minmax = true;
  RoutingOutcome out = IterativeLpRoute(g, aggregates, cache, opts);
  return out.max_level;
}

}  // namespace ldr
