#include "sim/scenario_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "graph/shortest_path.h"
#include "routing/placement.h"
#include "sim/corpus_runner.h"
#include "sim/evaluate.h"
#include "traffic/trace.h"
#include "util/failpoint.h"
#include "util/stats.h"

namespace ldr {

namespace {

// (aggregate, path) -> fraction, for churn comparison. PathIds are stable
// across epochs — the engine's PathStore arena survives every invalidation
// — so id equality is placement equality.
using AllocationMap = std::unordered_map<uint64_t, double>;

AllocationMap FlattenAllocations(
    const std::vector<std::vector<PathAllocation>>& allocations) {
  AllocationMap out;
  for (size_t a = 0; a < allocations.size(); ++a) {
    for (const PathAllocation& pa : allocations[a]) {
      uint64_t key = (static_cast<uint64_t>(a) << 32) |
                     static_cast<uint32_t>(pa.path);
      out[key] += pa.fraction;
    }
  }
  return out;
}

// Order-independent placement fingerprint: XOR of per-key FNV hashes of the
// *flattened* map, so keys are unique and the XOR can never cancel two
// identical entries against each other (a list-level hash would fingerprint
// a duplicated (aggregate, path) entry the same as its absence).
uint64_t HashAllocations(const AllocationMap& allocations) {
  uint64_t acc = 0;
  for (const auto& [key, fraction] : allocations) {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    mix(key);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(fraction), "double is 64-bit");
    std::memcpy(&bits, &fraction, sizeof(bits));
    mix(bits);
    acc ^= h;
  }
  return acc;
}

// Fraction of (aggregate, path) entries — over the union of both epochs —
// whose routed fraction moved by more than 1e-9.
double RouteChurn(const AllocationMap& prev, const AllocationMap& cur) {
  size_t union_size = 0;
  size_t changed = 0;
  for (const auto& [key, f] : cur) {
    ++union_size;
    auto it = prev.find(key);
    double before = it == prev.end() ? 0.0 : it->second;
    if (std::abs(f - before) > 1e-9) ++changed;
  }
  for (const auto& [key, f] : prev) {
    if (cur.find(key) != cur.end()) continue;
    ++union_size;
    if (std::abs(f) > 1e-9) ++changed;
  }
  return union_size == 0
             ? 0.0
             : static_cast<double>(changed) / static_cast<double>(union_size);
}

}  // namespace

void Scenario::AddLinkFlap(const Graph& graph, LinkId link, int down_epoch,
                           int up_epoch) {
  // CableLinks is the one definition of "a cable takes both directions" —
  // shared with SRLG expansion and maintenance windows.
  for (LinkId l : CableLinks(graph, link)) {
    ScenarioEvent down;
    down.type = ScenarioEvent::Type::kLinkDown;
    down.epoch = down_epoch;
    down.link = l;
    events.push_back(down);
    ScenarioEvent up;
    up.type = ScenarioEvent::Type::kLinkUp;
    up.epoch = up_epoch;
    up.link = l;
    events.push_back(up);
  }
}

int Scenario::AddSrlg(std::string srlg_name, std::vector<LinkId> links) {
  Srlg s;
  s.name = std::move(srlg_name);
  s.links = std::move(links);
  srlgs.push_back(std::move(s));
  return static_cast<int>(srlgs.size() - 1);
}

void Scenario::AddSrlgOutage(int srlg, int down_epoch, int up_epoch) {
  ScenarioEvent down;
  down.type = ScenarioEvent::Type::kSrlgDown;
  down.epoch = down_epoch;
  down.srlg = srlg;
  events.push_back(down);
  ScenarioEvent up;
  up.type = ScenarioEvent::Type::kSrlgUp;
  up.epoch = up_epoch;
  up.srlg = srlg;
  events.push_back(up);
}

void Scenario::AddNodeOutage(NodeId node, int down_epoch, int up_epoch) {
  ScenarioEvent down;
  down.type = ScenarioEvent::Type::kNodeDown;
  down.epoch = down_epoch;
  down.node = node;
  events.push_back(down);
  ScenarioEvent up;
  up.type = ScenarioEvent::Type::kNodeUp;
  up.epoch = up_epoch;
  up.node = node;
  events.push_back(up);
}

std::vector<std::vector<double>> ConstantScenarioTraffic(
    const std::vector<Aggregate>& aggregates, int epochs, double epoch_sec,
    double utilization) {
  size_t samples = static_cast<size_t>(epochs * epoch_sec * 10.0 + 0.5);
  std::vector<std::vector<double>> series(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    series[a].assign(samples, aggregates[a].demand_gbps * utilization);
  }
  return series;
}

double ScenarioReport::WarmSolveMsMedian() const {
  std::vector<double> v;
  for (const ScenarioEpochReport& er : epochs) {
    if (er.warm && !er.event_epoch && !er.fault_epoch) v.push_back(er.solve_ms);
  }
  return Median(std::move(v));
}

double ScenarioReport::ColdSolveMsMedian() const {
  std::vector<double> v;
  for (const ScenarioEpochReport& er : epochs) {
    if (!er.warm && !er.event_epoch && !er.fault_epoch) {
      v.push_back(er.solve_ms);
    }
  }
  return Median(std::move(v));
}

double ScenarioReport::EventFreeChurnMax() const {
  double churn = 0;
  for (size_t i = 0; i < epochs.size(); ++i) {
    const ScenarioEpochReport& er = epochs[i];
    if (er.epoch == 0 || er.event_epoch || er.fault_epoch) continue;
    // The canonicalization rebuild one epoch after a dual-repaired epoch may
    // move the placement from the repaired one to the canonical one — churn
    // with an operational cause (the topology event), not drift.
    if (i > 0 && epochs[i - 1].dual_repair) continue;
    churn = std::max(churn, er.route_churn);
  }
  return churn;
}

double ScenarioReport::Availability() const {
  if (epochs.empty()) return 1.0;
  size_t clean = 0;
  for (const ScenarioEpochReport& er : epochs) {
    if (er.placement_valid && er.congested_fraction == 0) ++clean;
  }
  return static_cast<double>(clean) / static_cast<double>(epochs.size());
}

FallbackRung ScenarioReport::MaxFallbackRung() const {
  FallbackRung rung = FallbackRung::kNone;
  for (const ScenarioEpochReport& er : epochs) {
    rung = std::max(rung, er.fallback);
  }
  return rung;
}

std::vector<int> ScenarioReport::ReconvergeEpochs() const {
  std::vector<int> out;
  out.reserve(events.size());
  for (const ScenarioEventReport& evr : events) {
    out.push_back(evr.reconverge_epochs);
  }
  return out;
}

double ScenarioReport::WorstCongestedFraction() const {
  double worst = 0;
  for (const ScenarioEpochReport& er : epochs) {
    worst = std::max(worst, er.congested_fraction);
  }
  return worst;
}

double ScenarioReport::WorstQueueMs() const {
  double worst = 0;
  for (const ScenarioEpochReport& er : epochs) {
    worst = std::max(worst, er.worst_queue_ms);
  }
  return worst;
}

bool PlacementParity(const ScenarioReport& a, const ScenarioReport& b) {
  if (a.epochs.size() != b.epochs.size()) return false;
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    // A dual-repaired epoch's placement is served off the in-place LP's
    // history-dependent path sets and may legitimately differ from a cold
    // rebuild's; the canonicalization epoch right after it is a cold solve
    // again and is held to bitwise equality like every other epoch.
    if (a.epochs[e].dual_repair || b.epochs[e].dual_repair) continue;
    if (a.epochs[e].allocation_hash != b.epochs[e].allocation_hash) {
      return false;
    }
  }
  return true;
}

ScenarioEngine::ScenarioEngine(const Topology& topology, Scenario scenario,
                               ScenarioEngineOptions opts)
    : scenario_(std::move(scenario)),
      opts_(std::move(opts)),
      graph_(topology.graph),
      cache_(&graph_) {
  if (opts_.scheme_id.empty()) {
    // incremental=false changes nothing here: each cold epoch drops the
    // controller's warm state (DropWarmState, in Run) and so runs the same
    // LP construction a post-event cold start runs — a fresh
    // IncrementalRoutingLp, solved once and discarded. Both engines share
    // one builder, so the parity check compares warmth, not builders.
    controller_ =
        std::make_unique<LdrController>(&graph_, &cache_, opts_.controller);
  } else {
    scheme_ = MakeScheme(opts_.scheme_id, &graph_, &cache_);
  }
  if (opts_.adaptive.enabled) {
    demand_scale_.assign(scenario_.aggregates.size(), 1.0);
    cubic_wmax_.assign(scenario_.aggregates.size(), 1.0);
    cubic_epochs_.assign(scenario_.aggregates.size(), 0);
  }
}

ScenarioEngine::~ScenarioEngine() = default;

bool ScenarioEngine::EventValid(const ScenarioEvent& ev) const {
  // Invalid events are ignored everywhere — not applied, not epoch-marking,
  // not reported — so they cannot skew the event-free churn/solve
  // populations or fabricate reconvergence entries. Ways to be invalid: an
  // epoch outside the scenario (the apply loop would never fire it), a
  // link-typed event naming no real link (a default-constructed
  // ScenarioEvent or an unguarded ReverseLink() miss would otherwise index
  // the mask array at SIZE_MAX), or a grouped event whose expansion yields
  // no links at all (an out-of-range SRLG index, an SRLG of only bogus
  // member ids, an isolated or unknown node), or a surge / capacity factor
  // that is not a finite positive number (a zero-capacity link never counts
  // as congested, so a 0 factor would hide load instead of modelling it).
  if (ev.epoch < 0 || ev.epoch >= scenario_.epochs) return false;
  const bool factor_ok = std::isfinite(ev.factor) && ev.factor > 0;
  switch (ev.type) {
    case ScenarioEvent::Type::kDemandSurge:
      // A surge must actually surge something: positive window, and a
      // target that is either the documented -1 ("every aggregate") or a
      // real index.
      return factor_ok && ev.duration_epochs > 0 && ev.aggregate >= -1 &&
             (ev.aggregate < 0 ||
              static_cast<size_t>(ev.aggregate) < scenario_.aggregates.size());
    case ScenarioEvent::Type::kSrlgDown:
    case ScenarioEvent::Type::kSrlgUp:
      return ev.srlg >= 0 &&
             static_cast<size_t>(ev.srlg) < scenario_.srlgs.size() &&
             !EventLinks(ev).empty();
    case ScenarioEvent::Type::kNodeDown:
    case ScenarioEvent::Type::kNodeUp:
      return ev.node >= 0 &&
             static_cast<size_t>(ev.node) < graph_.NodeCount() &&
             !EventLinks(ev).empty();
    case ScenarioEvent::Type::kMaintenance:
      // The window must have extent; the drain epoch clamps to 0 on its own.
      return ev.duration_epochs > 0 && ev.link >= 0 &&
             static_cast<size_t>(ev.link) < graph_.LinkCount();
    case ScenarioEvent::Type::kCapacityScale:
      return factor_ok && ev.link >= 0 &&
             static_cast<size_t>(ev.link) < graph_.LinkCount();
    case ScenarioEvent::Type::kLinkDown:
    case ScenarioEvent::Type::kLinkUp:
      return ev.link >= 0 &&
             static_cast<size_t>(ev.link) < graph_.LinkCount();
  }
  return false;
}

std::vector<LinkId> ScenarioEngine::EventLinks(const ScenarioEvent& ev) const {
  std::vector<LinkId> out;
  switch (ev.type) {
    case ScenarioEvent::Type::kLinkDown:
    case ScenarioEvent::Type::kLinkUp:
      // Singleton events stay single-direction: AddLinkFlap already emits
      // the two directions of a cable as two events, and tests address
      // directed links individually.
      if (ev.link >= 0 && static_cast<size_t>(ev.link) < graph_.LinkCount()) {
        out.push_back(ev.link);
      }
      break;
    case ScenarioEvent::Type::kSrlgDown:
    case ScenarioEvent::Type::kSrlgUp:
      if (ev.srlg >= 0 &&
          static_cast<size_t>(ev.srlg) < scenario_.srlgs.size()) {
        for (LinkId cable : scenario_.srlgs[static_cast<size_t>(ev.srlg)].links) {
          for (LinkId l : CableLinks(graph_, cable)) out.push_back(l);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
      }
      break;
    case ScenarioEvent::Type::kNodeDown:
    case ScenarioEvent::Type::kNodeUp:
      out = graph_.IncidentLinks(ev.node);
      break;
    case ScenarioEvent::Type::kMaintenance:
      out = CableLinks(graph_, ev.link);
      break;
    case ScenarioEvent::Type::kCapacityScale:
    case ScenarioEvent::Type::kDemandSurge:
      break;
  }
  return out;
}

void ScenarioEngine::ApplyMask(const std::vector<LinkId>& links, bool down) {
  // Every member flips before any consumer observes the graph, then the
  // driver hears about the whole group ONCE: batch KSP eviction plus a
  // single LP dirty-mark for the controller (the dual repair sees one epoch
  // delta), one grouped eviction — or one Clear — for scheme drivers.
  graph_.SetLinksDown(links, down);
  if (controller_ != nullptr) {
    if (down) {
      controller_->OnLinksDown(links);
    } else {
      controller_->OnLinksUp(links);
    }
  } else {
    if (down) {
      scheme_ksp_evictions_ += cache_.InvalidateLinks(links);
    } else {
      cache_.Clear();
    }
  }
  sp_dirty_ = true;
}

size_t ScenarioEngine::UpdateAdaptiveDemand(const ReplayResult& replay,
                                            const RoutingOutcome& outcome) {
  using AD = AdaptiveDemandOptions;
  const PathStore& store = *outcome.store;
  size_t backoffs = 0;
  size_t n = std::min(demand_scale_.size(), outcome.allocations.size());
  for (size_t a = 0; a < n; ++a) {
    // The congestion signal: the worst realized queueing on any link this
    // aggregate's placed paths cross — what its flows actually felt.
    double queue_ms = 0;
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-9) continue;
      for (LinkId l : store.Links(pa.path)) {
        queue_ms =
            std::max(queue_ms, replay.links[static_cast<size_t>(l)].max_queue_ms);
      }
    }
    double& scale = demand_scale_[a];
    if (queue_ms > AD::kQueueThresholdMs) {
      // Multiplicative decrease, with CUBIC's fast-convergence tweak: a
      // backoff from below the previous w_max shrinks the remembered
      // target, so repeated congestion hunts downward.
      cubic_wmax_[a] =
          scale < cubic_wmax_[a] ? scale * (2.0 - AD::kBeta) / 2.0 : scale;
      scale = std::max(AD::kFloor, scale * AD::kBeta);
      cubic_epochs_[a] = 0;
      ++backoffs;
    } else if (scale < 1.0) {
      // Cubic recovery: concave toward w_max, convex probing past it, never
      // above the full offered rate. max(scale, w) keeps the early flat
      // part of the curve from moving the scale backwards.
      ++cubic_epochs_[a];
      double t = static_cast<double>(cubic_epochs_[a]);
      double k = std::cbrt(cubic_wmax_[a] * (1.0 - AD::kBeta) / AD::kCubicC);
      double w = AD::kCubicC * (t - k) * (t - k) * (t - k) + cubic_wmax_[a];
      scale = std::min(1.0, std::max(scale, std::max(AD::kFloor, w)));
    }
  }
  return backoffs;
}

std::vector<std::vector<double>> ScenarioEngine::EpochSegment(
    int epoch) const {
  size_t spe = static_cast<size_t>(scenario_.epoch_sec * 10.0 + 0.5);
  size_t begin = static_cast<size_t>(epoch) * spe;
  std::vector<std::vector<double>> segment(scenario_.series_100ms.size());
  for (size_t a = 0; a < scenario_.series_100ms.size(); ++a) {
    const std::vector<double>& full = scenario_.series_100ms[a];
    if (begin < full.size()) {
      size_t end = std::min(full.size(), begin + spe);
      segment[a].assign(full.begin() + static_cast<ptrdiff_t>(begin),
                        full.begin() + static_cast<ptrdiff_t>(end));
    }
    // A series that has ended reads as *silent*, not as missing: pad with
    // explicit zeros so the predictors decay toward zero (Algorithm 1)
    // instead of holding the last estimate forever, and the optimizer-view
    // metrics describe the same world the replay sees.
    segment[a].resize(spe, 0.0);
    for (const ScenarioEvent& ev : scenario_.events) {
      if (ev.type != ScenarioEvent::Type::kDemandSurge || !EventValid(ev)) {
        continue;  // invalid events are ignored everywhere, surges included
      }
      if (epoch < ev.epoch || epoch >= ev.epoch + ev.duration_epochs) continue;
      if (ev.aggregate >= 0 && static_cast<size_t>(ev.aggregate) != a) continue;
      for (double& v : segment[a]) v *= ev.factor;
    }
    // Closed-loop demand (PR 10): the aggregate's current CUBIC scale —
    // updated at the end of each epoch from the realized queueing — shapes
    // what it actually transmits next epoch. Off: demand_scale_ is empty.
    if (a < demand_scale_.size() && demand_scale_[a] != 1.0) {
      for (double& v : segment[a]) v *= demand_scale_[a];
    }
  }
  return segment;
}

ScenarioReport ScenarioEngine::Run() {
  ScenarioReport report;
  report.scenario = scenario_.name;
  report.driver = opts_.scheme_id.empty() ? "LDR" : opts_.scheme_id;

  // Which demand surges are active at an epoch — a change in that set makes
  // the epoch an event epoch even though nothing fires at it (the surge
  // expiring changes the inputs).
  auto active_surges = [&](int epoch) {
    std::vector<size_t> active;
    if (epoch < 0) return active;
    for (size_t i = 0; i < scenario_.events.size(); ++i) {
      const ScenarioEvent& ev = scenario_.events[i];
      if (ev.type != ScenarioEvent::Type::kDemandSurge || !EventValid(ev)) {
        continue;
      }
      if (epoch >= ev.epoch && epoch < ev.epoch + ev.duration_epochs) {
        active.push_back(i);
      }
    }
    return active;
  };

  // Scenario-input validation: rejected events are ignored everywhere and
  // counted once, up front (they are a property of the scenario, not of any
  // epoch). `applied` tracks which events actually took effect, so skipped
  // redundant/dropped events cannot fabricate reconvergence entries below.
  for (const ScenarioEvent& ev : scenario_.events) {
    if (!EventValid(ev)) ++report.invalid_events;
  }
  std::vector<char> applied(scenario_.events.size(), 0);
  // First epoch each event actually changed something — the reconvergence
  // scan starts there, not at the nominal epoch (a maintenance window's
  // disruption starts at its drain epoch, one before `epoch`).
  std::vector<int> first_applied(scenario_.events.size(), -1);

  auto fault_active = [&](int epoch) {
    for (const FaultWindow& fw : scenario_.faults) {
      if (epoch >= fw.from_epoch && epoch < fw.until_epoch) return true;
    }
    return false;
  };

  AllocationMap prev_alloc;
  for (int e = 0; e < scenario_.epochs; ++e) {
    // Fault windows open/close at epoch boundaries, before events and the
    // epoch's reconfiguration. Closing a window also drops the controller's
    // warm state: whatever the faulted epochs left behind (drifted basis,
    // starved path sets) is suspect, and the first clean epoch becomes a
    // cold, bitwise-reproducible solve — the reconvergence-to-parity
    // guarantee the fault campaigns assert.
    for (const FaultWindow& fw : scenario_.faults) {
      if (fw.from_epoch == e) util::Failpoint::Activate(fw.failpoint, fw.spec);
      if (fw.until_epoch == e) {
        util::Failpoint::Deactivate(fw.failpoint);
        if (controller_ != nullptr) controller_->DropWarmState();
      }
    }

    bool event_fired = false;
    for (size_t i = 0; i < scenario_.events.size(); ++i) {
      const ScenarioEvent& ev = scenario_.events[i];
      if (ev.type == ScenarioEvent::Type::kDemandSurge) {
        // Surges apply through EpochSegment; valid ones count as applied.
        if (EventValid(ev)) applied[i] = 1;
        continue;
      }
      if (!EventValid(ev)) continue;
      if (ev.type == ScenarioEvent::Type::kCapacityScale) {
        if (ev.epoch != e) continue;
        // Fault site: the event is lost before reaching the topology (a
        // controller that missed a provisioning notification).
        if (LDR_FAILPOINT("scenario.drop_event")) {
          ++report.dropped_events;
          continue;
        }
        graph_.SetCapacity(ev.link,
                           graph_.link(ev.link).capacity_gbps * ev.factor);
        if (controller_ != nullptr) controller_->OnCapacityChange();
        // Delays are untouched: the stretch denominators stay valid.
        applied[i] = 1;
        if (first_applied[i] < 0) first_applied[i] = e;
        event_fired = true;
        continue;
      }
      // Link-group events: a singleton flap direction, an SRLG cut, a node
      // failure, or a maintenance window's drain/restore edge. Maintenance
      // fires twice — the mask at the drain epoch (one before the nominal
      // outage, clamped to 0: the pre-move head start), the restore at the
      // window's end; a restore past the timeline simply never fires.
      bool down;
      if (ev.type == ScenarioEvent::Type::kMaintenance) {
        int drain = std::max(0, ev.epoch - 1);
        int restore = ev.epoch + ev.duration_epochs;
        if (e == drain) {
          down = true;
        } else if (e == restore) {
          down = false;
        } else {
          continue;
        }
      } else {
        if (ev.epoch != e) continue;
        down = ev.type == ScenarioEvent::Type::kLinkDown ||
               ev.type == ScenarioEvent::Type::kSrlgDown ||
               ev.type == ScenarioEvent::Type::kNodeDown;
      }
      // Partial-redundancy semantics (PR 10): a grouped event some of whose
      // members are already in the target state applies the LIVE subset and
      // reports the rest, link by link — not the old all-or-nothing per-link
      // call sequence. Fully-redundant events stay no-ops: not applied, not
      // epoch-marking, no reconvergence entry.
      std::vector<LinkId> group = EventLinks(ev);
      std::vector<LinkId> live;
      live.reserve(group.size());
      for (LinkId l : group) {
        if (graph_.IsLinkDown(l) != down) live.push_back(l);
      }
      report.redundant_events += group.size() - live.size();
      if (live.empty()) continue;
      // Fault site: the whole notification is lost before reaching the
      // topology (a controller that missed a link-state notification).
      if (LDR_FAILPOINT("scenario.drop_event")) {
        report.dropped_events += live.size();
        continue;
      }
      // Fault site: a grouped notification arrives PARTIALLY — only a
      // prefix of the live members reaches the topology this epoch (an SRLG
      // inventory that maps the conduit to a subset of its fibers). The
      // lost members count as dropped.
      if (live.size() > 1 && LDR_FAILPOINT("scenario.srlg_partial")) {
        size_t keep = (live.size() + 1) / 2;
        report.dropped_events += live.size() - keep;
        live.resize(keep);
      }
      ApplyMask(live, down);
      applied[i] = 1;
      if (first_applied[i] < 0) first_applied[i] = e;
      event_fired = true;
    }
    bool surge_changed = active_surges(e) != active_surges(e - 1);

    if (!opts_.incremental && controller_ != nullptr) {
      controller_->DropWarmState();
    }

    std::vector<std::vector<double>> segment = EpochSegment(e);
    std::vector<Aggregate> working = scenario_.aggregates;

    ScenarioEpochReport er;
    er.epoch = e;
    er.event_epoch = event_fired || surge_changed;
    if (!demand_scale_.empty()) {
      // The scale in effect for THIS epoch's segment (updated below, after
      // the replay, for the next one).
      er.demand_scale_min =
          *std::min_element(demand_scale_.begin(), demand_scale_.end());
    }

    LdrControllerResult ctrl;
    RoutingOutcome scheme_outcome;
    const RoutingOutcome* outcome = nullptr;
    if (controller_ != nullptr) {
      ctrl = controller_->RunEpoch(working, segment);
      for (size_t a = 0; a < working.size(); ++a) {
        working[a].demand_gbps = ctrl.demand_estimate_gbps[a];
      }
      outcome = &ctrl.outcome;
      // Three-way epoch classification: a topology-repaired epoch re-enters
      // the live LP too, but via the dual-simplex restart — report it as
      // dual_repair, not warm, so the warm population stays comparable.
      er.warm = ctrl.warm_epoch && !ctrl.topology_repaired;
      er.dual_repair = ctrl.topology_repaired;
      er.lp_dual_pivots = ctrl.outcome.lp_dual_pivots;
      er.lp_bound_flips = ctrl.outcome.lp_bound_flips;
      er.lp_warm_restart = ctrl.outcome.lp_warm_restart;
      er.rounds = ctrl.rounds;
      er.multiplex_ok = ctrl.multiplex_ok;
      er.failing_links = ctrl.failing_links_last_round;
      // All rounds' solve time, not just the final re-optimization's —
      // multi-round (event) epochs must not under-report.
      er.solve_ms = ctrl.solve_ms_total;
    } else {
      // Scheme driver: the same Algorithm 1 demand feed as the controller
      // (persistent predictors), then a from-scratch Route — B4/SP have no
      // warm state to keep.
      std::vector<double> demand =
          AdvancePredictors(&predictors_, segment, opts_.controller);
      for (size_t a = 0; a < working.size(); ++a) {
        working[a].demand_gbps = demand[a];
      }
      scheme_outcome = scheme_->Route(working);
      outcome = &scheme_outcome;
      er.rounds = 1;
      er.multiplex_ok = true;  // non-LDR drivers do not appraise
      er.solve_ms = scheme_outcome.solve_ms;
    }
    for (const Aggregate& a : working) er.demand_total_gbps += a.demand_gbps;

    if (sp_dirty_) {
      sp_delay_ms_ = AllPairsShortestDelay(graph_);
      sp_dirty_ = false;
    }
    EvalResult eval = Evaluate(graph_, working, *outcome, sp_delay_ms_);
    er.congested_fraction = eval.congested_fraction;
    er.max_stretch = eval.max_stretch;
    er.total_stretch = eval.total_stretch;
    er.overloaded_links = eval.overloaded_links;

    ReplayResult replay =
        ReplayTraffic(graph_, working, *outcome, segment, opts_.replay);
    er.worst_queue_ms = replay.worst_queue_ms;
    er.links_with_queueing = replay.links_with_queueing;
    if (!demand_scale_.empty()) {
      // Close the loop: next epoch's segment scales react to this epoch's
      // realized queueing (multiplicative backoff / cubic probe).
      er.backoff_aggregates = UpdateAdaptiveDemand(replay, *outcome);
    }

    AllocationMap cur_alloc = FlattenAllocations(outcome->allocations);
    er.route_churn = e == 0 ? 0.0 : RouteChurn(prev_alloc, cur_alloc);
    er.allocations = cur_alloc.size();
    er.allocation_hash = HashAllocations(cur_alloc);
    prev_alloc = std::move(cur_alloc);

    // Degradation telemetry: which rung produced the placement, whether the
    // epoch ran inside a fault window, and the hard invariant — the
    // installed placement is valid no matter what broke this epoch.
    er.fault_epoch = fault_active(e);
    er.fallback = outcome->fallback;
    er.placement_valid =
        ValidatePlacement(graph_, *outcome->store, outcome->allocations).valid;
    ++report.fallback_counts[static_cast<size_t>(er.fallback)];
    if (er.fallback != FallbackRung::kNone && !er.fault_epoch) {
      ++report.clean_fallback_epochs;
    }

    if (er.dual_repair) {
      ++report.dual_repair_epochs;
      report.dual_repair_solve_ms_total += er.solve_ms;
    } else if (er.warm) {
      ++report.warm_epochs;
      report.warm_solve_ms_total += er.solve_ms;
    } else {
      ++report.cold_epochs;
      report.cold_solve_ms_total += er.solve_ms;
    }
    report.epochs.push_back(er);
  }

  // Fault windows whose until_epoch lies past the timeline end never hit
  // their Deactivate above; never leak active failpoints out of the run.
  for (const FaultWindow& fw : scenario_.faults) {
    util::Failpoint::Deactivate(fw.failpoint);
  }

  // Reconvergence per event: epochs until the first clean placement at or
  // after the event's epoch.
  for (size_t i = 0; i < scenario_.events.size(); ++i) {
    const ScenarioEvent& ev = scenario_.events[i];
    if (!applied[i]) continue;  // never applied: no phantom report entry
    ScenarioEventReport evr;
    evr.event = ev;
    double ms = 0;
    // Surges apply through EpochSegment from their nominal epoch; every
    // other applied event recorded where it first changed the topology
    // (the drain epoch for maintenance windows).
    int start = first_applied[i] >= 0 ? first_applied[i] : ev.epoch;
    for (int e = start; e < scenario_.epochs; ++e) {
      const ScenarioEpochReport& er = report.epochs[static_cast<size_t>(e)];
      ms += er.solve_ms;
      if (er.multiplex_ok && er.congested_fraction == 0) {
        evr.reconverge_epochs = e - start;
        evr.reconverge_ms = ms;
        break;
      }
    }
    report.events.push_back(evr);
  }
  report.ksp_evictions = controller_ != nullptr
                             ? controller_->ksp_evictions()
                             : scheme_ksp_evictions_;
  return report;
}

}  // namespace ldr
