// ScenarioEngine — the discrete-time operational loop the paper's Fig. 11
// controller actually lives in.
//
// Everything below the sim layer optimizes one frozen snapshot: a topology,
// one traffic matrix, one placement. A Scenario is the missing time axis — a
// measured traffic timeline cut into controller epochs (one per minute, as
// deployed) plus an ordered list of operational events: links failing and
// recovering, capacities being re-provisioned, demand surging. The engine
// advances the timeline epoch by epoch, keeping the controller state that
// makes consecutive epochs cheap (per-aggregate predictor states, the
// KspCache + PathStore arena, the warm LP of LpReuseContext) and reconciling
// exactly as much of it as each event invalidates (see LdrController's
// delta hooks). After each reconfiguration the epoch's measured segment is
// replayed through the installed placement, so every epoch reports both the
// optimizer's view (congestion/stretch from Evaluate) and the realized one
// (queueing from replay).
//
// The engine is deliberately serial and consults no environment knobs: the
// library's one, LDR_THREADS, sets only a worker count, and failpoints are
// armed in code (Scenario::faults), never from the environment. Identical
// scenarios produce bitwise-identical reports at any LDR_THREADS setting
// (the ci.sh determinism probe holds it to that), and with LDR_FAILPOINTS
// or LDR_BENCH_SCALE set (ctest env_knobs_ignored).
#ifndef LDR_SIM_SCENARIO_ENGINE_H_
#define LDR_SIM_SCENARIO_ENGINE_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "graph/ksp.h"
#include "routing/ldr_controller.h"
#include "routing/scheme.h"
#include "sim/replay.h"
#include "topology/topology.h"
#include "util/failpoint.h"

namespace ldr {

// One operational event, applied at the start of its epoch, before that
// epoch's reconfiguration — the controller re-optimizes *in response*.
//
// The singleton link events take one directed link each (a cable flap is
// two of them per direction; see AddLinkFlap). The correlated types (PR 10)
// expand to a *group* of directed links applied atomically — every member
// masked/restored before the controller hears about any of them, and the
// whole group delivered as one batched delta (LdrController::OnLinksDown /
// OnLinksUp), so the repair path sees one epoch delta, not N:
//
//   kSrlgDown/kSrlgUp  every cable of Scenario::srlgs[srlg], both directions
//                      (a conduit cut takes every fiber sharing it)
//   kNodeDown/kNodeUp  every link incident to `node` (Graph::IncidentLinks)
//   kMaintenance       the cable of `link`, both directions, masked at the
//                      *drain* epoch `epoch - 1` (clamped to 0) and restored
//                      at `epoch + duration_epochs`. The drain epoch is the
//                      scheduled head start: the controller pre-moves
//                      traffic off the cable one epoch before the nominal
//                      outage window [epoch, epoch + duration_epochs).
struct ScenarioEvent {
  enum class Type {
    kLinkDown,       // mask `link` out of the topology
    kLinkUp,         // restore `link`
    kCapacityScale,  // multiply `link`'s capacity by `factor`
    kDemandSurge,    // multiply traffic of `aggregate` (-1: all) by `factor`
                     // for `duration_epochs` epochs
    kSrlgDown,       // mask every member of SRLG `srlg` atomically
    kSrlgUp,         // restore every member of SRLG `srlg` atomically
    kNodeDown,       // mask every link incident to `node`
    kNodeUp,         // restore every link incident to `node`
    kMaintenance,    // scheduled cable outage with a drain epoch (see above)
  };

  Type type = Type::kLinkDown;
  int epoch = 0;
  LinkId link = kInvalidLink;  // kLinkDown / kLinkUp / kCapacityScale /
                               // kMaintenance (the cable's forward link)
  double factor = 1.0;         // kCapacityScale / kDemandSurge
  int duration_epochs = 1;     // kDemandSurge / kMaintenance
  int aggregate = -1;          // kDemandSurge; -1 = every aggregate
  int srlg = -1;               // kSrlgDown / kSrlgUp: index into
                               // Scenario::srlgs
  NodeId node = kInvalidNode;  // kNodeDown / kNodeUp
};

// A shared-risk link group: cables that fail together because they share a
// physical risk (one conduit, one amplifier hut, one landing station).
// Members are directed link ids; expansion takes each member's cable — both
// directions via CableLinks — so listing just the forward direction is
// enough. Invalid member ids are skipped at expansion time.
struct Srlg {
  std::string name;
  std::vector<LinkId> links;
};

// A deterministic fault-injection window (PR 6): the named util::Failpoint
// is activated with `spec` at the start of `from_epoch` and deactivated at
// the start of `until_epoch` (half-open, like the epoch loop). Unlike
// ScenarioEvents, faults break the *optimizer*, not the network — the
// controller must degrade through its fallback ladder and, once the window
// closes, reconverge to the fault-free run's placements (the engine drops
// the controller's warm state at window close, so the first clean epoch is
// a cold, bitwise-reproducible solve).
struct FaultWindow {
  std::string failpoint;  // site name, e.g. "lp.iter_limit" (see failpoint.h)
  int from_epoch = 0;
  int until_epoch = 0;
  util::Failpoint::Spec spec;  // hit-count / seeded-probability trigger
};

// A traffic timeline plus events. The aggregate set is fixed for the whole
// scenario (its demand_gbps fields are ignored — demand comes from the
// measured series through Algorithm 1, as in the deployed controller);
// series_100ms[a] is aggregate a's measured rate series at 100 ms bins
// covering all epochs. Epochs beyond a series' end read it as silent:
// segments are zero-padded, so predictions decay toward zero rather than
// holding the last estimate.
struct Scenario {
  std::string name;
  std::vector<Aggregate> aggregates;
  std::vector<std::vector<double>> series_100ms;
  int epochs = 10;
  double epoch_sec = 60;  // controller period; 60 s = the paper's minute
  std::vector<ScenarioEvent> events;
  // Optimizer fault-injection windows (see FaultWindow). Empty for normal
  // scenarios — the engine then touches no failpoint state at all, keeping
  // the determinism contract exactly as before.
  std::vector<FaultWindow> faults;
  // Shared-risk link groups referenced by kSrlgDown/kSrlgUp events.
  std::vector<Srlg> srlgs;

  // Appends the canonical cable-flap event shape: kLinkDown at `down_epoch`
  // and kLinkUp at `up_epoch` for every directed link of `link`'s cable
  // (CableLinks) — a physical cable failure takes both directions.
  void AddLinkFlap(const Graph& graph, LinkId link, int down_epoch,
                   int up_epoch);

  // Registers an SRLG and returns its index (the `srlg` field of
  // kSrlgDown/kSrlgUp events).
  int AddSrlg(std::string srlg_name, std::vector<LinkId> links);

  // Appends a kSrlgDown at `down_epoch` plus the matching kSrlgUp at
  // `up_epoch` for SRLG index `srlg`.
  void AddSrlgOutage(int srlg, int down_epoch, int up_epoch);

  // Appends a kNodeDown at `down_epoch` plus the matching kNodeUp at
  // `up_epoch` for `node`.
  void AddNodeOutage(NodeId node, int down_epoch, int up_epoch);
};

// Builds the constant-rate timeline used by the failure benches and tests:
// each aggregate transmits at its Scenario demand for the whole scenario, so
// event-free epochs are exactly stationary (route churn on them must be 0).
std::vector<std::vector<double>> ConstantScenarioTraffic(
    const std::vector<Aggregate>& aggregates, int epochs, double epoch_sec);

// The inherited record is the LP telemetry of the epoch's solves (the
// controller's RoutingOutcome totals; zero for scheme drivers).
struct ScenarioEpochReport : lp::SolveStats {
  int epoch = 0;
  // An event fired at this epoch, or a demand surge started/expired — i.e.
  // the epoch's inputs differ from the previous epoch's beyond measurement.
  bool event_epoch = false;
  bool warm = false;      // LP re-entered warm (LDR driver only)
  // The LP was repaired in place after a topology event and re-solved via
  // the dual-simplex warm restart (PR 9; LDR driver only). Mutually
  // exclusive with `warm`: epochs are cold / warm / dual-repaired.
  bool dual_repair = false;
  double solve_ms = 0;    // routing computation wall-clock
  int rounds = 0;         // controller optimize/appraise rounds (1 = clean)
  bool multiplex_ok = false;
  size_t failing_links = 0;
  double demand_total_gbps = 0;  // sum of the epoch's demand estimates
  // Optimizer-view metrics (Evaluate against true capacities; stretch
  // denominators use the *current* — masked — topology's shortest paths).
  double congested_fraction = 0;
  double max_stretch = 1;
  double total_stretch = 1;
  size_t overloaded_links = 0;
  // Realized metrics: the epoch's measured segment replayed through the
  // installed placement.
  double worst_queue_ms = 0;
  size_t links_with_queueing = 0;
  // Fraction of (aggregate, PathId) allocation entries — over the union of
  // this epoch's and the previous epoch's — whose fraction changed by more
  // than 1e-9. 0 on the first epoch.
  double route_churn = 0;
  size_t allocations = 0;  // PathAllocation entries installed
  // Order-independent FNV fingerprint of the installed placement: one hash
  // per (aggregate, PathId) key with its total fraction bits, XOR-combined
  // (keys are unique after merging, so entries cannot cancel). Two epochs
  // with equal hashes installed bitwise-identical placements; the
  // determinism and warm-vs-cold parity tests compare these.
  uint64_t allocation_hash = 0;
  // Degradation telemetry (PR 6).
  bool fault_epoch = false;  // inside a Scenario fault window
  // Highest fallback-ladder rung that produced this epoch's placement
  // (LDR driver; always kNone for scheme drivers and clean epochs).
  FallbackRung fallback = FallbackRung::kNone;
  // ValidatePlacement verdict on the installed placement — the soak
  // harness' hard invariant; must be true every epoch, faulted or not.
  bool placement_valid = true;
  // Closed-loop demand telemetry (PR 10; 1 / 0 when the adaptive model is
  // off): the smallest per-aggregate demand scale in effect this epoch, and
  // how many aggregates backed off *at the end of it* in response to the
  // epoch's realized queueing.
  double demand_scale_min = 1.0;
  size_t backoff_aggregates = 0;
};

struct ScenarioEventReport {
  ScenarioEvent event;
  // Epochs from the event until the controller regained a clean placement
  // (multiplex_ok — always true for non-LDR drivers — and no congested
  // aggregate): 0 = the event's own epoch recovered. -1 = never within the
  // scenario.
  int reconverge_epochs = -1;
  // Reconvergence latency: sum of solve_ms from the event's epoch through
  // the epoch that regained the clean placement (inclusive) — the wall
  // clock the controller spent reacting, not just how many epochs it took.
  // -1 when the scenario never reconverged.
  double reconverge_ms = -1;
};

struct ScenarioReport {
  std::string scenario;
  std::string driver;  // "LDR" or the scheme id
  std::vector<ScenarioEpochReport> epochs;
  std::vector<ScenarioEventReport> events;
  // Warm / dual-repaired / cold epoch split. Cold = LP rebuilt from
  // scratch: the first epoch and the canonicalization epoch after a repair
  // — or all epochs when incremental is off. Dual-repaired = the LP was
  // fixed in place after a topology event.
  size_t warm_epochs = 0;
  size_t cold_epochs = 0;
  size_t dual_repair_epochs = 0;
  double warm_solve_ms_total = 0;
  double cold_solve_ms_total = 0;
  double dual_repair_solve_ms_total = 0;
  size_t ksp_evictions = 0;  // generators evicted by LinkDown invalidation

  // Degradation telemetry (PR 6). fallback_counts[r] = epochs whose
  // placement came from FallbackRung r (index 0 counts clean epochs);
  // clean_fallback_epochs counts rungs firing OUTSIDE any fault window —
  // the bench asserts it stays 0 (faults, not load, trigger the ladder).
  std::array<size_t, 5> fallback_counts{};
  size_t clean_fallback_epochs = 0;
  // Scenario-input validation (PR 6): events skipped as redundant (LinkDown
  // on an already-masked link / LinkUp on a link that is up), dropped by
  // the scenario.drop_event failpoint, or rejected by EventValid (bad link
  // id, epoch outside the timeline, non-finite or non-positive surge or
  // capacity factor).
  size_t redundant_events = 0;
  size_t dropped_events = 0;
  size_t invalid_events = 0;

  // Median solve_ms over warm / cold *event-free, fault-free* epochs (the
  // comparable populations: event epochs pay re-optimization work on top of
  // the LP temperature, fault epochs pay ladder retries). 0 when the
  // population is empty.
  double WarmSolveMsMedian() const;
  double ColdSolveMsMedian() const;
  // Max route_churn over event-free, fault-free epochs (>0 means placements
  // drift without operational cause).
  double EventFreeChurnMax() const;

  // Survivability telemetry (PR 10) — the per-campaign quantities the
  // survivability bench aggregates.
  //
  // Fraction of epochs with a *clean* placement: installed placement valid
  // and no aggregate congested. 1.0 on an undisturbed run; every epoch a
  // correlated failure pushes into congestion or ladder territory lowers it.
  double Availability() const;
  // Highest fallback-ladder rung that produced any epoch's placement.
  FallbackRung MaxFallbackRung() const;
  // reconverge_epochs of every applied event, in event order (-1 entries =
  // never reconverged within the scenario) — the reconvergence distribution.
  std::vector<int> ReconvergeEpochs() const;
  // Worst optimizer-view congestion across epochs (max congested_fraction).
  double WorstCongestedFraction() const;
  // Worst realized queueing across epochs (max worst_queue_ms).
  double WorstQueueMs() const;
};

// True when two runs of the same scenario installed bitwise-identical
// placements every epoch (allocation_hash equality throughout) — the
// warm-vs-cold A/B contract checked by fig21 and bench_to_json's scenario
// and lp_dual sections: one definition, so the figure and the JSON cannot
// drift.
// Dual-repaired epochs (PR 9) are exempt in either report: their placement
// comes from the in-place LP's history-dependent path sets; the
// canonicalization epoch after them rebuilds cold and is compared bitwise.
bool PlacementParity(const ScenarioReport& a, const ScenarioReport& b);

// Closed-loop demand model (PR 10): aggregates react to the *realized*
// queueing the replay measures, instead of following the fixed timeline.
// CUBIC-shaped (the TCP congestion-avoidance curve): an aggregate whose
// paths saw queueing beyond kQueueThresholdMs last epoch multiplicatively
// backs its sending scale off by kBeta (remembering the scale that
// congested as w_max), then probes back along the cubic curve
// w(t) = c * (t - K)^3 + w_max with K = cbrt(w_max * (1 - beta) / c) —
// concave recovery toward w_max, then convex probing beyond it, capped at
// the full offered rate (scale 1). Off by default: the fixed-timeline
// benches and their stationarity invariants (EventFreeChurnMax == 0) are
// untouched. Fully deterministic — the scale update is a pure function of
// the epoch's replay, so campaign replays stay bitwise-identical.
struct AdaptiveDemandOptions {
  static constexpr double kBeta = 0.7;     // multiplicative backoff factor
  static constexpr double kCubicC = 0.05;  // scale / epoch^3 aggressiveness
  static constexpr double kQueueThresholdMs = 1;  // congestion signal
  static constexpr double kFloor = 0.1;    // scale never drops below this

  bool enabled = false;
};

struct ScenarioEngineOptions {
  // Empty: drive the full LDR controller loop. Otherwise a MakeScheme id
  // ("SP", "B4", ...) re-routed from scratch each epoch on the same
  // predicted demands — the comparison drivers of the failure benches.
  std::string scheme_id;
  // false: drop the warm LP before every epoch, so each one rebuilds cold —
  // the single cold reference the parity tests and BENCH_lp.json compare
  // the default run against (PlacementParity).
  bool incremental = true;
  AdaptiveDemandOptions adaptive;
};

class ScenarioEngine {
 public:
  // Copies the topology's graph: events mutate it (masking, capacity), and
  // the scenario must not bleed into the caller's instance.
  ScenarioEngine(const Topology& topology, Scenario scenario,
                 ScenarioEngineOptions opts = {});
  ~ScenarioEngine();

  // Runs the whole scenario. One call per engine.
  ScenarioReport Run();

  // The engine's working topology (post-run: final event state).
  const Graph& graph() const { return graph_; }

 private:
  bool EventValid(const ScenarioEvent& ev) const;
  // The directed links a link-group event masks or restores (deduplicated;
  // empty for surge/capacity events). Singleton link events stay single-
  // direction — AddLinkFlap already emits both directions as two events.
  std::vector<LinkId> EventLinks(const ScenarioEvent& ev) const;
  // Masks (`down`) or restores every link of the group atomically, then
  // delivers ONE batched delta to the driver (LdrController::OnLinksDown /
  // OnLinksUp, or grouped KSP invalidation for scheme drivers).
  void ApplyMask(const std::vector<LinkId>& links, bool down);
  std::vector<std::vector<double>> EpochSegment(int epoch) const;
  // End-of-epoch closed-loop demand update (see AdaptiveDemandOptions):
  // attributes the replay's per-link queueing to the aggregates whose paths
  // cross those links and moves each aggregate's scale along the CUBIC
  // curve. Returns how many aggregates backed off.
  size_t UpdateAdaptiveDemand(const ReplayResult& replay,
                              const RoutingOutcome& outcome);

  Scenario scenario_;
  ScenarioEngineOptions opts_;
  Graph graph_;
  KspCache cache_;
  std::unique_ptr<LdrController> controller_;   // LDR driver
  std::unique_ptr<RoutingScheme> scheme_;       // scheme driver
  std::vector<MeanRatePredictor> predictors_;   // scheme driver's Algorithm 1
  // Shortest delays from the aggregates' sources (the rows Evaluate reads),
  // refreshed on mask changes.
  std::vector<double> sp_delay_ms_;
  bool sp_dirty_ = true;
  size_t scheme_ksp_evictions_ = 0;  // scheme driver's LinkDown evictions
  // Closed-loop demand state (AdaptiveDemandOptions; empty when disabled).
  std::vector<double> demand_scale_;     // current per-aggregate scale
  std::vector<double> cubic_wmax_;       // scale at the last congestion
  std::vector<int> cubic_epochs_;        // epochs since the last backoff
};

}  // namespace ldr

#endif  // LDR_SIM_SCENARIO_ENGINE_H_
