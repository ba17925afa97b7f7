// Common vocabulary for routing / traffic-engineering schemes.
//
// A scheme maps a set of traffic aggregates onto paths: the outcome is, per
// aggregate, a set of (path, fraction) allocations summing to 1. Paths are
// PathId handles into the PathStore the scheme routed through (its
// KspCache's arena) — allocations are two machine words, not owning link
// vectors, so fanning a topology's thousands of corpus instances through
// schemes no longer deep-copies path data. Schemes are constructed per
// topology (holding the Graph and a shared KspCache, which amortizes Yen's
// algorithm across schemes and traffic matrices exactly as the paper's LDR
// caches k-shortest paths).
#ifndef LDR_ROUTING_SCHEME_H_
#define LDR_ROUTING_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/path_store.h"
#include "lp/lp.h"
#include "tm/traffic_matrix.h"

namespace ldr {

struct PathAllocation {
  PathId path = kInvalidPathId;  // resolve via RoutingOutcome::store
  double fraction = 0;           // of the aggregate's demand
};

// The graceful-degradation ladder (PR 6). When the LP pipeline cannot
// produce a clean optimal placement for an epoch, the stack walks these
// rungs in order and records the highest one that fired. Ordering matters:
// later rungs serve strictly staler/coarser placements, so comparisons
// (std::max over rounds) pick the worst degradation an epoch suffered.
enum class FallbackRung : uint8_t {
  kNone = 0,           // clean optimal solve
  kRetryRefactor = 1,  // forced exact refactorization + warm retry succeeded
  kColdRebuild = 2,    // fresh IncrementalRoutingLp over the same paths
  kLastPlacement = 3,  // previous epoch's placement, pruned + renormalized
  kShortestPath = 4,   // emergency: everything on its shortest path
};

const char* ToString(FallbackRung rung);

// The inherited record is the simplex telemetry of every LP solve that ran
// to produce the outcome (all rounds, failed attempts and fallback-ladder
// retries included), merged with lp::SolveStats::Merge; zero for non-LP
// schemes.
struct RoutingOutcome : lp::SolveStats {
  // The arena the allocation PathIds index into. Outlives the outcome for
  // scheme-produced results (it belongs to the scheme's KspCache);
  // hand-built outcomes (tests, replay harnesses) must point this at the
  // store they interned into.
  const PathStore* store = nullptr;
  // Parallel to the input aggregate vector. An empty inner vector means the
  // scheme could not place the aggregate at all (disconnected pair).
  std::vector<std::vector<PathAllocation>> allocations;
  // Scheme's own belief that it fit all traffic within the capacities it was
  // given (after headroom scaling). Congestion is judged separately against
  // true capacities by sim::Evaluate.
  bool feasible = true;
  int lp_rounds = 0;       // path-growth rounds that ran (LP schemes)
  // LP schemes with an LpReuseContext: true when this call re-entered the
  // previous call's live solver with demand deltas instead of rebuilding —
  // set by the one place that makes that decision (IterativeLpRoute), so
  // warm/cold telemetry upstream cannot drift from the actual behavior.
  bool reused_warm = false;
  // True when this call repaired a live LP in place after a topology event
  // (IncrementalRoutingLp::MarkTopologyDirty) instead of rebuilding cold.
  bool topology_repaired = false;
  double solve_ms = 0;     // wall-clock of the routing computation
  // LP schemes: final max overload (LDR mode, >= 1) or max utilization
  // (MinMax mode, >= 0) against headroom-scaled capacities.
  double max_level = 0;
  // Degradation telemetry (PR 6): highest fallback-ladder rung that fired
  // while producing this outcome, and how many LP solves came back
  // non-optimal along the way (0 / kNone on a clean epoch).
  FallbackRung fallback = FallbackRung::kNone;
  int lp_failures = 0;
};

class RoutingScheme {
 public:
  virtual ~RoutingScheme() = default;
  virtual std::string name() const = 0;
  virtual RoutingOutcome Route(const std::vector<Aggregate>& aggregates) = 0;
};

// Per-aggregate mean delay (ms): sum of fraction-weighted path delays
// (cached in the store, so this touches no link data).
double AggregateDelayMs(const PathStore& store,
                        const std::vector<PathAllocation>& allocation);

}  // namespace ldr

#endif  // LDR_ROUTING_SCHEME_H_
