// The Fig. 12 linear program and the Fig. 13 iterative path-growth loop —
// the optimization machinery shared by the latency-optimal scheme, LDR, and
// the MinMax baselines.
//
// Fig. 12 (LDR mode):
//   min  sum_a n_a sum_{p in Pa} x_ap (d_p + d_p M1 / S_a)
//        + M2 * Omax + sum_l O_l
//   s.t. sum_a sum_{p ni l} x_ap B_a <= C_l O_l      (per-link overload)
//        1 <= O_l <= Omax                            (max overload)
//        sum_p x_ap = 1                              (all traffic routed)
//
// MinMax mode replaces the overload variables with a single max-utilization
// variable U >= 0 minimized first (capacity rows become load <= C_l * U) and
// keeps the delay term only as a tie-break — the TeXCP/MATE objective.
//
// Fig. 13: each aggregate starts with only its shortest path; after each LP
// solve, aggregates crossing maximally-overloaded (or maximally-utilized)
// links get their next-shortest path appended, and the LP is re-solved.
// Aggregates whose list has a single path never enter the LP at all: their
// placement is forced, so their load is folded into link constants. This is
// what keeps the LPs small on large path-diverse networks (§5).
#ifndef LDR_ROUTING_LP_ROUTING_H_
#define LDR_ROUTING_LP_ROUTING_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/ksp.h"
#include "lp/lp.h"
#include "routing/scheme.h"
#include "tm/traffic_matrix.h"

namespace ldr {

struct RoutingLpOptions {
  RoutingLpOptions() { solve.warm_restart = true; }

  // Fraction of every link's capacity reserved (the §4 headroom dial).
  double headroom = 0.0;
  // MinMax mode: minimize max utilization first, delay as tie-break.
  bool minmax = false;
  // §8 differentiated classes: multiplier applied to the delay weight of
  // aggregates in each traffic class (class c uses class_weights[c], or the
  // last entry when c is out of range). With {10, 1}, class-0 traffic wins
  // contended short paths over class-1 traffic. Empty = all classes equal.
  std::vector<double> class_weights;
  // Options of the underlying lp::Solver: pricing list sizes, per-solve
  // budgets (max_iters, deadline_ms — the controller's epoch decision guard; a
  // budget-exhausted solve comes back !ok() and the caller walks the
  // fallback ladder) and warm restarts across topology events. The routing
  // default turns warm_restart on: the controller keeps the incremental LP
  // alive through LinkDown/LinkUp/CapacityScale, repairs it in place, and
  // the solver re-enters via dual simplex when the warm basis is
  // primal-infeasible-but-dual-feasible. Off, topology events drop the LP
  // for a cold rebuild (the baseline arm).
  lp::SolveOptions solve;
};

// Result of one LP solve over explicit path sets.
struct RoutingLpResult {
  // The lp::Solver verdict — kIterLimit/kDeadline must never be consumed
  // as optimal; fractions and levels are filled only when ok().
  lp::Status status = lp::Status::kIterLimit;
  // fractions[a][p] for the paths passed in; aggregates with one path get
  // the implicit fraction 1.
  std::vector<std::vector<double>> fractions;
  // LDR mode: max overload (>= 1; > 1 means congestion unavoidable with
  // these path sets). MinMax mode: max utilization (>= 0).
  double omax = 0;
  // Per-link overload/utilization implied by the solution (same scale as
  // omax), indexed by LinkId.
  std::vector<double> link_level;
  // Simplex telemetry from this solve (see lp::Solution): how many nonbasic
  // columns were priced and how many iterations ran.
  long columns_priced = 0;
  int iterations = 0;
  // Revised-simplex telemetry (see lp::Solution): basis-changing pivots,
  // sparse nonzeros fed through FTRAN, and the resident bytes of the
  // solver's factorized state (L/U + update file).
  int pivots = 0;
  long ftran_nnz = 0;
  size_t basis_bytes = 0;
  // Sparse-LU telemetry (see lp::Solution).
  long lu_nnz = 0;
  int eta_count = 0;
  double fill_ratio = 0;
  int refactorizations = 0;
  // Tiny-pivot events the solver survived by forcing a refactorization
  // (see lp::Solution::pivot_recoveries; nonzero means the instance is
  // numerically near-degenerate and worth a look).
  int pivot_recoveries = 0;
  // Warm-restart telemetry (see lp::Solution): dual-simplex pivots run
  // repairing a primal-infeasible warm basis, bound-to-bound flips of boxed
  // variables, and whether this solve entered the dual restart at all.
  int dual_pivots = 0;
  int bound_flips = 0;
  bool warm_restart = false;

  bool ok() const { return status == lp::Status::kOptimal; }
};

// The Fig. 12 LP builder: keeps one lp::Solver alive across Fig. 13 rounds.
// Each Solve(paths) call appends only what changed since the last call — new
// path columns for grown aggregates, capacity rows for newly used links,
// equality rows (and removed fixed load) for aggregates whose path list grew
// past one — then re-solves warm from the previous optimal basis. A fresh
// instance solved once is the cold build of the same LP. The path sets are
// interned ids into `store` (delays cached at intern time; LP columns are
// keyed by PathId, making column identity exact across epochs that
// rediscover the same path).
class IncrementalRoutingLp {
 public:
  IncrementalRoutingLp(const PathStore& store,
                       const std::vector<Aggregate>& aggregates,
                       const RoutingLpOptions& opts);

  // `paths` must grow append-only relative to the previous call (the Fig. 13
  // discipline).
  RoutingLpResult Solve(const std::vector<std::vector<PathId>>& paths);

  // Re-targets demand estimates for the same aggregate set (only demand_gbps
  // may differ) — the controller's headroom rounds. Deltas are pushed into
  // the live solver; basic columns trigger a lazy refactorization instead of
  // a rebuild.
  void UpdateDemands(const std::vector<Aggregate>& aggregates);

  // Drops the live solver's factorization so the next Solve() re-establishes
  // it from the exact sparse columns (a fresh Markowitz LU by default) — the
  // degradation ladder's rung 1 repair for drift-induced solve failures.
  void ForceRefactorize() { solver_.Invalidate(); }

  // Marks the mirrored topology stale after a LinkDown/LinkUp/CapacityScale
  // event: the next Solve() repairs the live LP in place — path variables
  // crossing masked links are fixed to zero (and released when the link
  // returns), capacity-row coefficients are re-synced — instead of the
  // whole incremental state being discarded for a cold rebuild.
  void MarkTopologyDirty() { topology_dirty_ = true; }
  bool topology_dirty() const { return topology_dirty_; }

 private:
  double Weight(size_t a) const;
  void EnsureLinkRows();
  void RepairTopology();

  const PathStore* store_;
  const Graph* g_;
  RoutingLpOptions opts_;
  std::vector<Aggregate> aggs_;
  lp::Solver solver_;
  bool init_ = false;
  double cap_scale_ = 1.0;
  double weight_denom_ = 1.0;
  int omax_var_ = -1;
  // Per aggregate.
  std::vector<size_t> npaths_;                  // paths synced so far
  std::vector<std::vector<int>> xvar_;          // path-fraction variables
  std::vector<int> eq_row_;                     // sum(x) == 1 row, -1 if fixed
  std::vector<std::vector<PathId>> paths_;      // mirror of synced paths
  bool topology_dirty_ = false;
  // Per link.
  std::vector<double> fixed_load_;
  std::vector<int> link_row_;                   // capacity row, -1 if unused
  std::vector<int> olvar_;                      // overload var (LDR mode)
  // Capacity (after headroom scaling) each existing capacity row was built
  // with — the delta a CapacityScale repair must push into the row.
  std::vector<double> applied_cap_;
  // (variable, aggregate) pairs crossing each link, for deferred row
  // creation; demand is read from aggs_ at creation time.
  std::vector<std::vector<std::pair<int, size_t>>> link_vars_;
};

// Warm-start state reusable across IterativeLpRoute calls on the same
// (graph, aggregate set) — RunLdrController's headroom rounds re-enter with
// scaled demands instead of rebuilding the LP and path sets from scratch.
struct LpReuseContext {
  std::unique_ptr<IncrementalRoutingLp> lp;
  std::vector<std::vector<PathId>> paths;  // grown sets from last call
};

struct IterativeOptions {
  RoutingLpOptions lp;
  int max_rounds = 40;
  // Paths seeded per aggregate before the first solve (MinMaxK10 uses 10).
  size_t initial_paths = 1;
  // Disable growth for fixed-path-set schemes (MinMaxK10).
  bool grow = true;
};

// The Fig. 13 loop: one IncrementalRoutingLp, re-solved warm after every
// growth round. Uses (and fills) the KspCache. With `reuse`, the LP and
// grown path sets persist across calls (see LpReuseContext); a null reuse
// keeps the call self-contained.
RoutingOutcome IterativeLpRoute(const Graph& g,
                                const std::vector<Aggregate>& aggregates,
                                KspCache* cache, const IterativeOptions& opts,
                                LpReuseContext* reuse = nullptr);

// Latency-optimal routing (paper Fig. 4(a)): LDR-mode iterative LP with a
// chosen headroom. Exposed as a RoutingScheme.
class LatencyOptimalScheme : public RoutingScheme {
 public:
  LatencyOptimalScheme(const Graph* g, KspCache* cache, double headroom = 0,
                       std::string display_name = "");
  std::string name() const override { return name_; }
  RoutingOutcome Route(const std::vector<Aggregate>& aggregates) override;

  // Tuning access (e.g. §8 class weights, path-growth caps).
  IterativeOptions& options() { return opts_; }

 private:
  const Graph* g_;
  KspCache* cache_;
  IterativeOptions opts_;
  std::string name_;
};

// MinMax (TeXCP/MATE-style). k == 0 grows path sets adaptively ("pure"
// MinMax); k > 0 uses the fixed k shortest paths (the paper's MinMaxK10).
class MinMaxScheme : public RoutingScheme {
 public:
  MinMaxScheme(const Graph* g, KspCache* cache, size_t k = 0);
  std::string name() const override { return name_; }
  RoutingOutcome Route(const std::vector<Aggregate>& aggregates) override;

 private:
  const Graph* g_;
  KspCache* cache_;
  size_t k_;
  std::string name_;
};

// Max-utilization of a placement produced by MinMax with unrestricted paths;
// used to scale traffic matrices to a target load (§3: "the min-cut has 23%
// headroom") and for the Fig. 17 load sweep.
double MinMaxUtilization(const Graph& g,
                         const std::vector<Aggregate>& aggregates,
                         KspCache* cache);

}  // namespace ldr

#endif  // LDR_ROUTING_LP_ROUTING_H_
