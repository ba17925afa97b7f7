// A from-scratch linear-program solver with incremental re-solve support.
//
// The paper relies on an LP solver in three places: the Fig. 12 latency
// optimization at LDR's core, the MinMax traffic-engineering baselines, and
// the locality extension of the gravity traffic-matrix model (§3, footnote
// 3). No solver is available offline, so this module implements a
// *bounded-variable* primal simplex:
//
//   minimize    c^T x
//   subject to  row_i: a_i^T x (<= | >= | =) b_i     for each row
//               lo_j <= x_j <= hi_j                  for each variable
//
// Bounds may be infinite on either side. Phase 1 uses the composite
// (artificial-free) objective — the sum of bound violations of basic
// variables — and phase 2 the real objective; both use candidate-list
// pricing (see PricingOptions) with a Bland's-rule fallback after a run of
// degenerate pivots, which guarantees termination.
//
// Two entry points:
//
//   * Solve(problem): one-shot solve of an immutable Problem description.
//   * Solver: a long-lived object that keeps its factorized basis and bound
//     state alive across calls.
//
// Storage contract: the solver holds the *sparse original* columns A_j plus
// a sparse LU factorization of the basis matrix B itself — never an explicit
// B^-1, and never a working tableau B^-1·A. The factorization is a
// Markowitz-ordered elimination PB = LU kept as compact row-operation (L)
// and row-of-U arrays, plus a bounded *update file* of product-form
// operations appended between refactorizations: one eta per simplex pivot
// (the FTRAN-ed entering column, Forrest–Tomlin style) and one row-extension
// per AddRow (the bordered [[B,0],[wᵀ,1]] growth). FTRAN (B·x = a, the
// entering column) and BTRAN (Bᵀ·y = c, dual maintenance and the post-pivot
// inverse-row read) are sparse triangular solves through L, U and a replay
// of the file — ~O(nnz(L+U) + nnz(file)) per solve and ~O(nnz) resident
// memory. Pricing runs off incrementally maintained duals: a structural
// column is only ever FTRAN-ed when it enters. Refactorize() rebuilds L and
// U from the exact sparse basis columns with Markowitz pivoting
// (threshold-stability guarded, singular bases repaired by slack
// substitution), clears the file, and is triggered by `refactor_interval`,
// by the eta file outgrowing its bound, or forced by numerical recovery — so
// both drift *and* update-file memory stay bounded. The structural deltas
// the Fig. 13 path-growth loop needs stay cheap: AddColumn is O(1) (the new
// column rests nonbasic), AddRow appends one file op, AddToRow/SetRhs cost
// one FTRAN. Solve() warm-starts primal simplex from the previous optimal
// basis (typically a handful of pivots instead of a full cold solve). A
// basis that was optimal before and that bound/rhs repair (FixVariable,
// SetBounds, SetRhs) left primal infeasible but dual feasible is instead
// pivoted straight back with dual simplex; the Bland-guarded primal phase 1
// takes over if the dual loop loses feasibility or progress.
#ifndef LDR_LP_LP_H_
#define LDR_LP_LP_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace ldr::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class RowType { kLe, kGe, kEq };

enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit };

std::string ToString(Status s);

// A sparse constraint row.
struct Row {
  RowType type = RowType::kLe;
  double rhs = 0;
  std::vector<std::pair<int, double>> coeffs;  // (variable index, coefficient)
};

// Incrementally built LP. Variables are referenced by the dense index that
// AddVariable returns.
class Problem {
 public:
  // Adds a variable with bounds [lo, hi] and objective coefficient `obj`
  // (minimization). Returns the variable's index.
  int AddVariable(double lo, double hi, double obj);

  // Adds `delta` to an existing variable's objective coefficient.
  void AddToObjective(int var, double delta) { obj_[static_cast<size_t>(var)] += delta; }

  // Adds a constraint row; coefficients with repeated variable indices are
  // summed.
  void AddRow(RowType type, double rhs,
              std::vector<std::pair<int, double>> coeffs);

  size_t VariableCount() const { return obj_.size(); }
  size_t RowCount() const { return rows_.size(); }

  const std::vector<double>& objective() const { return obj_; }
  const std::vector<double>& lower_bounds() const { return lo_; }
  const std::vector<double>& upper_bounds() const { return hi_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<double> obj_;
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<Row> rows_;
};

// Entering-variable pricing. Reduced costs are always computed from
// incrementally maintained dual values y = c_B^T B^-1 (phase 2) or the
// phase-1 subgradient duals, priced lazily against the *sparse original*
// column as c_j - y^T A_j — never against the dense tableau column. A
// bounded candidate list is re-priced each iteration; when it runs dry,
// rotating partial sweeps refresh it, escalating to a full sweep only to
// prove optimality. That prices O(list * nnz) columns per iteration instead
// of all n + m.
struct PricingOptions {
  // Candidate-list capacity. 0 means automatic: clamp(n/16, 8, 64).
  int candidate_list = 0;
  // Columns scanned per partial refresh sweep before checking whether the
  // sweep found anything. 0 means automatic: max(128, (n + m) / 8).
  int sweep = 0;
};

// Update-file bounds (see the storage contract above): mid-solve
// refactorization triggers, both disabled along with the drift guard when
// refactor_interval < 0. The op cap's 0 means automatic: max(64, rows / 2);
// the entry cap is always max(1024, 8 * nnz(L+U)).
struct BasisOptions {
  int max_file_ops = 0;
};

struct SolveOptions {
  // 0 means automatic: 200 + 40 * (rows + variables).
  int max_iters = 0;
  PricingOptions pricing;
  BasisOptions basis;
  // Periodic refactorization for long-lived solvers (controller epochs):
  // once this many incremental updates — pivots plus structural mutations
  // folded into the factorization — have accumulated since the last exact
  // factorization, the next Solve() refactorizes the recorded basis from the
  // exact sparse columns before optimizing, bounding floating-point drift.
  // 0 means max(256, 8 * rows). Negative disables the guard.
  int refactor_interval = 0;
};

// Simplex telemetry of one solve, or of many folded together with Merge().
// Every layer that reports LP work (Solution, RoutingLpResult,
// RoutingOutcome, the scenario epoch report) derives from this one record,
// so a field added here reaches all of them with no copy to write.
struct SolveStats {
  // Pricing load: nonbasic columns whose reduced cost was evaluated
  // (candidate re-pricing + refresh sweeps + optimality sweeps).
  // lp_columns_priced / lp_iterations is the per-iteration load the
  // candidate list exists to shrink below the n + m a full sweep prices.
  long lp_columns_priced = 0;
  long lp_iterations = 0;
  // Basis-changing pivots (iterations minus bound flips); each costs one
  // eta append + one BTRAN.
  long lp_pivots = 0;
  // Sparse input nonzeros fed through FTRAN (entering-column solves
  // B^-1·A_j).
  long lp_ftran_nnz = 0;
  // Resident bytes of the factorized state (L/U arrays plus the update
  // file) at the end of a solve; merged records keep the peak.
  size_t lp_basis_bytes = 0;
  // Stored nonzeros in L + U (pivots included) after the last sparse
  // refactorization; merged records keep the peak.
  long lp_lu_nnz = 0;
  // Update-file operations (etas + row extensions) resident at the end of a
  // solve — bounded by the eta-file refactorization triggers; merged
  // records keep the peak.
  int lp_eta_count = 0;
  // lp_lu_nnz / nnz(B) at the last sparse refactorization: the Markowitz
  // fill-in factor (1.0 = no fill); merged records keep the peak.
  double lp_fill_ratio = 0;
  // Full refactorizations (interval/drift triggers, eta-file bounds, and
  // numerical recoveries).
  int lp_refactorizations = 0;
  // Pivots that hit a numerically-zero pivot element and recovered by
  // forced refactorization instead of corrupting the basis; nonzero flags a
  // numerically near-degenerate instance.
  int lp_pivot_recoveries = 0;
  // Dual-simplex pivots run repairing a primal-infeasible warm basis (0 for
  // every primal-only solve).
  long lp_dual_pivots = 0;
  // Boxed nonbasic variables flipped bound-to-bound: primal ratio-test flips
  // plus the dual long-step flips.
  long lp_bound_flips = 0;
  // Solves that entered the dual-simplex warm restart instead of primal
  // phase 1 (0 or 1 for a single solve).
  int lp_warm_restart = 0;

  // Folds another record in: counters add, the four peaks (basis bytes, LU
  // nnz, eta count, fill ratio) take the max.
  void Merge(const SolveStats& o);
};

struct Solution : SolveStats {
  Status status = Status::kInfeasible;
  double objective = 0;
  std::vector<double> values;  // one per variable; empty unless optimal

  bool ok() const { return status == Status::kOptimal; }
};

// A reusable simplex instance. The problem is grown in place through the
// mutation calls below; every Solve() re-optimizes warm from the basis the
// previous Solve() ended in. Mutations keep the factorization alive where
// they can (new columns join nonbasic without touching B^-1; new rows
// extend the basis with their own slack); the ones that would invalidate it
// (touching a basic variable's constraint coefficients) just mark the basis
// for refactorization at the next Solve().
class Solver {
 public:
  explicit Solver(const SolveOptions& options = {});
  // Loads an existing Problem description (equivalent to replaying its
  // variables and rows through AddColumn/AddRow).
  explicit Solver(const Problem& p, const SolveOptions& options = {});
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  // Adds a variable with no constraint coefficients yet. Returns its index.
  int AddVariable(double lo, double hi, double obj);

  // Adds a variable together with its coefficients in *existing* rows
  // ((row index, coefficient) pairs; duplicates are summed). The new column
  // enters nonbasic at its bound nearest zero, so a previously optimal basis
  // stays primal feasible — this is the warm path the Fig. 13 loop hits when
  // it appends path columns. O(1) beyond storing the sparse column: with no
  // working tableau there is nothing to price the column into (an FTRAN runs
  // only if the resting bound is nonzero, to adjust the basic values).
  int AddColumn(double lo, double hi, double obj,
                const std::vector<std::pair<int, double>>& row_coeffs);

  // Adds a constraint row over existing variables ((variable index,
  // coefficient) pairs; duplicates are summed). Returns the row's index.
  // The row's slack joins the basis, so no refactorization is needed.
  int AddRow(RowType type, double rhs,
             const std::vector<std::pair<int, double>>& coeffs);

  // Adds `delta` to an existing row's coefficient on an existing variable.
  // Cheap while `var` is nonbasic; marks the basis for refactorization
  // otherwise.
  void AddToRow(int row, int var, double delta);

  // Replaces a row's right-hand side in place, pushing the delta into the
  // basic values; the basis is preserved (how fixed load moves in and out
  // of the routing LP's capacity rows).
  void SetRhs(int row, double rhs);

  // Overwrites a variable's bounds in place, preserving the basis. A
  // nonbasic variable is re-rested at the finite bound nearest its previous
  // value and the shift is pushed into the basic values (one FTRAN); a
  // basic one just takes the new bounds — a violation this creates is
  // repaired by the next Solve() (dual simplex while the basis stays dual
  // feasible, primal phase 1 otherwise).
  void SetBounds(int var, double lo, double hi);

  // Fixes a variable at `value` (lo = hi = value) without touching the
  // basis — SetBounds sugar, and the topology-repair entry point: path
  // variables crossing a failed link get fixed to zero in place of an LP
  // rebuild.
  void FixVariable(int var, double value);

  // Adds `delta` to a variable's objective coefficient.
  void AddToObjective(int var, double delta);

  // Re-optimizes from the current basis: dual simplex when a once-optimal
  // basis is primal infeasible (e.g. after SetRhs) but dual feasible,
  // two-phase primal otherwise.
  Solution Solve();

  // Drops the factorization; the next Solve() re-establishes it (a fresh
  // Markowitz LU) from the sparse columns under the current basis. Exposed
  // for tests.
  void Invalidate();

  // Row duals y = B^-T c_B of the current basis, one per row, from a fresh
  // BTRAN through the live factorization: the reduced cost of structural j
  // is c_j - yᵀA_j and that of row k's slack is -y_k. Meaningful right after
  // an optimal Solve(); empty when the factorization has been dropped.
  // Computed on demand (no solve pays for it) and read-only: it touches only
  // scratch buffers, so later solves run bit for bit as without the call.
  std::vector<double> RowDuals();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

Solution Solve(const Problem& problem, const SolveOptions& options = {});

}  // namespace ldr::lp

#endif  // LDR_LP_LP_H_
