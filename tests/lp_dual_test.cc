// PR 9 coverage for the dual-simplex warm restart: a previously optimal
// basis left primal-infeasible by bound/rhs repair (FixVariable, SetBounds,
// SetRhs — the topology-delta entry points) is pivoted straight back to
// optimality with dual steps instead of primal phase 1 + phase 2.
//
// Covered here:
//  - the entry truth table (cold first solve / primal feasible mutation /
//    repair under a dual-feasible basis / dual feasibility lost / genuinely
//    infeasible repair);
//  - dual ratio-test ties and degenerate (zero-length) dual steps;
//  - randomized bound/rhs-perturbation parity against from-scratch cold
//    solves, every optimum KKT-certified;
//  - the lp.dual_infeasible failpoint forcing the primal fallback.
//
// The parity suite runs with the failpoint disarmed and armed: armed,
// every repair takes primal phase 1, so the same randomized sequence
// covers that fallback too.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "bench/lp_shapes.h"
#include "lp/lp.h"
#include "tests/kkt.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace ldr::lp {
namespace {

// min x0 + x1  s.t.  x0 + x1 >= rhs,  x in [0, 4] — the smallest LP whose
// rhs repair leaves a previously optimal basis primal infeasible.
struct TinyLp {
  Solver solver;
  int x0 = -1;
  int x1 = -1;
  int row = -1;
};

TinyLp MakeTiny() {
  TinyLp t;
  t.x0 = t.solver.AddColumn(0, 4, 1.0, {});
  t.x1 = t.solver.AddColumn(0, 4, 1.0, {});
  t.row = t.solver.AddRow(RowType::kGe, 2.0, {{t.x0, 1.0}, {t.x1, 1.0}});
  return t;
}

// --- entry truth table ------------------------------------------------------

TEST(LpDualEntry, ColdFirstSolveNeverEntersDual) {
  // ever-optimal gate: with no previously certified basis the first solve
  // takes the primal path.
  TinyLp t = MakeTiny();
  Solution s0 = t.solver.Solve();
  ASSERT_TRUE(s0.ok());
  EXPECT_FALSE(s0.lp_warm_restart);
  EXPECT_EQ(s0.lp_dual_pivots, 0);
}

TEST(LpDualEntry, PrimalFeasibleMutationSkipsDual) {
  // AddColumn keeps the basis primal feasible (the Fig. 13 growth path);
  // there is nothing for dual simplex to repair.
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.AddColumn(0, 4, 0.5, {{t.row, 1.0}});
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 1.0, 1e-6);  // the cheap new column takes over
  EXPECT_FALSE(s1.lp_warm_restart);
  EXPECT_EQ(s1.lp_dual_pivots, 0);
}

TEST(LpDualEntry, RhsRepairEntersDualAndRecoversOptimality) {
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 5.0);
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 5.0, 1e-6);
  EXPECT_TRUE(s1.lp_warm_restart);
  EXPECT_GT(s1.lp_dual_pivots, 0);
}

TEST(LpDualEntry, LostDualFeasibilityFallsBackToPrimal) {
  // An objective mutation that makes a nonbasic column attractive breaks
  // dual feasibility; the pre-entry sweep must detect it and hand the
  // repair to primal phase 1 — still ending optimal.
  TinyLp t = MakeTiny();
  Solution s0 = t.solver.Solve();
  ASSERT_TRUE(s0.ok());
  // The variable resting at 0 is nonbasic; make it strongly attractive.
  int nb = s0.values[static_cast<size_t>(t.x0)] < 0.5 ? t.x0 : t.x1;
  t.solver.AddToObjective(nb, -5.0);
  t.solver.SetRhs(t.row, 5.0);
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_FALSE(s1.lp_warm_restart);
  EXPECT_EQ(s1.lp_dual_pivots, 0);
  // Cold reference on the mutated problem: cheap var (cost -4) runs to its
  // bound, the other fills the constraint.
  Problem p;
  int y0 = p.AddVariable(0, 4, nb == t.x0 ? -4.0 : 1.0);
  int y1 = p.AddVariable(0, 4, nb == t.x1 ? -4.0 : 1.0);
  p.AddRow(RowType::kGe, 5.0, {{y0, 1.0}, {y1, 1.0}});
  Solution ref = Solve(p);
  ASSERT_TRUE(ref.ok());
  EXPECT_NEAR(s1.objective, ref.objective, 1e-6 * (1 + std::abs(ref.objective)));
}

TEST(LpDualEntry, InfeasibleRepairIsReportedByThePrimalAuthority) {
  // rhs beyond the variables' combined bounds: the dual loop runs out of
  // admissible entering candidates and the primal phase-1 fallback owns the
  // infeasibility verdict.
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 9.0);  // max attainable is 8
  Solution s1 = t.solver.Solve();
  EXPECT_EQ(s1.status, Status::kInfeasible);
}

// --- ratio-test ties and degeneracy -----------------------------------------

TEST(LpDualRatio, SymmetricTieIsADegenerateDualStep) {
  // At the optimum of the symmetric tiny LP the nonbasic twin's reduced
  // cost is exactly 0: the dual ratio test's best step is t = 0, a
  // zero-length (degenerate) pivot. The loop must pivot through it and
  // still certify the right optimum.
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 5.0);  // the basic twin alone caps out at 4
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 5.0, 1e-6);
  EXPECT_TRUE(s1.lp_warm_restart);
}

TEST(LpDualRatio, ScaledTieStaysOptimal) {
  // Costs proportional to the constraint coefficients (1/1 vs 2/2) tie the
  // dual ratios d/|alpha| at different |alpha| magnitudes — the Harris
  // second pass must pick a pivot from the tied set without losing
  // optimality.
  auto tie = [](double rhs) {
    Problem p;
    int x0 = p.AddVariable(0, 3, 1.0);
    int x1 = p.AddVariable(0, 3, 2.0);
    p.AddRow(RowType::kGe, rhs, {{x0, 1.0}, {x1, 2.0}});
    return p;
  };
  Solver solver(tie(2.0));
  Solution s0 = solver.Solve();
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ(KktViolation(tie(2.0), s0, &solver), "");
  solver.SetRhs(0, 7.0);
  Solution s1 = solver.Solve();
  ASSERT_TRUE(s1.ok());
  // x0 = 3 and 2 x1 = 4 (or any tied mix) all cost rhs: obj = 7.
  EXPECT_NEAR(s1.objective, 7.0, 1e-6);
  EXPECT_EQ(KktViolation(tie(7.0), s1, &solver), "");
}

TEST(LpDualRatio, BoundFlipTelemetryAccumulates) {
  // A boxed column whose dual ratio admits a long step: the flip counter
  // must surface through Solution (exact counts are representation-
  // dependent; the accounting just may not go missing or negative).
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 7.0);
  Solution s1 = t.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_NEAR(s1.objective, 7.0, 1e-6);
  EXPECT_GE(s1.lp_bound_flips, 0);
}

// --- lp.dual_infeasible failpoint -------------------------------------------

TEST(LpDualFailpoint, ForcedDualLossFallsBackAndRecovers) {
  TinyLp t = MakeTiny();
  ASSERT_TRUE(t.solver.Solve().ok());
  t.solver.SetRhs(t.row, 5.0);
  util::Failpoint::Activate("lp.dual_infeasible");
  Solution faulted = t.solver.Solve();
  long hits = util::Failpoint::HitCount("lp.dual_infeasible");
  util::Failpoint::DeactivateAll();
  // The fault only suppresses the dual entry — the primal path must still
  // deliver the optimum.
  ASSERT_TRUE(faulted.ok());
  EXPECT_NEAR(faulted.objective, 5.0, 1e-6);
  EXPECT_FALSE(faulted.lp_warm_restart);
  EXPECT_EQ(faulted.lp_dual_pivots, 0);
  // The site sits inside the warm-entry gate, which this repair reaches.
  EXPECT_GT(hits, 0);

  // With the failpoint cleared the next repair enters dual again. Relaxing
  // the rhs back to 2 drives the basic variable (carrying 1 of the 5) below
  // its lower bound — an actual primal infeasibility, unlike a small rhs
  // increase the basic variable could absorb within bounds.
  t.solver.SetRhs(t.row, 2.0);
  Solution clean = t.solver.Solve();
  ASSERT_TRUE(clean.ok());
  EXPECT_NEAR(clean.objective, 2.0, 1e-6);
  EXPECT_TRUE(clean.lp_warm_restart);
}

// --- randomized perturbation parity -----------------------------------------

// The accumulated repair state of a BuildSolverBase solver as a Problem:
// BuildProblem lays variables and rows out in the same order, so link-row
// rhs edits and fixed base paths (variable 1 + k) carry over by index.
Problem Repaired(const bench::RoutingLpSpec& spec,
                 const std::vector<int>& link_rows,
                 const std::vector<double>& link_rhs,
                 const std::vector<char>& fixed) {
  Problem base = bench::BuildProblem(spec, /*with_growth=*/false);
  Problem p;
  for (size_t j = 0; j < base.VariableCount(); ++j) {
    bool zero = j >= 1 && j - 1 < fixed.size() && fixed[j - 1] != 0;
    p.AddVariable(base.lower_bounds()[j],
                  zero ? 0.0 : base.upper_bounds()[j], base.objective()[j]);
  }
  std::vector<Row> rows = base.rows();
  for (size_t l = 0; l < link_rows.size(); ++l) {
    rows[static_cast<size_t>(link_rows[l])].rhs = link_rhs[l];
  }
  for (Row& row : rows) p.AddRow(row.type, row.rhs, std::move(row.coeffs));
  return p;
}

// Disarms every failpoint when it goes out of scope, so an assertion that
// returns early cannot leave lp.dual_infeasible armed for later tests.
struct DisarmFailpoints {
  ~DisarmFailpoints() { util::Failpoint::DeactivateAll(); }
};

// Routing-shaped LPs under randomized rhs perturbations and dead-path
// fix/unfix cycles: after every repair the warm solver must carry a KKT
// certificate for the accumulated state and land on the same objective as a
// from-scratch cold solve of it. The sequence runs twice: with the
// lp.dual_infeasible failpoint disarmed (repairs go through the dual loop)
// and armed (every repair falls back to primal phase 1).
class LpDualPerturbParityTest : public ::testing::TestWithParam<int> {};

TEST_P(LpDualPerturbParityTest, DualRestartMatchesColdSolves) {
  const uint64_t seed = static_cast<uint64_t>(91000 + GetParam());
  for (bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "lp.dual_infeasible armed" : "disarmed");
    DisarmFailpoints disarm;
    if (armed) util::Failpoint::Activate("lp.dual_infeasible");
    Rng rng(seed);
    auto spec = bench::RoutingLpSpec::Random(seed, 15, 9);
    bench::WarmLp warm = bench::BuildSolverBase(spec);
    Solution s0 = warm.solver.Solve();
    ASSERT_TRUE(s0.ok());
    EXPECT_FALSE(s0.lp_warm_restart);

    // Cumulative mutation state, replayed into each cold reference.
    // BuildSolverBase variable layout: omax = 0, base path k = 1 + k.
    std::vector<double> link_rhs(static_cast<size_t>(spec.links), 0.0);
    std::vector<char> fixed(spec.base.size(), 0);
    std::vector<int> fixed_in_group(static_cast<size_t>(spec.groups), 0);
    long dual_pivots_total = 0;

    for (int step = 0; step < 12; ++step) {
      if (rng.NextIndex(2) == 0) {
        // Capacity-style repair: move a link row's rhs.
        size_t l = rng.NextIndex(static_cast<uint64_t>(spec.links));
        link_rhs[l] = rng.Uniform(-1.5, 1.5);
        warm.solver.SetRhs(warm.link_rows[l], link_rhs[l]);
      } else {
        // Dead-path repair: fix a path column to 0 (at most two of a
        // group's three paths, so the unit-sum row stays satisfiable) or
        // revive a previously fixed one.
        size_t k = rng.NextIndex(spec.base.size());
        size_t g = static_cast<size_t>(spec.base[k].group);
        int var = 1 + static_cast<int>(k);
        if (fixed[k] == 0 && fixed_in_group[g] < 2) {
          warm.solver.FixVariable(var, 0.0);
          fixed[k] = 1;
          ++fixed_in_group[g];
        } else if (fixed[k] != 0) {
          warm.solver.SetBounds(var, 0.0, 1.0);
          fixed[k] = 0;
          --fixed_in_group[g];
        }
      }

      Solution sw = warm.solver.Solve();
      ASSERT_TRUE(sw.ok()) << ToString(sw.status) << " step " << step;
      Problem p = Repaired(spec, warm.link_rows, link_rhs, fixed);
      EXPECT_EQ(KktViolation(p, sw, &warm.solver), "") << "step " << step;
      dual_pivots_total += sw.lp_dual_pivots;
      if (sw.lp_dual_pivots > 0) {
        EXPECT_TRUE(sw.lp_warm_restart);
      }

      bench::WarmLp fresh = bench::BuildSolverBase(spec);
      for (size_t l = 0; l < link_rhs.size(); ++l) {
        fresh.solver.SetRhs(fresh.link_rows[l], link_rhs[l]);
      }
      for (size_t k = 0; k < fixed.size(); ++k) {
        if (fixed[k] != 0) {
          fresh.solver.FixVariable(1 + static_cast<int>(k), 0.0);
        }
      }
      Solution sc = fresh.solver.Solve();
      ASSERT_TRUE(sc.ok()) << ToString(sc.status) << " step " << step;
      EXPECT_EQ(KktViolation(p, sc, &fresh.solver), "") << "step " << step;
      EXPECT_FALSE(sc.lp_warm_restart);  // first solve: primal, by the gate
      EXPECT_NEAR(sw.objective, sc.objective,
                  1e-6 * (1 + std::abs(sc.objective)))
          << "step " << step;
    }
    // The perturbation mix reliably leaves primal-infeasible warm bases:
    // disarmed, at least one repair must have gone through the dual loop;
    // armed, the site must have been reached and every repair kept off it.
    if (armed) {
      EXPECT_GT(util::Failpoint::HitCount("lp.dual_infeasible"), 0);
      EXPECT_EQ(dual_pivots_total, 0);
    } else {
      EXPECT_GT(dual_pivots_total, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpDualPerturbParityTest,
                         ::testing::Range(1, 5));

}  // namespace
}  // namespace ldr::lp
