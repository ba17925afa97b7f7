// Sparse-LU basis coverage: randomized mutation sequences certified by the
// KKT oracle (tests/kkt.h) after every optimal solve, the read-only contract
// of Solver::RowDuals(), routing-shaped LPs certified, the LU telemetry, the
// eta/row-extension update file staying bounded by the refactorization
// triggers, a near-singular recorded basis surviving refactorization
// (Markowitz threshold pivoting + the singular-repair slack substitution),
// and the lp.refactor_singular failpoint turning refactorization failure
// into a clean !ok() solve.
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

// --- KKT certificate on randomized mutation sequences -----------------------

// The lp_test mutation-sequence generator, mirrored into a shadow Problem
// and applied to two solvers in lockstep. After every re-solve the first
// solver's result must carry a KKT certificate for the shadow problem, read
// through RowDuals(); the second never has its duals read and must match
// the first bit for bit — values, objective, iterations, pivots — so the
// accessor provably leaves every later solve untouched.
class LpBasisMutationKktTest : public ::testing::TestWithParam<int> {};

TEST_P(LpBasisMutationKktTest, EverySolveCertifiedAndRowDualsReadOnly) {
  Rng rng(static_cast<uint64_t>(23000 + GetParam()));
  Solver observed;
  Solver plain;
  std::vector<double> hi, obj;
  std::vector<Row> rows;

  auto rand_rhs = [&](RowType type) {
    return type == RowType::kLe ? rng.Uniform(0.5, 6) : -rng.Uniform(0.5, 6);
  };
  auto add_column = [&] {
    double h = rng.Uniform(0.5, 3);
    double c = rng.Uniform(-3, 3);
    std::vector<std::pair<int, double>> coeffs;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rng.NextIndex(3) != 0) continue;
      double a = rng.Uniform(-2, 2);
      coeffs.emplace_back(static_cast<int>(r), a);
      rows[r].coeffs.emplace_back(static_cast<int>(hi.size()), a);
    }
    ASSERT_EQ(observed.AddColumn(0, h, c, coeffs), static_cast<int>(hi.size()));
    ASSERT_EQ(plain.AddColumn(0, h, c, coeffs), static_cast<int>(hi.size()));
    hi.push_back(h);
    obj.push_back(c);
  };
  auto add_row = [&] {
    Row row;
    row.type = rng.NextIndex(2) == 0 ? RowType::kLe : RowType::kGe;
    row.rhs = rand_rhs(row.type);
    for (size_t j = 0; j < hi.size(); ++j) {
      if (rng.NextIndex(3) != 0) continue;
      row.coeffs.emplace_back(static_cast<int>(j), rng.Uniform(-2, 2));
    }
    ASSERT_EQ(observed.AddRow(row.type, row.rhs, row.coeffs),
              static_cast<int>(rows.size()));
    ASSERT_EQ(plain.AddRow(row.type, row.rhs, row.coeffs),
              static_cast<int>(rows.size()));
    rows.push_back(std::move(row));
  };
  auto check = [&](int step) {
    Solution so = observed.Solve();
    Solution sp = plain.Solve();
    ASSERT_TRUE(so.ok()) << ToString(so.status) << " step " << step;
    Problem p;
    for (size_t j = 0; j < hi.size(); ++j) p.AddVariable(0, hi[j], obj[j]);
    for (const Row& row : rows) p.AddRow(row.type, row.rhs, row.coeffs);
    EXPECT_EQ(KktViolation(p, so, &observed), "") << "step " << step;
    EXPECT_EQ(so.values, sp.values) << "step " << step;
    EXPECT_EQ(so.objective, sp.objective) << "step " << step;
    EXPECT_EQ(so.lp_iterations, sp.lp_iterations) << "step " << step;
    EXPECT_EQ(so.lp_pivots, sp.lp_pivots) << "step " << step;
  };

  for (int j = 0; j < 4; ++j) add_column();
  for (int r = 0; r < 3; ++r) add_row();
  check(-1);
  for (int step = 0; step < 40; ++step) {
    switch (rng.NextIndex(6)) {
      case 0:
      case 1:
        add_column();
        break;
      case 2:
        add_row();
        break;
      case 3: {
        if (rows.empty() || hi.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        int v = static_cast<int>(rng.NextIndex(hi.size()));
        double delta = rng.Uniform(-0.5, 0.5);
        observed.AddToRow(static_cast<int>(r), v, delta);
        plain.AddToRow(static_cast<int>(r), v, delta);
        rows[r].coeffs.emplace_back(v, delta);  // Problem sums duplicates
        break;
      }
      default: {
        if (rows.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        rows[r].rhs = rand_rhs(rows[r].type);
        observed.SetRhs(static_cast<int>(r), rows[r].rhs);
        plain.SetRhs(static_cast<int>(r), rows[r].rhs);
        break;
      }
    }
    if (step % 5 == 4) check(step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpBasisMutationKktTest,
                         ::testing::Range(1, 13));

// Routing-shaped LPs (bench/lp_shapes.h, the Fig. 12 shape) solved cold:
// each optimum certified.
TEST(LpBasisKkt, RoutingShapesCertified) {
  for (uint64_t seed = 61; seed < 66; ++seed) {
    auto spec = bench::RoutingLpSpec::Random(seed, 40, 20);
    Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    Solver solver(p);
    Solution s = solver.Solve();
    ASSERT_TRUE(s.ok()) << ToString(s.status) << " seed " << seed;
    EXPECT_EQ(KktViolation(p, s, &solver), "") << "seed " << seed;
  }
}

// --- telemetry --------------------------------------------------------------

TEST(LpBasisTelemetry, LuFieldsPopulated) {
  auto spec = bench::RoutingLpSpec::Random(77, 60, 30);
  Solution s = Solve(bench::BuildProblem(spec, /*with_growth=*/true));
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s.lp_lu_nnz, 0);
  EXPECT_GE(s.lp_fill_ratio, 1.0);  // nnz(L+U) can only add to nnz(B)
  EXPECT_GE(s.lp_refactorizations, 1);
  EXPECT_GT(s.lp_basis_bytes, 0u);
}

// --- eta-file growth bound --------------------------------------------------

// A tight max_file_ops cap must force mid-solve refactorizations, and the
// update file reported at the end of each solve must respect the cap: the
// eta file cannot grow without bound no matter how many pivots a solve runs.
TEST(LpBasisEtaFile, RefactorizationTriggerBoundsUpdateFile) {
  auto spec = bench::RoutingLpSpec::Random(31, 80, 40);

  SolveOptions so;
  so.basis.max_file_ops = 8;
  bench::WarmLp warm = bench::BuildSolverBase(spec, so);
  Solution s0 = warm.solver.Solve();
  ASSERT_TRUE(s0.ok());
  EXPECT_GT(s0.lp_pivots, 8);  // enough pivots that the cap had to fire
  EXPECT_GE(s0.lp_refactorizations, 2);
  EXPECT_LE(s0.lp_eta_count, 8);

  // Warm growth rounds keep respecting the cap.
  bench::AppendGrowth(spec, &warm);
  Solution s1 = warm.solver.Solve();
  ASSERT_TRUE(s1.ok());
  EXPECT_LE(s1.lp_eta_count, 8);

  // Same LP with the trigger left automatic: the file still ends bounded by
  // the documented max(64, m/2) ops ceiling.
  Solution sauto = Solve(bench::BuildProblem(spec, /*with_growth=*/true));
  ASSERT_TRUE(sauto.ok());
  long rows = static_cast<long>(
      bench::BuildProblem(spec, true).RowCount());
  EXPECT_LE(sauto.lp_eta_count, std::max<long>(64, rows / 2));
}

// --- near-singular refactorization ------------------------------------------

// Two equality rows that differ by 1e-6 put two nearly-parallel columns in
// the optimal basis. Invalidate() then forces a from-scratch refactorization
// of that basis: Markowitz threshold pivoting has to order around the tiny
// remaining pivot element, and the re-solve must land back on the same
// objective as a cold solve of the same problem.
TEST(LpBasisNumerics, NearSingularBasisRefactorizes) {
  const double eps = 1e-6;
  Solver solver;
  int x0 = solver.AddColumn(0, 2, -1.0, {});
  int x1 = solver.AddColumn(0, 2, -1.0, {});
  solver.AddRow(RowType::kEq, 1.5, {{x0, 1.0}, {x1, 1.0}});
  solver.AddRow(RowType::kEq, 1.5 + 0.5 * eps, {{x0, 1.0}, {x1, 1.0 + eps}});
  Solution first = solver.Solve();
  ASSERT_TRUE(first.ok()) << ToString(first.status);
  // x1 = 0.5, x0 = 1.0 is the unique solution; both are interior => basic.
  EXPECT_NEAR(first.objective, -1.5, 1e-6);

  solver.Invalidate();
  Solution again = solver.Solve();
  ASSERT_TRUE(again.ok()) << ToString(again.status);
  EXPECT_NEAR(again.objective, first.objective, 1e-6);
}

// Zeroing a basic column's only row entry via AddToRow leaves the recorded
// basis genuinely singular. The refactorization must detect it, substitute a
// slack (RepairSingularBasis), and the re-solve must recover the new optimum
// instead of reporting a numerical failure.
TEST(LpBasisNumerics, SingularBasisRepairedBySlackSubstitution) {
  Solver solver;
  int x = solver.AddColumn(0, 5, -1.0, {});
  int row = solver.AddRow(RowType::kLe, 3.0, {{x, 1.0}});
  Solution first = solver.Solve();
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(first.objective, -3.0, 1e-6);  // x basic at the row bound

  // Row becomes 0 * x <= 3: the basic column for x is now all zeros.
  solver.AddToRow(row, x, -1.0);
  solver.Invalidate();
  Solution repaired = solver.Solve();
  ASSERT_TRUE(repaired.ok()) << ToString(repaired.status);
  // With the row constraint gone, x runs to its upper bound.
  EXPECT_NEAR(repaired.objective, -5.0, 1e-6);
}

// --- lp.refactor_singular failpoint -----------------------------------------

// An invalidated solver whose refactorization "fails" must surface a clean
// non-ok solve, and recover once the failpoint clears.
TEST(LpBasisFailpoints, RefactorSingularFiresUnderLu) {
  auto spec = bench::RoutingLpSpec::Random(19, 30, 15);
  bench::WarmLp warm = bench::BuildSolverBase(spec);
  Solution s0 = warm.solver.Solve();
  ASSERT_TRUE(s0.ok());

  warm.solver.Invalidate();
  util::Failpoint::Activate("lp.refactor_singular");
  Solution failed = warm.solver.Solve();
  util::Failpoint::DeactivateAll();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status, Status::kIterLimit);

  warm.solver.Invalidate();
  Solution recovered = warm.solver.Solve();
  ASSERT_TRUE(recovered.ok()) << ToString(recovered.status);
  EXPECT_NEAR(recovered.objective, s0.objective,
              1e-6 * (1 + std::abs(s0.objective)));
}

}  // namespace
}  // namespace ldr::lp
