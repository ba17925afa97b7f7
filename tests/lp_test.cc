#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "lp/lp.h"
#include "tests/kkt.h"
#include "util/random.h"

// --- operator-new hook ------------------------------------------------------
// Counts every global allocation while enabled. Used to assert the simplex
// inner loop (FTRAN, ratio test, pivot, pricing) is allocation-free once the
// solver's reused scratch buffers have reached capacity.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<long> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC's -Wmismatched-new-delete cannot see that the replacement operator new
// above allocates with malloc, so freeing here is in fact the matched pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ldr::lp {
namespace {

TEST(Lp, TrivialBoundsOnly) {
  Problem p;
  int x = p.AddVariable(2, 5, 1.0);   // wants its lower bound
  int y = p.AddVariable(-1, 3, -2.0);  // wants its upper bound
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.values[static_cast<size_t>(x)], 2);
  EXPECT_DOUBLE_EQ(s.values[static_cast<size_t>(y)], 3);
  EXPECT_DOUBLE_EQ(s.objective, 2 - 6);
}

TEST(Lp, SimpleTwoVariable) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
  // Optimum: y=2, x=2, obj=-6.
  Problem p;
  int x = p.AddVariable(0, 3, -1);
  int y = p.AddVariable(0, 2, -2);
  p.AddRow(RowType::kLe, 4, {{x, 1}, {y, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -6, 1e-7);
  EXPECT_NEAR(s.values[static_cast<size_t>(x)], 2, 1e-7);
  EXPECT_NEAR(s.values[static_cast<size_t>(y)], 2, 1e-7);
}

TEST(Lp, EqualityRow) {
  // min x + y  s.t. x + y = 3, x in [0,2], y in [0,2]. obj = 3.
  Problem p;
  int x = p.AddVariable(0, 2, 1);
  int y = p.AddVariable(0, 2, 1);
  p.AddRow(RowType::kEq, 3, {{x, 1}, {y, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 3, 1e-7);
  EXPECT_NEAR(s.values[0] + s.values[1], 3, 1e-7);
}

TEST(Lp, GeRow) {
  // min x  s.t. x >= 7 expressed as row. x in [0, 100].
  Problem p;
  int x = p.AddVariable(0, 100, 1);
  p.AddRow(RowType::kGe, 7, {{x, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.values[0], 7, 1e-7);
}

TEST(Lp, InfeasibleDetected) {
  Problem p;
  int x = p.AddVariable(0, 1, 1);
  p.AddRow(RowType::kGe, 5, {{x, 1}});
  Solution s = Solve(p);
  EXPECT_EQ(s.status, Status::kInfeasible);
}

TEST(Lp, InfeasibleConflictingRows) {
  Problem p;
  int x = p.AddVariable(-kInfinity, kInfinity, 0);
  p.AddRow(RowType::kLe, 1, {{x, 1}});
  p.AddRow(RowType::kGe, 2, {{x, 1}});
  Solution s = Solve(p);
  EXPECT_EQ(s.status, Status::kInfeasible);
}

TEST(Lp, InconsistentBoundsInfeasible) {
  Problem p;
  p.AddVariable(3, 2, 1);
  int y = p.AddVariable(0, 1, 1);
  p.AddRow(RowType::kLe, 1, {{y, 1}});
  Solution s = Solve(p);
  EXPECT_EQ(s.status, Status::kInfeasible);
}

TEST(Lp, UnboundedDetected) {
  // min -x with x >= 0 unbounded above, one slack row to force simplex path.
  Problem p;
  int x = p.AddVariable(0, kInfinity, -1);
  int y = p.AddVariable(0, 1, 0);
  p.AddRow(RowType::kLe, 10, {{y, 1}});
  (void)x;
  Solution s = Solve(p);
  EXPECT_EQ(s.status, Status::kUnbounded);
}

TEST(Lp, FreeVariable) {
  // min x^2-like proxy: min x s.t. x >= -5 via row; x free.
  Problem p;
  int x = p.AddVariable(-kInfinity, kInfinity, 1);
  p.AddRow(RowType::kGe, -5, {{x, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.values[0], -5, 1e-7);
}

TEST(Lp, NegativeLowerBounds) {
  // min x + y, x in [-3, 0], y in [-2, 2], x + y >= -4.
  Problem p;
  int x = p.AddVariable(-3, 0, 1);
  int y = p.AddVariable(-2, 2, 1);
  p.AddRow(RowType::kGe, -4, {{x, 1}, {y, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -4, 1e-7);
}

TEST(Lp, FixedVariable) {
  // A variable with lo == hi participates as a constant.
  Problem p;
  int x = p.AddVariable(2, 2, 5);
  int y = p.AddVariable(0, 10, 1);
  p.AddRow(RowType::kGe, 6, {{x, 1}, {y, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.values[static_cast<size_t>(x)], 2);
  EXPECT_NEAR(s.values[static_cast<size_t>(y)], 4, 1e-7);
}

TEST(Lp, DuplicateCoefficientsAreSummed) {
  Problem p;
  int x = p.AddVariable(0, 10, 1);
  p.AddRow(RowType::kGe, 6, {{x, 1}, {x, 2}});  // 3x >= 6
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.values[0], 2, 1e-7);
}

TEST(Lp, DegenerateVertexTerminates) {
  // Multiple redundant constraints through the optimum.
  Problem p;
  int x = p.AddVariable(0, kInfinity, -1);
  int y = p.AddVariable(0, kInfinity, -1);
  p.AddRow(RowType::kLe, 2, {{x, 1}, {y, 1}});
  p.AddRow(RowType::kLe, 2, {{x, 1}, {y, 1}});
  p.AddRow(RowType::kLe, 4, {{x, 2}, {y, 2}});
  p.AddRow(RowType::kLe, 1, {{x, 1}});
  p.AddRow(RowType::kLe, 1, {{y, 1}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -2, 1e-7);
}

TEST(Lp, ClassicDantzigExample) {
  // max 3x + 2y + z  (min of negation) s.t.
  //   2x + y + z <= 10, x + 3y + 2z <= 15, x <= 4. All >= 0.
  Problem p;
  int x = p.AddVariable(0, 4, -3);
  int y = p.AddVariable(0, kInfinity, -2);
  int z = p.AddVariable(0, kInfinity, -1);
  p.AddRow(RowType::kLe, 10, {{x, 2}, {y, 1}, {z, 1}});
  p.AddRow(RowType::kLe, 15, {{x, 1}, {y, 3}, {z, 2}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  // Optimum: x=3, y=4, z=0 -> 3*3+2*4 = 17? Check: 2*3+4=10 ok, 3+12=15 ok.
  EXPECT_NEAR(-s.objective, 17, 1e-6);
}

TEST(Lp, TransportationProblem) {
  // 2 suppliers (cap 20, 30), 3 consumers (demand 10, 25, 15), unit costs.
  double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  Problem p;
  int v[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      v[i][j] = p.AddVariable(0, kInfinity, cost[i][j]);
    }
  }
  double supply[2] = {20, 30};
  double demand[3] = {10, 25, 15};
  for (int i = 0; i < 2; ++i) {
    p.AddRow(RowType::kLe, supply[i],
             {{v[i][0], 1}, {v[i][1], 1}, {v[i][2], 1}});
  }
  for (int j = 0; j < 3; ++j) {
    p.AddRow(RowType::kEq, demand[j], {{v[0][j], 1}, {v[1][j], 1}});
  }
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  // Optimum: s2 serves c2 (25 @ cost 1) and c1 (5 @ cost 3); s1 serves the
  // rest of c1 (5 @ cost 2) and all of c3 (15 @ cost 5):
  // 25 + 15 + 10 + 75 = 125.
  EXPECT_NEAR(s.objective, 125, 1e-6);
}

TEST(Lp, MultipleGeRows) {
  // Covering problem: min 3a + 2b, a + b >= 4, a + 3b >= 6, a,b >= 0.
  // Vertices: (4,0): 12, (3,1): 11, (0,4): 8 (binding row is a+b>=4).
  Problem p;
  int a = p.AddVariable(0, kInfinity, 3);
  int b = p.AddVariable(0, kInfinity, 2);
  p.AddRow(RowType::kGe, 4, {{a, 1}, {b, 1}});
  p.AddRow(RowType::kGe, 6, {{a, 1}, {b, 3}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 8, 1e-6);
}

// Brute-force reference solver for tiny LPs: enumerate all basic solutions
// formed by choosing active constraints/bounds; n=2 only, grid-free exact.
struct Tiny2D {
  // min c0 x + c1 y over constraints ax + by <= c (after normalization).
  double c0, c1;
  struct C {
    double a, b, rhs;  // a x + b y <= rhs
  };
  std::vector<C> cs;

  // Returns optimum by enumerating pairwise intersections + checking.
  double Optimum() const {
    double best = kInfinity;
    auto feasible = [&](double x, double y) {
      for (const C& c : cs) {
        if (c.a * x + c.b * y > c.rhs + 1e-7) return false;
      }
      return true;
    };
    for (size_t i = 0; i < cs.size(); ++i) {
      for (size_t j = i + 1; j < cs.size(); ++j) {
        double det = cs[i].a * cs[j].b - cs[j].a * cs[i].b;
        if (std::abs(det) < 1e-12) continue;
        double x = (cs[i].rhs * cs[j].b - cs[j].rhs * cs[i].b) / det;
        double y = (cs[i].a * cs[j].rhs - cs[j].a * cs[i].rhs) / det;
        if (feasible(x, y)) best = std::min(best, c0 * x + c1 * y);
      }
    }
    return best;
  }
};

// Property test: random bounded 2-variable LPs agree with the enumeration
// reference.
class LpRandom2DTest : public ::testing::TestWithParam<int> {};

TEST_P(LpRandom2DTest, MatchesVertexEnumeration) {
  Rng rng(static_cast<uint64_t>(1000 + GetParam()));
  Tiny2D ref;
  ref.c0 = rng.Uniform(-5, 5);
  ref.c1 = rng.Uniform(-5, 5);
  Problem p;
  int x = p.AddVariable(-10, 10, ref.c0);
  int y = p.AddVariable(-10, 10, ref.c1);
  // Bounds as constraints for the reference.
  ref.cs.push_back({1, 0, 10});
  ref.cs.push_back({-1, 0, 10});
  ref.cs.push_back({0, 1, 10});
  ref.cs.push_back({0, -1, 10});
  int rows = static_cast<int>(2 + rng.NextIndex(4));
  for (int r = 0; r < rows; ++r) {
    double a = rng.Uniform(-3, 3), b = rng.Uniform(-3, 3);
    double rhs = rng.Uniform(0.5, 8);  // keeps origin feasible
    p.AddRow(RowType::kLe, rhs, {{x, a}, {y, b}});
    ref.cs.push_back({a, b, rhs});
  }
  Solver solver(p);
  Solution s = solver.Solve();
  ASSERT_TRUE(s.ok()) << ToString(s.status);
  EXPECT_EQ(KktViolation(p, s, &solver), "");
  EXPECT_NEAR(s.objective, ref.Optimum(), 1e-5);
  // Returned point satisfies all rows.
  for (const auto& c : ref.cs) {
    EXPECT_LE(c.a * s.values[0] + c.b * s.values[1], c.rhs + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandom2DTest, ::testing::Range(1, 33));

// Property test: random feasible LPs with a known feasible point; solver
// objective must be <= that point's objective and the solution must satisfy
// every row.
class LpRandomFeasibleTest : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomFeasibleTest, OptimumBeatsKnownPointAndIsFeasible) {
  Rng rng(static_cast<uint64_t>(2000 + GetParam()));
  const size_t n = 8;
  const size_t m = 6;
  Problem p;
  std::vector<double> known(n);
  std::vector<int> vars(n);
  std::vector<double> costs(n);
  for (size_t j = 0; j < n; ++j) {
    known[j] = rng.Uniform(0, 2);
    costs[j] = rng.Uniform(-2, 2);
    vars[j] = p.AddVariable(0, 5, costs[j]);
  }
  std::vector<std::vector<double>> a(m, std::vector<double>(n));
  std::vector<double> rhs(m);
  for (size_t i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    double lhs = 0;
    for (size_t j = 0; j < n; ++j) {
      a[i][j] = rng.Uniform(-1, 2);
      lhs += a[i][j] * known[j];
      coeffs.emplace_back(vars[j], a[i][j]);
    }
    rhs[i] = lhs + rng.Uniform(0, 1);  // known point strictly feasible
    p.AddRow(RowType::kLe, rhs[i], coeffs);
  }
  Solver solver(p);
  Solution s = solver.Solve();
  ASSERT_TRUE(s.ok()) << ToString(s.status);
  EXPECT_EQ(KktViolation(p, s, &solver), "");
  double known_obj = 0;
  for (size_t j = 0; j < n; ++j) known_obj += costs[j] * known[j];
  EXPECT_LE(s.objective, known_obj + 1e-6);
  for (size_t i = 0; i < m; ++i) {
    double lhs = 0;
    for (size_t j = 0; j < n; ++j) lhs += a[i][j] * s.values[j];
    EXPECT_LE(lhs, rhs[i] + 1e-6);
  }
  for (size_t j = 0; j < n; ++j) {
    EXPECT_GE(s.values[j], -1e-9);
    EXPECT_LE(s.values[j], 5 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomFeasibleTest, ::testing::Range(1, 33));

// Equality-constrained random LPs (the routing LP uses sum(x_ap) = 1 rows).
class LpRandomEqualityTest : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomEqualityTest, SplitVariablesSumToOne) {
  Rng rng(static_cast<uint64_t>(3000 + GetParam()));
  // k groups of 3 "path fractions" summing to 1, shared capacity rows.
  const size_t groups = 4;
  Problem p;
  std::vector<std::vector<int>> gv(groups);
  for (size_t a = 0; a < groups; ++a) {
    std::vector<std::pair<int, double>> sum_row;
    for (int q = 0; q < 3; ++q) {
      int v = p.AddVariable(0, 1, rng.Uniform(1, 10));
      gv[a].push_back(v);
      sum_row.emplace_back(v, 1.0);
    }
    p.AddRow(RowType::kEq, 1.0, sum_row);
  }
  // A couple of coupling capacity rows.
  for (int r = 0; r < 3; ++r) {
    std::vector<std::pair<int, double>> row;
    for (size_t a = 0; a < groups; ++a) {
      row.emplace_back(gv[a][static_cast<size_t>(rng.NextIndex(3))],
                       rng.Uniform(0.5, 2));
    }
    p.AddRow(RowType::kLe, rng.Uniform(2.0, 4.0), row);
  }
  Solver solver(p);
  Solution s = solver.Solve();
  ASSERT_TRUE(s.ok()) << ToString(s.status);
  EXPECT_EQ(KktViolation(p, s, &solver), "");
  for (size_t a = 0; a < groups; ++a) {
    double sum = 0;
    for (int v : gv[a]) sum += s.values[static_cast<size_t>(v)];
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomEqualityTest, ::testing::Range(1, 17));

// --- incremental Solver ----------------------------------------------------

// Builds a routing-shaped LP (path-fraction groups summing to 1, shared
// capacity rows with overload variables) in two stages, mirroring a Fig. 13
// path-growth round. Stage A is the base problem; stage B appends extra path
// columns. The incremental Solver must reach the same objective as a cold
// solve of the equivalent full problem.
struct RoutingShaped {
  struct PathVar {
    double obj;
    std::vector<std::pair<int, double>> links;  // (link index, demand)
  };
  int groups = 0;
  int links = 0;
  double cap = 10.0;
  std::vector<std::vector<PathVar>> stage_a;  // per group, initial paths
  std::vector<std::vector<PathVar>> stage_b;  // per group, appended paths

  static RoutingShaped Random(uint64_t seed, int groups, int links) {
    Rng rng(seed);
    RoutingShaped p;
    p.groups = groups;
    p.links = links;
    auto make_path = [&](double demand) {
      PathVar pv;
      pv.obj = rng.Uniform(1, 20);
      int hops = 1 + static_cast<int>(rng.NextIndex(3));
      for (int h = 0; h < hops; ++h) {
        pv.links.emplace_back(
            static_cast<int>(rng.NextIndex(static_cast<uint64_t>(links))),
            demand);
      }
      return pv;
    };
    p.stage_a.resize(static_cast<size_t>(groups));
    p.stage_b.resize(static_cast<size_t>(groups));
    for (int a = 0; a < groups; ++a) {
      double demand = rng.Uniform(0.5, 4.0);
      int initial = 2 + static_cast<int>(rng.NextIndex(2));
      for (int k = 0; k < initial; ++k) {
        p.stage_a[static_cast<size_t>(a)].push_back(make_path(demand));
      }
      int grown = static_cast<int>(rng.NextIndex(3));  // 0..2 appended paths
      for (int k = 0; k < grown; ++k) {
        p.stage_b[static_cast<size_t>(a)].push_back(make_path(demand));
      }
    }
    return p;
  }
};

// Cold reference: the full problem (stage A and, optionally, stage B) built
// from scratch as a Problem and solved once.
double ColdObjective(const RoutingShaped& p, bool with_stage_b) {
  Problem prob;
  int omax = prob.AddVariable(1, kInfinity, 1e6);
  std::vector<std::vector<std::pair<int, double>>> link_terms(
      static_cast<size_t>(p.links));
  auto add_group = [&](const std::vector<RoutingShaped::PathVar>& a_paths,
                       const std::vector<RoutingShaped::PathVar>& b_paths) {
    std::vector<std::pair<int, double>> sum_row;
    auto add_path = [&](const RoutingShaped::PathVar& pv) {
      int v = prob.AddVariable(0, 1, pv.obj);
      sum_row.emplace_back(v, 1.0);
      for (const auto& [l, demand] : pv.links) {
        link_terms[static_cast<size_t>(l)].emplace_back(v, demand);
      }
    };
    for (const auto& pv : a_paths) add_path(pv);
    if (with_stage_b) {
      for (const auto& pv : b_paths) add_path(pv);
    }
    prob.AddRow(RowType::kEq, 1.0, std::move(sum_row));
  };
  for (int a = 0; a < p.groups; ++a) {
    add_group(p.stage_a[static_cast<size_t>(a)],
              p.stage_b[static_cast<size_t>(a)]);
  }
  for (int l = 0; l < p.links; ++l) {
    int ol = prob.AddVariable(1, kInfinity, 1.0);
    auto row = link_terms[static_cast<size_t>(l)];
    row.emplace_back(ol, -p.cap);
    prob.AddRow(RowType::kLe, 0.0, std::move(row));
    prob.AddRow(RowType::kLe, 0.0, {{ol, 1.0}, {omax, -1.0}});
  }
  Solution s = Solve(prob);
  EXPECT_TRUE(s.ok()) << ToString(s.status);
  return s.objective;
}

class LpWarmStartTest : public ::testing::TestWithParam<int> {};

TEST_P(LpWarmStartTest, IncrementalAddColumnMatchesColdSolve) {
  RoutingShaped p =
      RoutingShaped::Random(static_cast<uint64_t>(5000 + GetParam()),
                            /*groups=*/6, /*links=*/8);

  // Incremental build of stage A.
  Solver solver;
  int omax = solver.AddVariable(1, kInfinity, 1e6);
  std::vector<int> eq_row(static_cast<size_t>(p.groups));
  std::vector<int> link_row(static_cast<size_t>(p.links));
  {
    std::vector<std::vector<std::pair<int, double>>> link_terms(
        static_cast<size_t>(p.links));
    std::vector<std::vector<int>> group_vars(static_cast<size_t>(p.groups));
    for (int a = 0; a < p.groups; ++a) {
      for (const auto& pv : p.stage_a[static_cast<size_t>(a)]) {
        int v = solver.AddVariable(0, 1, pv.obj);
        group_vars[static_cast<size_t>(a)].push_back(v);
        for (const auto& [l, demand] : pv.links) {
          link_terms[static_cast<size_t>(l)].emplace_back(v, demand);
        }
      }
    }
    for (int a = 0; a < p.groups; ++a) {
      std::vector<std::pair<int, double>> row;
      for (int v : group_vars[static_cast<size_t>(a)]) row.emplace_back(v, 1.0);
      eq_row[static_cast<size_t>(a)] = solver.AddRow(RowType::kEq, 1.0, row);
    }
    for (int l = 0; l < p.links; ++l) {
      int ol = solver.AddVariable(1, kInfinity, 1.0);
      auto row = link_terms[static_cast<size_t>(l)];
      row.emplace_back(ol, -p.cap);
      link_row[static_cast<size_t>(l)] = solver.AddRow(RowType::kLe, 0.0, row);
      solver.AddRow(RowType::kLe, 0.0, {{ol, 1.0}, {omax, -1.0}});
    }
  }
  Solution first = solver.Solve();
  ASSERT_TRUE(first.ok()) << ToString(first.status);
  EXPECT_NEAR(first.objective, ColdObjective(p, /*with_stage_b=*/false), 1e-6);

  // Stage B: append path columns into the live rows and re-solve warm.
  for (int a = 0; a < p.groups; ++a) {
    for (const auto& pv : p.stage_b[static_cast<size_t>(a)]) {
      std::vector<std::pair<int, double>> coeffs;
      coeffs.emplace_back(eq_row[static_cast<size_t>(a)], 1.0);
      for (const auto& [l, demand] : pv.links) {
        coeffs.emplace_back(link_row[static_cast<size_t>(l)], demand);
      }
      solver.AddColumn(0, 1, pv.obj, coeffs);
    }
  }
  Solution second = solver.Solve();
  ASSERT_TRUE(second.ok()) << ToString(second.status);
  EXPECT_NEAR(second.objective, ColdObjective(p, /*with_stage_b=*/true), 1e-6);
  // Growth can only help: more columns never worsen a minimization.
  EXPECT_LE(second.objective, first.objective + 1e-6);
  // The warm re-solve should need far fewer pivots than the cold build-up.
  EXPECT_LT(second.lp_iterations, std::max(1L, first.lp_iterations));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpWarmStartTest, ::testing::Range(1, 25));

class LpWarmRhsTest : public ::testing::TestWithParam<int> {};

// SetRhs + AddToRow re-solves match cold solves of the mutated problem.
TEST_P(LpWarmRhsTest, RhsAndCoefficientDeltasMatchColdSolve) {
  Rng rng(static_cast<uint64_t>(7000 + GetParam()));
  const int n = 10, m = 6;
  std::vector<double> costs(n), rhs(m);
  std::vector<std::vector<double>> a(m, std::vector<double>(n));
  for (int j = 0; j < n; ++j) costs[static_cast<size_t>(j)] = rng.Uniform(-2, 2);
  for (int i = 0; i < m; ++i) {
    rhs[static_cast<size_t>(i)] = rng.Uniform(2, 8);
    for (int j = 0; j < n; ++j) {
      a[static_cast<size_t>(i)][static_cast<size_t>(j)] = rng.Uniform(0, 2);
    }
  }
  auto problem = [&]() {
    Problem prob;
    std::vector<int> vars(n);
    for (int j = 0; j < n; ++j) {
      vars[static_cast<size_t>(j)] = prob.AddVariable(0, 5, costs[static_cast<size_t>(j)]);
    }
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> row;
      for (int j = 0; j < n; ++j) {
        row.emplace_back(vars[static_cast<size_t>(j)],
                         a[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      }
      prob.AddRow(RowType::kLe, rhs[static_cast<size_t>(i)], row);
    }
    return prob;
  };
  auto cold = [&]() {
    Problem prob = problem();
    Solver fresh(prob);
    Solution s = fresh.Solve();
    EXPECT_EQ(KktViolation(prob, s, &fresh), "");
    return s.objective;
  };

  Solver solver;
  for (int j = 0; j < n; ++j) solver.AddVariable(0, 5, costs[static_cast<size_t>(j)]);
  std::vector<int> rows(m);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < n; ++j) {
      row.emplace_back(j, a[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
    rows[static_cast<size_t>(i)] = solver.AddRow(RowType::kLe, rhs[static_cast<size_t>(i)], row);
  }
  Solution s0 = solver.Solve();
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ(KktViolation(problem(), s0, &solver), "");
  EXPECT_NEAR(s0.objective, cold(), 1e-6);

  // Tighten a couple of rows and perturb a few coefficients; re-solve warm.
  for (int step = 0; step < 3; ++step) {
    int i = static_cast<int>(rng.NextIndex(m));
    rhs[static_cast<size_t>(i)] = rng.Uniform(1, 8);
    solver.SetRhs(rows[static_cast<size_t>(i)], rhs[static_cast<size_t>(i)]);
    int i2 = static_cast<int>(rng.NextIndex(m));
    int j2 = static_cast<int>(rng.NextIndex(n));
    double delta = rng.Uniform(-0.5, 0.5);
    a[static_cast<size_t>(i2)][static_cast<size_t>(j2)] += delta;
    solver.AddToRow(rows[static_cast<size_t>(i2)], j2, delta);
    Solution s = solver.Solve();
    ASSERT_TRUE(s.ok()) << ToString(s.status);
    EXPECT_EQ(KktViolation(problem(), s, &solver), "") << "step " << step;
    EXPECT_NEAR(s.objective, cold(), 1e-6) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpWarmRhsTest, ::testing::Range(1, 17));

TEST(LpSolver, NewRowsOnExistingVariablesMatchCold) {
  // min -x - y, x,y in [0,4]; rows added one Solve at a time.
  Solver solver;
  int x = solver.AddVariable(0, 4, -1);
  int y = solver.AddVariable(0, 4, -1);
  Solution s = solver.Solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -8, 1e-9);  // both at upper bound

  solver.AddRow(RowType::kLe, 5, {{x, 1}, {y, 1}});
  s = solver.Solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -5, 1e-7);

  solver.AddRow(RowType::kLe, 3, {{x, 1}});
  solver.AddRow(RowType::kGe, 1, {{y, 1}});
  s = solver.Solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -5, 1e-7);  // x=3, y=2

  solver.AddRow(RowType::kEq, 1, {{x, 1}, {y, -1}});
  s = solver.Solve();
  ASSERT_TRUE(s.ok());
  // x - y = 1, x + y <= 5, x <= 3 -> x=3, y=2.
  EXPECT_NEAR(s.objective, -5, 1e-7);
  solver.SetRhs(3, 0);  // x - y = 0 -> x=y=2.5
  s = solver.Solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -5, 1e-7);
  solver.SetRhs(0, 4);  // x + y <= 4 -> x=y=2
  s = solver.Solve();
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -4, 1e-7);
}

TEST(LpSolver, InvalidateRefactorizesToSameObjective) {
  Rng rng(314);
  Solver solver;
  const int n = 12, m = 8;
  for (int j = 0; j < n; ++j) solver.AddVariable(0, 3, rng.Uniform(-2, 2));
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < n; ++j) row.emplace_back(j, rng.Uniform(0, 1.5));
    solver.AddRow(RowType::kLe, rng.Uniform(3, 9), row);
  }
  Solution s1 = solver.Solve();
  ASSERT_TRUE(s1.ok());
  solver.Invalidate();
  Solution s2 = solver.Solve();
  ASSERT_TRUE(s2.ok());
  EXPECT_NEAR(s1.objective, s2.objective, 1e-7);
}

// Drift regression for long-lived solvers: hundreds of controller-epoch
// style mutations (rhs retargets + nonbasic coefficient deltas) re-solved
// warm must keep matching a cold rebuild of the equivalent Problem. The
// periodic refactorization guard (SolveOptions::refactor_interval) is what
// bounds the accumulated factorization error; run the same sequence with an
// aggressive interval and with the default to cover both trigger paths.
TEST(LpSolver, PeriodicRefactorizationBoundsDriftAcrossEpochs) {
  for (int interval : {4, 0}) {
    SolveOptions opt;
    opt.refactor_interval = interval;
    Rng rng(777);
    Solver solver(opt);
    const int n = 16, m = 10;
    std::vector<double> obj(n), lo(n, 0.0), hi(n, 4.0);
    std::vector<std::vector<std::pair<int, double>>> rows(m);
    std::vector<double> rhs(m);
    for (int j = 0; j < n; ++j) {
      obj[static_cast<size_t>(j)] = rng.Uniform(-2, 2);
      solver.AddVariable(0, 4, obj[static_cast<size_t>(j)]);
    }
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        rows[static_cast<size_t>(i)].emplace_back(j, rng.Uniform(0, 1.5));
      }
      rhs[static_cast<size_t>(i)] = rng.Uniform(4, 12);
      solver.AddRow(RowType::kLe, rhs[static_cast<size_t>(i)],
                    rows[static_cast<size_t>(i)]);
    }

    for (int epoch = 0; epoch < 120; ++epoch) {
      // Demand retarget: shift a row's rhs.
      int r = static_cast<int>(rng.NextIndex(m));
      rhs[static_cast<size_t>(r)] =
          std::max(1.0, rhs[static_cast<size_t>(r)] + rng.Uniform(-0.5, 0.5));
      solver.SetRhs(r, rhs[static_cast<size_t>(r)]);
      // Coefficient delta on a (possibly nonbasic) variable.
      int r2 = static_cast<int>(rng.NextIndex(m));
      int v = static_cast<int>(rng.NextIndex(n));
      double delta = rng.Uniform(-0.1, 0.1);
      solver.AddToRow(r2, v, delta);
      for (auto& [var, c] : rows[static_cast<size_t>(r2)]) {
        if (var == v) c += delta;
      }

      Solution warm = solver.Solve();
      ASSERT_TRUE(warm.ok()) << "interval " << interval << " epoch " << epoch;
      if (epoch % 10 != 0) continue;
      Problem p;
      for (int j = 0; j < n; ++j) {
        p.AddVariable(0, 4, obj[static_cast<size_t>(j)]);
      }
      for (int i = 0; i < m; ++i) {
        p.AddRow(RowType::kLe, rhs[static_cast<size_t>(i)],
                 rows[static_cast<size_t>(i)]);
      }
      Solution cold = Solve(p);
      ASSERT_TRUE(cold.ok());
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 * (1 + std::abs(cold.objective)))
          << "interval " << interval << " epoch " << epoch;
    }
  }
}

// Regression for the Harris ratio-test tie window: two blocking rows whose
// ratios differ by 5e-10 — inside the tie window — with the larger ratio
// carrying a 1e6-times-larger pivot. The tie break must pick the stable
// pivot AND step that row's exact ratio so the leaving variable lands on
// the bound it is pinned at. The old single-pass test kept the smaller
// step while pinning the big-pivot equality slack at a bound it was
// (ratio gap) * 1e6 = 5e-4 short of, so the returned point violated the
// equality row by that much.
TEST(Lp, HarrisTieWindowDoesNotInjectBoundInfeasibility) {
  Problem p;
  int x = p.AddVariable(0, 10, -1);
  int z = p.AddVariable(0, 10, 0);
  double rhs = 1e6 * (1.0 + 5e-10);
  p.AddRow(RowType::kLe, 1.0, {{x, 1.0}});
  p.AddRow(RowType::kEq, rhs, {{x, 1e6}, {z, 1.0}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok()) << ToString(s.status);
  // The equality must be honored absolutely; the tied <= row may be overshot
  // by at most the tie window, which the feasibility tolerance absorbs.
  EXPECT_NEAR(1e6 * s.values[0] + s.values[1], rhs, 1e-5);
  EXPECT_LE(s.values[0], 1.0 + 1e-6);
  EXPECT_NEAR(s.objective, -1.0, 1e-6);
}

// Variant where BOTH tied rows carry huge pivots (1e6 and 2e6): stepping
// the larger-pivot row's larger ratio would overshoot the other row by
// (ratio gap) * 1e6 = 5e-4 — far beyond the feasibility tolerance. The
// per-row tie window (kTieTol / |alpha|) must exclude the larger-ratio row
// and step the true minimum, leaving both equalities exactly satisfied
// without a repair excursion.
TEST(Lp, HarrisTieWindowBoundsOvershootWithSymmetricLargePivots) {
  Problem p;
  int x = p.AddVariable(0, 10, -1);
  int z1 = p.AddVariable(0, 10, 0);
  int z2 = p.AddVariable(0, 10, 0);
  double rhs1 = 1e6 * 1.0;
  double rhs2 = 2e6 * (1.0 + 5e-10);
  p.AddRow(RowType::kEq, rhs1, {{x, 1e6}, {z1, 1.0}});
  p.AddRow(RowType::kEq, rhs2, {{x, 2e6}, {z2, 1.0}});
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok()) << ToString(s.status);
  EXPECT_NEAR(1e6 * s.values[0] + s.values[1], rhs1, 1e-5);
  EXPECT_NEAR(2e6 * s.values[0] + s.values[2], rhs2, 1e-5);
}

// The same tie shape recreated across warm re-solves: every warm objective
// must match a cold rebuild of the mutated problem, i.e. the tie handling
// leaves no residual inconsistency behind for later pivots to amplify.
TEST(LpSolver, TieWindowWarmResolvesMatchCold) {
  const double tie = 1e6 * (1.0 + 5e-10);
  auto cold = [&](double cap) {
    Problem p;
    int x = p.AddVariable(0, 10, -1);
    int y = p.AddVariable(0, 10, -1);
    p.AddRow(RowType::kLe, cap, {{x, 1}, {y, 1}});
    p.AddRow(RowType::kLe, tie, {{x, 1e6}});
    p.AddRow(RowType::kLe, tie, {{y, 1e6}});
    Solution s = Solve(p);
    EXPECT_TRUE(s.ok()) << ToString(s.status);
    return s.objective;
  };
  Solver solver;
  int x = solver.AddVariable(0, 10, -1);
  int y = solver.AddVariable(0, 10, -1);
  int cap_row = solver.AddRow(RowType::kLe, 2.0, {{x, 1}, {y, 1}});
  solver.AddRow(RowType::kLe, tie, {{x, 1e6}});
  solver.AddRow(RowType::kLe, tie, {{y, 1e6}});
  for (double cap : {2.0, 1.5, 1.75, 1.0, 2.0}) {
    solver.SetRhs(cap_row, cap);
    Solution warm = solver.Solve();
    ASSERT_TRUE(warm.ok()) << ToString(warm.status) << " cap " << cap;
    EXPECT_NEAR(warm.objective, cold(cap), 1e-6) << "cap " << cap;
  }
}

// Hardening regression for the runtime tiny-pivot guard: with the periodic
// refactorization guard disabled and coefficient scales spanning ten orders
// of magnitude, a long mutation/re-solve epoch must never corrupt state —
// every warm solve matches a cold rebuild. If factorization drift ever produces a
// numerically-zero pivot, the solver must recover through forced
// refactorization (counted in Solution::lp_pivot_recoveries) instead of
// dividing by it, which is what the old NDEBUG-stripped assert allowed.
TEST(LpSolver, PathologicalScalesStayConsistentWithRefactorGuardDisabled) {
  SolveOptions opt;
  opt.refactor_interval = -1;  // never refactorize on schedule
  Rng rng(4242);
  Solver solver(opt);
  const int n = 12, m = 8;
  std::vector<double> obj(n);
  std::vector<std::vector<std::pair<int, double>>> rows(m);
  std::vector<double> rhs(m);
  for (int j = 0; j < n; ++j) {
    obj[static_cast<size_t>(j)] = rng.Uniform(-2, 2);
    solver.AddVariable(0, 4, obj[static_cast<size_t>(j)]);
  }
  for (int i = 0; i < m; ++i) {
    // Mix 1e-5 .. 1e5 coefficient scales to stress the pivot magnitudes.
    double scale = std::pow(10.0, rng.Uniform(-5, 5));
    for (int j = 0; j < n; ++j) {
      rows[static_cast<size_t>(i)].emplace_back(
          j, scale * rng.Uniform(0.1, 1.5));
    }
    rhs[static_cast<size_t>(i)] = scale * rng.Uniform(4, 12);
    solver.AddRow(RowType::kLe, rhs[static_cast<size_t>(i)],
                  rows[static_cast<size_t>(i)]);
  }
  for (int epoch = 0; epoch < 60; ++epoch) {
    int r = static_cast<int>(rng.NextIndex(m));
    double scale = std::abs(rhs[static_cast<size_t>(r)]) + 1.0;
    rhs[static_cast<size_t>(r)] =
        std::max(0.5, rhs[static_cast<size_t>(r)] +
                          scale * rng.Uniform(-0.05, 0.05));
    solver.SetRhs(r, rhs[static_cast<size_t>(r)]);
    int r2 = static_cast<int>(rng.NextIndex(m));
    int v = static_cast<int>(rng.NextIndex(n));
    double delta = rng.Uniform(-0.01, 0.01);
    solver.AddToRow(r2, v, delta);
    for (auto& [var, c] : rows[static_cast<size_t>(r2)]) {
      if (var == v) c += delta;
    }
    Solution warm = solver.Solve();
    ASSERT_TRUE(warm.ok()) << ToString(warm.status) << " epoch " << epoch;
    if (epoch % 12 != 0) continue;
    Problem p;
    for (int j = 0; j < n; ++j) p.AddVariable(0, 4, obj[static_cast<size_t>(j)]);
    for (int i = 0; i < m; ++i) {
      p.AddRow(RowType::kLe, rhs[static_cast<size_t>(i)],
               rows[static_cast<size_t>(i)]);
    }
    Solution cold = Solve(p);
    ASSERT_TRUE(cold.ok());
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-5 * (1 + std::abs(cold.objective)))
        << "epoch " << epoch;
  }
}

// --- warm mutation sequences -------------------------------------------------

// Randomized interleavings of every structural-delta entry point —
// AddColumn / AddRow / AddToRow / SetRhs — with warm re-solves. After each
// Solve the incremental solver must carry a KKT certificate for the
// accumulated problem (tests/kkt.h: primal feasibility, dual signs,
// complementary slackness) and agree with a one-shot solve of it on the
// objective. Instances keep x = 0 feasible throughout (kLe rows keep
// rhs >= 0, kGe rows keep rhs <= 0, lower bounds at 0) so the parity target
// is always optimal, never infeasible, and boxes keep it bounded.
class LpMutationSequenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LpMutationSequenceTest, WarmSolverMatchesOneShotAcrossMutations) {
  Rng rng(static_cast<uint64_t>(11000 + GetParam()));
  struct ShadowRow {
    RowType type;
    double rhs;
    std::vector<std::pair<int, double>> coeffs;
  };
  std::vector<double> hi, obj;
  std::vector<ShadowRow> rows;
  Solver solver;

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
    int v = solver.AddColumn(0, h, c, coeffs);
    EXPECT_EQ(v, static_cast<int>(hi.size()));
    hi.push_back(h);
    obj.push_back(c);
  };
  auto add_row = [&] {
    ShadowRow row;
    row.type = rng.NextIndex(2) == 0 ? RowType::kLe : RowType::kGe;
    row.rhs = rand_rhs(row.type);
    for (size_t j = 0; j < hi.size(); ++j) {
      if (rng.NextIndex(3) != 0) continue;
      row.coeffs.emplace_back(static_cast<int>(j), rng.Uniform(-2, 2));
    }
    int r = solver.AddRow(row.type, row.rhs, row.coeffs);
    EXPECT_EQ(r, static_cast<int>(rows.size()));
    rows.push_back(std::move(row));
  };
  auto check_parity = [&](int step) {
    Solution warm = solver.Solve();
    ASSERT_TRUE(warm.ok()) << ToString(warm.status) << " step " << step;
    Problem p;
    for (size_t j = 0; j < hi.size(); ++j) p.AddVariable(0, hi[j], obj[j]);
    for (const ShadowRow& row : rows) p.AddRow(row.type, row.rhs, row.coeffs);
    EXPECT_EQ(KktViolation(p, warm, &solver), "") << "step " << step;
    Solver fresh(p);
    Solution cold = fresh.Solve();
    ASSERT_TRUE(cold.ok()) << ToString(cold.status) << " step " << step;
    EXPECT_EQ(KktViolation(p, cold, &fresh), "") << "step " << step;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1 + std::abs(cold.objective)))
        << "step " << step;
  };

  for (int j = 0; j < 4; ++j) add_column();
  for (int r = 0; r < 3; ++r) add_row();
  check_parity(-1);
  for (int step = 0; step < 40; ++step) {
    switch (rng.NextIndex(6)) {
      case 0:
      case 1:
        add_column();
        break;
      case 2:
        add_row();
        break;
      case 3: {  // AddToRow on a random (row, var)
        if (rows.empty() || hi.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        int v = static_cast<int>(rng.NextIndex(hi.size()));
        double delta = rng.Uniform(-0.5, 0.5);
        solver.AddToRow(static_cast<int>(r), v, delta);
        bool found = false;
        for (auto& [var, c] : rows[r].coeffs) {
          if (var == v) {
            c += delta;
            found = true;
            break;
          }
        }
        if (!found) rows[r].coeffs.emplace_back(v, delta);
        break;
      }
      default: {  // SetRhs keeping the x = 0 feasibility convention
        if (rows.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        rows[r].rhs = rand_rhs(rows[r].type);
        solver.SetRhs(static_cast<int>(r), rows[r].rhs);
        break;
      }
    }
    if (step % 5 == 4) check_parity(step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpMutationSequenceTest, ::testing::Range(1, 21));

// The certificate must be able to fail: min x0 + 2 x1 s.t. x0 + x1 >= 1,
// x in [0, 4] has the unique optimum x = (1, 0) with row dual 1 and x1's
// reduced cost 1. Each perturbation of the returned point or duals below
// breaks one KKT condition.
TEST(LpKkt, CertificateRejectsPerturbedValuesAndDuals) {
  Problem p;
  p.AddVariable(0, 4, 1.0);
  p.AddVariable(0, 4, 2.0);
  p.AddRow(RowType::kGe, 1.0, {{0, 1.0}, {1, 1.0}});
  Solver solver(p);
  Solution s = solver.Solve();
  ASSERT_TRUE(s.ok());
  std::vector<double> y = solver.RowDuals();
  ASSERT_EQ(y.size(), 1u);
  EXPECT_NEAR(y[0], 1.0, 1e-9);
  ASSERT_EQ(KktViolation(p, s.values, y), "");

  std::vector<double> x = s.values;
  x[0] -= 0.1;  // row violated
  EXPECT_NE(KktViolation(p, x, y).find("primal"), std::string::npos);
  x = s.values;
  x[0] -= 0.1;  // still feasible and tight, but x1 leaves its bound while
  x[1] += 0.1;  // its reduced cost is 1
  EXPECT_NE(KktViolation(p, x, y).find("reduced cost"), std::string::npos);
  std::vector<double> yp = {-0.5};  // a >= row cannot carry a negative dual
  EXPECT_NE(KktViolation(p, s.values, yp).find("dual"), std::string::npos);
  yp = {1.5};  // interior x0 would need a zero reduced cost
  EXPECT_NE(KktViolation(p, s.values, yp).find("reduced cost"),
            std::string::npos);

  // Complementary slackness: with rhs 0 the row is slack at the optimum
  // x = 0, so any nonzero dual on it is rejected.
  Problem slack;
  slack.AddVariable(0, 4, 1.0);
  slack.AddRow(RowType::kLe, 3.0, {{0, 1.0}});
  Solver slack_solver(slack);
  Solution z = slack_solver.Solve();
  ASSERT_EQ(KktViolation(slack, z, &slack_solver), "");
  EXPECT_NE(KktViolation(slack, z.values, {-0.5}).find("slackness"),
            std::string::npos);
}

// The simplex inner loop must not allocate: FTRAN result, ratio-test scratch
// and the pricing candidate list are all reused member buffers. After one
// warm-up solve per phase has grown every scratch to capacity, a re-solve
// that runs real pivots may allocate only the returned Solution::values
// buffer — a handful of allocations regardless of how many iterations run.
TEST(LpSolver, WarmResolveInnerLoopIsAllocationFree) {
  RoutingShaped p = RoutingShaped::Random(90210, /*groups=*/12, /*links=*/10);
  Solver solver;
  int omax = solver.AddVariable(1, kInfinity, 1e6);
  std::vector<int> eq_rows;
  {
    std::vector<std::vector<std::pair<int, double>>> link_terms(
        static_cast<size_t>(p.links));
    for (int a = 0; a < p.groups; ++a) {
      std::vector<std::pair<int, double>> sum_row;
      for (const auto& pv : p.stage_a[static_cast<size_t>(a)]) {
        int v = solver.AddVariable(0, 1, pv.obj);
        sum_row.emplace_back(v, 1.0);
        for (const auto& [l, demand] : pv.links) {
          link_terms[static_cast<size_t>(l)].emplace_back(v, demand);
        }
      }
      eq_rows.push_back(solver.AddRow(RowType::kEq, 1.0, sum_row));
    }
    for (int l = 0; l < p.links; ++l) {
      int ol = solver.AddVariable(1, kInfinity, 1.0);
      auto row = link_terms[static_cast<size_t>(l)];
      row.emplace_back(ol, -p.cap);
      solver.AddRow(RowType::kLe, 0.0, row);
      solver.AddRow(RowType::kLe, 0.0, {{ol, 1.0}, {omax, -1.0}});
    }
  }
  Solution s0 = solver.Solve();
  ASSERT_TRUE(s0.ok());
  // Warm up the refactorization scratch and the phase-1 buffers: an
  // invalidated re-solve plus one rhs perturbation that forces a repair.
  solver.Invalidate();
  ASSERT_TRUE(solver.Solve().ok());
  for (size_t a = 0; a < eq_rows.size(); a += 2) {
    solver.SetRhs(eq_rows[a], 0.9);
  }
  ASSERT_TRUE(solver.Solve().ok());

  // The measured re-solve: perturb again so phases 1 and 2 both run pivots.
  for (size_t a = 0; a < eq_rows.size(); ++a) {
    solver.SetRhs(eq_rows[a], a % 2 == 0 ? 1.0 : 0.8);
  }
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  Solution s = solver.Solve();
  g_count_allocations.store(false);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s.lp_iterations, 0);  // the loop actually ran
  // Solution::values is the only per-solve buffer; everything the iterations
  // touch is reused. A small slack covers one-off scratch growth, but the
  // count must not scale with s.lp_iterations.
  EXPECT_LE(g_allocation_count.load(), 8)
      << "inner loop allocated; iterations=" << s.lp_iterations;
}

TEST(SolveStats, MergeAddsCountersAndKeepsPeaks) {
  SolveStats a;
  a.lp_columns_priced = 100;
  a.lp_iterations = 10;
  a.lp_pivots = 8;
  a.lp_ftran_nnz = 40;
  a.lp_basis_bytes = 4096;
  a.lp_lu_nnz = 50;
  a.lp_eta_count = 3;
  a.lp_fill_ratio = 1.5;
  a.lp_refactorizations = 1;
  a.lp_pivot_recoveries = 0;
  a.lp_dual_pivots = 0;
  a.lp_bound_flips = 2;
  a.lp_warm_restart = 0;

  SolveStats b;
  b.lp_columns_priced = 7;
  b.lp_iterations = 5;
  b.lp_pivots = 4;
  b.lp_ftran_nnz = 9;
  b.lp_basis_bytes = 8192;
  b.lp_lu_nnz = 30;
  b.lp_eta_count = 6;
  b.lp_fill_ratio = 1.25;
  b.lp_refactorizations = 2;
  b.lp_pivot_recoveries = 1;
  b.lp_dual_pivots = 3;
  b.lp_bound_flips = 1;
  b.lp_warm_restart = 1;

  SolveStats c;  // a solve that entered the dual restart and did little else
  c.lp_iterations = 1;
  c.lp_dual_pivots = 1;
  c.lp_warm_restart = 1;

  SolveStats total;
  total.Merge(a);
  total.Merge(b);
  total.Merge(c);
  // Counters add.
  EXPECT_EQ(total.lp_columns_priced, 107);
  EXPECT_EQ(total.lp_iterations, 16);
  EXPECT_EQ(total.lp_pivots, 12);
  EXPECT_EQ(total.lp_ftran_nnz, 49);
  EXPECT_EQ(total.lp_refactorizations, 3);
  EXPECT_EQ(total.lp_pivot_recoveries, 1);
  EXPECT_EQ(total.lp_dual_pivots, 4);
  EXPECT_EQ(total.lp_bound_flips, 3);
  // The peaks take the max, whichever record holds it.
  EXPECT_EQ(total.lp_basis_bytes, 8192u);
  EXPECT_EQ(total.lp_lu_nnz, 50);
  EXPECT_EQ(total.lp_eta_count, 6);
  EXPECT_EQ(total.lp_fill_ratio, 1.5);
  // Two of the three solves entered the dual restart.
  EXPECT_EQ(total.lp_warm_restart, 2);
}

TEST(Lp, ModerateSizePerformance) {
  // A ~100x300 LP should solve quickly and correctly: min sum x_j subject to
  // random cover rows; optimum well-defined and feasible.
  Rng rng(99);
  Problem p;
  const size_t n = 300;
  const int m = 100;
  std::vector<int> vars(n);
  for (size_t j = 0; j < n; ++j) vars[j] = p.AddVariable(0, 1, 1);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int t = 0; t < 10; ++t) {
      row.emplace_back(vars[static_cast<size_t>(rng.NextIndex(n))], 1.0);
    }
    p.AddRow(RowType::kGe, 1.0, row);
  }
  Solution s = Solve(p);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s.objective, 0);
  EXPECT_LE(s.objective, static_cast<double>(m) + 1e-6);
}

}  // namespace
}  // namespace ldr::lp
