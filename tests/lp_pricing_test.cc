// Candidate-list pricing property tests, checked against oracles that
// share no code with the pricing schedule: every optimal solve carries a
// KKT certificate (tests/kkt.h); warm mutation sequences agree with one-shot
// solves of the accumulated problem; the Fig. 13 loop agrees with a fresh
// cold build of the LP over the path sets it grew. Pricing must also do what
// it exists for: price fewer columns per iteration than a full sweep, which
// prices every nonbasic column.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "graph/ksp.h"
#include "lp/lp.h"
#include "routing/lp_routing.h"
#include "sim/workload.h"
#include "tests/cold_build.h"
#include "tests/kkt.h"
#include "topology/zoo_corpus.h"
#include "util/random.h"

namespace ldr {
namespace {

// One-shot solve of `p` that also checks the KKT certificate when optimal.
lp::Solution SolveCertified(const lp::Problem& p, const lp::SolveOptions& so) {
  lp::Solver solver(p, so);
  lp::Solution s = solver.Solve();
  if (s.ok()) {
    EXPECT_EQ(lp::KktViolation(p, s, &solver), "");
  }
  return s;
}

// Random bounded LP with mixed row types and sign-mixed costs. Overload-style
// slack variables keep every instance feasible, mirroring the routing LP's
// always-feasible construction.
lp::Problem RandomBoundedLp(uint64_t seed, int n, int m) {
  Rng rng(seed);
  lp::Problem p;
  std::vector<int> vars(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    double lo = rng.Uniform(-2, 0);
    double hi = lo + rng.Uniform(0.5, 4);
    vars[static_cast<size_t>(j)] = p.AddVariable(lo, hi, rng.Uniform(-3, 3));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> row;
    int nnz = 2 + static_cast<int>(rng.NextIndex(5));
    double lhs_at_zero = 0;
    for (int t = 0; t < nnz; ++t) {
      int v = static_cast<int>(rng.NextIndex(static_cast<uint64_t>(n)));
      double c = rng.Uniform(-2, 2);
      row.emplace_back(vars[static_cast<size_t>(v)], c);
      lhs_at_zero += c;  // worst-case-ish magnitude proxy
    }
    // Keep a comfortably feasible band around the origin region.
    double rhs = std::abs(lhs_at_zero) + rng.Uniform(1, 6);
    if (rng.NextIndex(3) == 0) {
      p.AddRow(lp::RowType::kGe, -rhs, row);
    } else {
      p.AddRow(lp::RowType::kLe, rhs, row);
    }
  }
  return p;
}

class LpPricingCertificateTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPricingCertificateTest, RandomLpsCarryKktCertificate) {
  uint64_t seed = static_cast<uint64_t>(9000 + GetParam());
  lp::Problem p = RandomBoundedLp(seed, /*n=*/60, /*m=*/25);
  // The instances are feasible and bounded by construction.
  lp::Solution s = SolveCertified(p, {});
  EXPECT_TRUE(s.ok()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPricingCertificateTest,
                         ::testing::Range(1, 41));

// A tight candidate list and sweep force many refresh cycles (including the
// full-wrap optimality sweep); the optimum must not depend on the schedule.
TEST(LpPricing, TinyCandidateListStillReachesOptimum) {
  for (int seed = 1; seed <= 10; ++seed) {
    lp::Problem p = RandomBoundedLp(static_cast<uint64_t>(400 + seed), 80, 30);
    lp::Solution wide = SolveCertified(p, {});
    lp::SolveOptions tight;
    tight.pricing.candidate_list = 2;
    tight.pricing.sweep = 8;
    lp::Solution narrow = SolveCertified(p, tight);
    ASSERT_TRUE(wide.ok()) << "seed " << seed;
    ASSERT_TRUE(narrow.ok()) << "seed " << seed;
    EXPECT_NEAR(wide.objective, narrow.objective,
                1e-6 * (1 + std::abs(wide.objective)))
        << "seed " << seed;
  }
}

// On LPs of routing scale the candidate list must pay off: fewer columns
// priced per iteration than a full sweep over the n + m columns, which
// prices the n nonbasic ones (m are always basic).
TEST(LpPricing, PricesFewerColumnsPerIterationThanAFullSweepAtScale) {
  for (int seed = 1; seed <= 5; ++seed) {
    lp::Problem p =
        RandomBoundedLp(static_cast<uint64_t>(600 + seed), 500, 120);
    lp::Solution s = SolveCertified(p, {});
    ASSERT_TRUE(s.ok()) << "seed " << seed;
    ASSERT_GT(s.lp_iterations, 0);
    EXPECT_LT(static_cast<double>(s.lp_columns_priced) /
                  static_cast<double>(s.lp_iterations),
              static_cast<double>(p.VariableCount()))
        << "seed " << seed;
  }
}

// Warm mutation sequences: one randomized sequence of AddColumn / AddRow /
// AddToRow / SetRhs interleaved with warm re-solves. At every checkpoint
// the warm solver must carry a KKT certificate for the accumulated problem
// and agree with a one-shot solve of it.
class LpPricingMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPricingMutationTest, MutationSequenceStaysCertified) {
  Rng rng(static_cast<uint64_t>(15000 + GetParam()));
  lp::Solver warm;
  struct ShadowRow {
    lp::RowType type;
    double rhs;
    std::vector<std::pair<int, double>> coeffs;
  };
  std::vector<double> hi, obj;
  std::vector<ShadowRow> rows;

  auto rand_rhs = [&](lp::RowType type) {
    return type == lp::RowType::kLe ? rng.Uniform(0.5, 6) : -rng.Uniform(0.5, 6);
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
    warm.AddColumn(0, h, c, coeffs);
    hi.push_back(h);
    obj.push_back(c);
  };
  auto add_row = [&] {
    ShadowRow row;
    row.type = rng.NextIndex(2) == 0 ? lp::RowType::kLe : lp::RowType::kGe;
    row.rhs = rand_rhs(row.type);
    for (size_t j = 0; j < hi.size(); ++j) {
      if (rng.NextIndex(3) != 0) continue;
      row.coeffs.emplace_back(static_cast<int>(j), rng.Uniform(-2, 2));
    }
    warm.AddRow(row.type, row.rhs, row.coeffs);
    rows.push_back(std::move(row));
  };

  for (int j = 0; j < 6; ++j) add_column();
  for (int r = 0; r < 4; ++r) add_row();
  for (int step = 0; step < 30; ++step) {
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
        warm.AddToRow(static_cast<int>(r), v, delta);
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
      default: {
        if (rows.empty()) break;
        size_t r = rng.NextIndex(rows.size());
        rows[r].rhs = rand_rhs(rows[r].type);
        warm.SetRhs(static_cast<int>(r), rows[r].rhs);
        break;
      }
    }
    if (step % 6 != 5) continue;
    lp::Solution sw = warm.Solve();
    ASSERT_TRUE(sw.ok()) << "warm, step " << step;
    lp::Problem p;
    for (size_t j = 0; j < hi.size(); ++j) p.AddVariable(0, hi[j], obj[j]);
    for (const ShadowRow& row : rows) p.AddRow(row.type, row.rhs, row.coeffs);
    EXPECT_EQ(lp::KktViolation(p, sw, &warm), "") << "warm, step " << step;
    lp::Solution cold = SolveCertified(p, {});
    ASSERT_TRUE(cold.ok()) << "cold, step " << step;
    EXPECT_NEAR(sw.objective, cold.objective,
                1e-6 * (1 + std::abs(cold.objective)))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPricingMutationTest, ::testing::Range(1, 13));

// Zoo-corpus slice: the Fig. 13 loop, run warm through an LpReuseContext,
// must reach the optimum of a cold build of its final LP (tests/cold_build.h)
// in both LP modes, and the cold solves must price fewer columns than full
// sweeps would: a full sweep prices at least the path-fraction columns of
// the LP every iteration.
TEST(LpPricing, ZooCorpusSliceMatchesColdBuildAndPricesFewerColumns) {
  std::vector<Topology> corpus = ZooCorpus();
  size_t checked = 0;
  double priced = 0, full_sweeps = 0;
  for (size_t ti = 0; ti < corpus.size(); ti += 11) {
    const Topology& t = corpus[ti];
    const Graph& g = t.graph;
    if (g.NodeCount() > 36) continue;
    ++checked;
    KspCache cache(&g);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.seed = 4321 + ti;
    std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];

    for (bool minmax : {false, true}) {
      IterativeOptions opts;
      opts.lp.minmax = minmax;
      LpReuseContext reuse;
      IterativeLpRoute(g, aggs, &cache, opts, &reuse);
      ASSERT_NE(reuse.lp, nullptr) << t.name;
      ColdBuild cb = SolveColdBuild(*cache.store(), aggs, opts, &reuse);
      EXPECT_TRUE(WarmMatchesColdBuild(cb))
          << t.name << (minmax ? " minmax" : " ldr");

      size_t path_columns = 0;
      for (const auto& plist : reuse.paths) {
        if (plist.size() > 1) path_columns += plist.size();
      }
      priced += static_cast<double>(cb.cold.lp_columns_priced);
      full_sweeps += static_cast<double>(cb.cold.lp_iterations) *
                     static_cast<double>(path_columns);
    }
  }
  ASSERT_GE(checked, 3u);
  ASSERT_GT(full_sweeps, 0);
  EXPECT_LT(priced, full_sweeps);
}

}  // namespace
}  // namespace ldr
