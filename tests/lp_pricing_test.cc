// Pricing-equivalence property tests: partial (candidate-list) pricing and
// full Dantzig pricing are different *search orders* over the same simplex —
// they must reach the same optimum. Random bounded LPs and the zoo-corpus
// Fig. 13 loop are solved both ways and compared, and every optimal solve of
// the randomized LPs carries a KKT certificate (tests/kkt.h); the partial
// mode must also actually do what it exists for, pricing fewer columns per
// iteration than a full sweep on LPs of routing scale.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "graph/ksp.h"
#include "lp/lp.h"
#include "routing/lp_routing.h"
#include "sim/workload.h"
#include "tests/kkt.h"
#include "topology/zoo_corpus.h"
#include "util/random.h"

namespace ldr {
namespace {

lp::SolveOptions WithMode(lp::PricingMode mode) {
  lp::SolveOptions so;
  so.pricing.mode = mode;
  return so;
}

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

class LpPricingEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPricingEquivalenceTest, PartialMatchesFullDantzigOnRandomLps) {
  uint64_t seed = static_cast<uint64_t>(9000 + GetParam());
  lp::Problem p = RandomBoundedLp(seed, /*n=*/60, /*m=*/25);

  // Alternate optimal vertices may differ in values; the objective and the
  // KKT certificate of each are what the LP pins down.
  lp::Solution full = SolveCertified(p, WithMode(lp::PricingMode::kDantzig));
  lp::Solution part = SolveCertified(p, WithMode(lp::PricingMode::kPartial));
  ASSERT_EQ(full.status, part.status) << "seed " << seed;
  if (!full.ok()) return;  // both agree on non-optimal status
  EXPECT_NEAR(full.objective, part.objective,
              1e-6 * (1 + std::abs(full.objective)))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPricingEquivalenceTest,
                         ::testing::Range(1, 41));

// A tight candidate list and sweep force many refresh cycles (including the
// full-wrap optimality sweep); the optimum must not depend on the schedule.
TEST(LpPricing, TinyCandidateListStillReachesOptimum) {
  for (int seed = 1; seed <= 10; ++seed) {
    lp::Problem p = RandomBoundedLp(static_cast<uint64_t>(400 + seed), 80, 30);
    lp::Solution full = SolveCertified(p, WithMode(lp::PricingMode::kDantzig));
    lp::SolveOptions tight = WithMode(lp::PricingMode::kPartial);
    tight.pricing.candidate_list = 2;
    tight.pricing.sweep = 8;
    lp::Solution part = SolveCertified(p, tight);
    ASSERT_EQ(full.status, part.status) << "seed " << seed;
    if (!full.ok()) continue;
    EXPECT_NEAR(full.objective, part.objective,
                1e-6 * (1 + std::abs(full.objective)))
        << "seed " << seed;
  }
}

// On LPs of routing scale the candidate list must pay off: strictly fewer
// columns priced per iteration than the full sweep, same optimum.
TEST(LpPricing, PartialPricesFewerColumnsPerIterationAtScale) {
  long full_cols = 0, full_iters = 0, part_cols = 0, part_iters = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    lp::Problem p =
        RandomBoundedLp(static_cast<uint64_t>(600 + seed), 500, 120);
    lp::Solution full = lp::Solve(p, WithMode(lp::PricingMode::kDantzig));
    lp::Solution part = lp::Solve(p, WithMode(lp::PricingMode::kPartial));
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(part.ok());
    EXPECT_NEAR(full.objective, part.objective,
                1e-6 * (1 + std::abs(full.objective)));
    full_cols += full.columns_priced;
    full_iters += full.iterations;
    part_cols += part.columns_priced;
    part_iters += part.iterations;
  }
  ASSERT_GT(full_iters, 0);
  ASSERT_GT(part_iters, 0);
  double full_per_iter =
      static_cast<double>(full_cols) / static_cast<double>(full_iters);
  double part_per_iter =
      static_cast<double>(part_cols) / static_cast<double>(part_iters);
  EXPECT_LT(part_per_iter, full_per_iter);
}

// Pricing parity on warm mutation sequences: one randomized mutation
// sequence (AddColumn / AddRow / AddToRow / SetRhs interleaved with warm
// re-solves) driven through a kPartial and a kDantzig solver in lockstep.
// At every checkpoint both must carry a KKT certificate for the accumulated
// problem and agree with each other AND with a one-shot solve of it.
class LpPricingMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPricingMutationTest, MutationSequenceAgreesAcrossPricingModes) {
  Rng rng(static_cast<uint64_t>(15000 + GetParam()));
  lp::Solver part(WithMode(lp::PricingMode::kPartial));
  lp::Solver full(WithMode(lp::PricingMode::kDantzig));
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
    part.AddColumn(0, h, c, coeffs);
    full.AddColumn(0, h, c, coeffs);
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
    part.AddRow(row.type, row.rhs, row.coeffs);
    full.AddRow(row.type, row.rhs, row.coeffs);
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
        part.AddToRow(static_cast<int>(r), v, delta);
        full.AddToRow(static_cast<int>(r), v, delta);
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
        part.SetRhs(static_cast<int>(r), rows[r].rhs);
        full.SetRhs(static_cast<int>(r), rows[r].rhs);
        break;
      }
    }
    if (step % 6 != 5) continue;
    lp::Solution sp = part.Solve();
    lp::Solution sf = full.Solve();
    ASSERT_TRUE(sp.ok()) << "partial, step " << step;
    ASSERT_TRUE(sf.ok()) << "full, step " << step;
    EXPECT_NEAR(sp.objective, sf.objective,
                1e-6 * (1 + std::abs(sf.objective)))
        << "step " << step;
    lp::Problem p;
    for (size_t j = 0; j < hi.size(); ++j) p.AddVariable(0, hi[j], obj[j]);
    for (const ShadowRow& row : rows) p.AddRow(row.type, row.rhs, row.coeffs);
    EXPECT_EQ(lp::KktViolation(p, sp, &part), "") << "partial, step " << step;
    EXPECT_EQ(lp::KktViolation(p, sf, &full), "") << "full, step " << step;
    lp::Solution cold = SolveCertified(p, {});
    ASSERT_TRUE(cold.ok()) << "cold, step " << step;
    EXPECT_NEAR(sp.objective, cold.objective,
                1e-6 * (1 + std::abs(cold.objective)))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPricingMutationTest, ::testing::Range(1, 13));

// Zoo-corpus slice: the Fig. 13 loop solved end to end with full vs partial
// pricing must agree on feasibility, max level, and total weighted delay
// (the same fingerprint the warm/cold parity anchor uses), and the partial
// mode must price fewer columns per simplex iteration over the slice.
TEST(LpPricing, ZooCorpusSliceParityAndFewerColumns) {
  std::vector<Topology> corpus = ZooCorpus();
  size_t checked = 0;
  long full_cols = 0, full_iters = 0, part_cols = 0, part_iters = 0;
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

    IterativeOptions full_opts;
    full_opts.lp.solve.pricing.mode = lp::PricingMode::kDantzig;
    IterativeOptions part_opts;
    part_opts.lp.solve.pricing.mode = lp::PricingMode::kPartial;
    RoutingOutcome full = IterativeLpRoute(g, aggs, &cache, full_opts);
    RoutingOutcome part = IterativeLpRoute(g, aggs, &cache, part_opts);

    EXPECT_EQ(full.feasible, part.feasible) << t.name;
    EXPECT_NEAR(full.max_level, part.max_level, 1e-6) << t.name;
    double full_delay = 0, part_delay = 0;
    for (size_t a = 0; a < aggs.size(); ++a) {
      full_delay += aggs[a].flow_count *
                    AggregateDelayMs(*full.store, full.allocations[a]);
      part_delay += aggs[a].flow_count *
                    AggregateDelayMs(*part.store, part.allocations[a]);
    }
    EXPECT_NEAR(full_delay, part_delay, 1e-5 * (1 + full_delay)) << t.name;

    full_cols += full.lp_columns_priced;
    full_iters += full.lp_iterations;
    part_cols += part.lp_columns_priced;
    part_iters += part.lp_iterations;
  }
  ASSERT_GE(checked, 3u);
  ASSERT_GT(full_iters, 0);
  ASSERT_GT(part_iters, 0);
  EXPECT_LT(static_cast<double>(part_cols) / static_cast<double>(part_iters),
            static_cast<double>(full_cols) / static_cast<double>(full_iters));
}

}  // namespace
}  // namespace ldr
