// Routing-shaped LP generators shared by the solver microbenches
// (bench/micro_lp.cc) and the perf-trajectory tool (tools/bench_to_json).
//
// The shape mirrors what IncrementalRoutingLp builds for the Fig. 12 program:
// groups of path-fraction columns summing to 1, shared capacity rows with
// per-link overload variables, and a dominant Omax term. "Growth" is one
// Fig. 13 round: a fraction of the groups gain one extra path column. The
// same spec can be materialized three ways — a cold Problem (with or
// without the growth), or a warm Solver that first solves the base and then
// has the growth appended through AddColumn — so warm-vs-cold comparisons
// time exactly the same LP content.
#ifndef LDR_BENCH_LP_SHAPES_H_
#define LDR_BENCH_LP_SHAPES_H_

#include <utility>
#include <vector>

#include "lp/lp.h"
#include "util/random.h"

namespace ldr::bench {

struct RoutingLpSpec {
  struct PathCol {
    int group;
    double obj;
    double demand;
    std::vector<int> hops;  // link indices
  };
  int groups = 0;
  int links = 0;
  double link_cap = 10.0;
  std::vector<PathCol> base;    // three paths per group
  std::vector<PathCol> growth;  // one appended path for ~20% of groups

  static RoutingLpSpec Random(uint64_t seed, int groups, int links) {
    Rng rng(seed);
    RoutingLpSpec spec;
    spec.groups = groups;
    spec.links = links;
    auto make_path = [&](int group, double demand) {
      PathCol c;
      c.group = group;
      c.obj = rng.Uniform(1, 20);
      c.demand = demand;
      for (int h = 0; h < 3; ++h) {
        c.hops.push_back(
            static_cast<int>(rng.NextIndex(static_cast<uint64_t>(links))));
      }
      return c;
    };
    std::vector<double> demand(static_cast<size_t>(groups));
    for (int a = 0; a < groups; ++a) {
      demand[static_cast<size_t>(a)] = rng.Uniform(0.5, 2.0);
      for (int k = 0; k < 3; ++k) {
        spec.base.push_back(make_path(a, demand[static_cast<size_t>(a)]));
      }
    }
    for (int a = 0; a < groups; a += 5) {
      spec.growth.push_back(make_path(a, demand[static_cast<size_t>(a)]));
    }
    return spec;
  }
};

// Cold build: the full problem, optionally including the growth columns
// folded into their groups' equality rows and the link terms.
inline lp::Problem BuildProblem(const RoutingLpSpec& spec, bool with_growth) {
  lp::Problem p;
  int omax = p.AddVariable(1, lp::kInfinity, 1e6);
  std::vector<std::vector<std::pair<int, double>>> link_terms(
      static_cast<size_t>(spec.links));
  std::vector<std::vector<std::pair<int, double>>> eq_terms(
      static_cast<size_t>(spec.groups));
  auto add_col = [&](const RoutingLpSpec::PathCol& c) {
    int v = p.AddVariable(0, 1, c.obj);
    eq_terms[static_cast<size_t>(c.group)].emplace_back(v, 1.0);
    for (int l : c.hops) {
      link_terms[static_cast<size_t>(l)].emplace_back(v, c.demand);
    }
  };
  for (const auto& c : spec.base) add_col(c);
  if (with_growth) {
    for (const auto& c : spec.growth) add_col(c);
  }
  for (auto& terms : eq_terms) {
    p.AddRow(lp::RowType::kEq, 1.0, std::move(terms));
  }
  for (int l = 0; l < spec.links; ++l) {
    int ol = p.AddVariable(1, lp::kInfinity, 1.0);
    auto row = link_terms[static_cast<size_t>(l)];
    row.emplace_back(ol, -spec.link_cap);
    p.AddRow(lp::RowType::kLe, 0.0, std::move(row));
    p.AddRow(lp::RowType::kLe, 0.0, {{ol, 1.0}, {omax, -1.0}});
  }
  return p;
}

// Warm build: the base problem loaded into a long-lived Solver, with the
// row ids needed to append the growth later.
struct WarmLp {
  lp::Solver solver;
  std::vector<int> eq_rows;    // per group
  std::vector<int> link_rows;  // per link
};

inline WarmLp BuildSolverBase(const RoutingLpSpec& spec,
                              const lp::SolveOptions& options = {}) {
  WarmLp warm;
  warm.solver = lp::Solver(options);
  int omax = warm.solver.AddVariable(1, lp::kInfinity, 1e6);
  std::vector<std::vector<std::pair<int, double>>> link_terms(
      static_cast<size_t>(spec.links));
  std::vector<std::vector<std::pair<int, double>>> eq_terms(
      static_cast<size_t>(spec.groups));
  for (const auto& c : spec.base) {
    int v = warm.solver.AddVariable(0, 1, c.obj);
    eq_terms[static_cast<size_t>(c.group)].emplace_back(v, 1.0);
    for (int l : c.hops) {
      link_terms[static_cast<size_t>(l)].emplace_back(v, c.demand);
    }
  }
  for (auto& terms : eq_terms) {
    warm.eq_rows.push_back(warm.solver.AddRow(lp::RowType::kEq, 1.0, terms));
  }
  for (int l = 0; l < spec.links; ++l) {
    int ol = warm.solver.AddVariable(1, lp::kInfinity, 1.0);
    auto row = link_terms[static_cast<size_t>(l)];
    row.emplace_back(ol, -spec.link_cap);
    warm.link_rows.push_back(
        warm.solver.AddRow(lp::RowType::kLe, 0.0, row));
    warm.solver.AddRow(lp::RowType::kLe, 0.0, {{ol, 1.0}, {omax, -1.0}});
  }
  return warm;
}

// One growth round appended into the live solver.
inline void AppendGrowth(const RoutingLpSpec& spec, WarmLp* warm) {
  for (const auto& c : spec.growth) {
    std::vector<std::pair<int, double>> coeffs;
    coeffs.emplace_back(warm->eq_rows[static_cast<size_t>(c.group)], 1.0);
    for (int l : c.hops) {
      coeffs.emplace_back(warm->link_rows[static_cast<size_t>(l)], c.demand);
    }
    warm->solver.AddColumn(0, 1, c.obj, coeffs);
  }
}

}  // namespace ldr::bench

#endif  // LDR_BENCH_LP_SHAPES_H_
