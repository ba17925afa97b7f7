#include "routing/link_based.h"

#include <chrono>

#include "lp/lp.h"

namespace ldr {

LinkBasedResult SolveLinkBased(const Graph& g,
                               const std::vector<Aggregate>& aggregates,
                               double headroom) {
  auto t0 = std::chrono::steady_clock::now();
  LinkBasedResult result;
  size_t n = g.NodeCount();
  size_t m = g.LinkCount();
  double cap_scale = 1.0 - headroom;

  // Demand per (source, destination), and which sources are active.
  std::vector<std::vector<double>> demand(n, std::vector<double>(n, 0.0));
  std::vector<bool> active(n, false);
  for (const Aggregate& a : aggregates) {
    demand[static_cast<size_t>(a.src)][static_cast<size_t>(a.dst)] +=
        a.demand_gbps;
    active[static_cast<size_t>(a.src)] = true;
  }

  lp::Problem p;
  // flow[s][l]: commodity-s flow on link l. A masked (down) link carries
  // none: its variables are fixed at [0, 0].
  std::vector<std::vector<int>> flow(n);
  for (size_t s = 0; s < n; ++s) {
    if (!active[s]) continue;
    flow[s].resize(m);
    for (size_t l = 0; l < m; ++l) {
      LinkId id = static_cast<LinkId>(l);
      flow[s][l] = p.AddVariable(0, g.IsLinkDown(id) ? 0 : lp::kInfinity,
                                 g.link(id).delay_ms);
    }
  }
  // Overload variables.
  int omax = p.AddVariable(1, lp::kInfinity, 1e6);
  std::vector<int> ol(m);
  for (size_t l = 0; l < m; ++l) {
    ol[l] = p.AddVariable(1, lp::kInfinity, 1.0);
    p.AddRow(lp::RowType::kLe, 0, {{ol[l], 1}, {omax, -1}});
  }

  // Conservation: for commodity s at node v != s:
  //   inflow - outflow = demand(s, v).
  // At v == s: inflow - outflow = -sum_d demand(s, d).
  for (size_t s = 0; s < n; ++s) {
    if (!active[s]) continue;
    double total_out = 0;
    for (size_t d = 0; d < n; ++d) total_out += demand[s][d];
    for (size_t v = 0; v < n; ++v) {
      std::vector<std::pair<int, double>> row;
      for (size_t l = 0; l < m; ++l) {
        const Link& link = g.link(static_cast<LinkId>(l));
        if (static_cast<size_t>(link.dst) == v) row.emplace_back(flow[s][l], 1.0);
        if (static_cast<size_t>(link.src) == v) row.emplace_back(flow[s][l], -1.0);
      }
      double rhs = (v == s) ? -total_out : demand[s][v];
      if (row.empty()) continue;
      p.AddRow(lp::RowType::kEq, rhs, std::move(row));
    }
  }

  // Capacity: sum_s flow[s][l] <= cap_l * O_l.
  for (size_t l = 0; l < m; ++l) {
    std::vector<std::pair<int, double>> row;
    for (size_t s = 0; s < n; ++s) {
      if (active[s]) row.emplace_back(flow[s][l], 1.0);
    }
    double cap = g.link(static_cast<LinkId>(l)).capacity_gbps * cap_scale;
    row.emplace_back(ol[l], -cap);
    p.AddRow(lp::RowType::kLe, 0, std::move(row));
  }

  lp::SolveOptions sopt;
  sopt.max_iters = 200000;
  lp::Solution sol = lp::Solve(p, sopt);
  result.solve_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (!sol.ok()) return result;
  result.solved = true;
  result.max_overload = sol.values[static_cast<size_t>(omax)];
  double delay = 0;
  for (size_t s = 0; s < n; ++s) {
    if (!active[s]) continue;
    for (size_t l = 0; l < m; ++l) {
      delay += sol.values[static_cast<size_t>(flow[s][l])] *
               g.link(static_cast<LinkId>(l)).delay_ms;
    }
  }
  result.total_delay_gbps_ms = delay;
  return result;
}

}  // namespace ldr
