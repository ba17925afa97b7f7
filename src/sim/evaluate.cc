#include "sim/evaluate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/shortest_path.h"

namespace ldr {

namespace {
constexpr double kOverloadTolerance = 1e-6;  // relative
}

std::vector<double> LinkLoads(const Graph& g,
                              const std::vector<Aggregate>& aggregates,
                              const RoutingOutcome& outcome) {
  const PathStore& store = *outcome.store;
  std::vector<double> load(g.LinkCount(), 0.0);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 0) continue;
      double gbps = pa.fraction * aggregates[a].demand_gbps;
      for (LinkId l : store.Links(pa.path)) {
        load[static_cast<size_t>(l)] += gbps;
      }
    }
  }
  return load;
}

std::vector<double> SourceRowsShortestDelay(
    const Graph& g, const std::vector<Aggregate>& aggregates) {
  size_t n = g.NodeCount();
  std::vector<double> out(n * n, std::numeric_limits<double>::infinity());
  std::vector<bool> filled(n, false);
  for (const Aggregate& agg : aggregates) {
    size_t s = static_cast<size_t>(agg.src);
    if (filled[s]) continue;
    filled[s] = true;
    SpTree tree = ShortestPathTree(g, agg.src);
    std::copy(tree.distance_ms.begin(), tree.distance_ms.end(),
              out.begin() + static_cast<std::ptrdiff_t>(s * n));
  }
  return out;
}

EvalResult Evaluate(const Graph& g, const std::vector<Aggregate>& aggregates,
                    const RoutingOutcome& outcome,
                    const std::vector<double>& sp_delay_ms) {
  EvalResult r;
  const PathStore& store = *outcome.store;
  std::vector<double> load = LinkLoads(g, aggregates, outcome);
  size_t n = g.NodeCount();

  std::vector<bool> overloaded(g.LinkCount(), false);
  r.link_utilization.assign(g.LinkCount(), 0.0);
  for (size_t l = 0; l < g.LinkCount(); ++l) {
    double cap = g.link(static_cast<LinkId>(l)).capacity_gbps;
    if (cap <= 0) continue;
    r.link_utilization[l] = load[l] / cap;
    if (load[l] > cap * (1.0 + kOverloadTolerance)) {
      overloaded[l] = true;
      ++r.overloaded_links;
    }
  }

  double weighted_delay = 0, weighted_sp = 0;
  size_t congested = 0, counted = 0;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const Aggregate& agg = aggregates[a];
    double s_a =
        sp_delay_ms[static_cast<size_t>(agg.src) * n +
                    static_cast<size_t>(agg.dst)];
    if (outcome.allocations[a].empty() || s_a <= 0 || !std::isfinite(s_a)) {
      continue;
    }
    ++counted;
    double d_a = AggregateDelayMs(store, outcome.allocations[a]);
    weighted_delay += agg.flow_count * d_a;
    weighted_sp += agg.flow_count * s_a;
    r.max_stretch = std::max(r.max_stretch, d_a / s_a);
    bool hit = false;
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-9) continue;
      for (LinkId l : store.Links(pa.path)) {
        if (overloaded[static_cast<size_t>(l)]) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    if (hit) ++congested;
  }
  r.congested_fraction =
      counted == 0 ? 0
                   : static_cast<double>(congested) /
                         static_cast<double>(counted);
  r.total_stretch = weighted_sp > 0 ? weighted_delay / weighted_sp : 1.0;
  r.weighted_delay_ms = weighted_delay;
  return r;
}

}  // namespace ldr
