#include "metrics/llpd.h"

#include <algorithm>

#include "graph/ksp.h"
#include "graph/max_flow.h"
#include "graph/path_store.h"
#include "graph/shortest_path.h"

namespace ldr {

bool CanRouteAround(const Graph& g, NodeId src, NodeId dst, LinkId link,
                    double shortest_delay_ms, double bottleneck_gbps,
                    const ApaOptions& opts) {
  double limit_ms = opts.stretch_limit * shortest_delay_ms;
  ExclusionSet excl;
  excl.links.assign(g.LinkCount(), false);
  excl.links[static_cast<size_t>(link)] = true;

  // Fast path: the single best alternate. If even it exceeds the stretch
  // limit, no alternate can qualify; if it qualifies and alone has enough
  // capacity, we are done without running Yen.
  SpTree tree = ShortestPathTree(g, src, excl);
  std::optional<std::vector<LinkId>> best = tree.PathTo(g, dst);
  if (!best.has_value() || best->empty()) return false;
  if (tree.distance_ms[static_cast<size_t>(dst)] > limit_ms + 1e-9) {
    return false;
  }
  PathStore store(&g);
  if (store.BottleneckGbps(store.Intern(*best)) >= bottleneck_gbps - 1e-9) {
    return true;
  }

  // Slow path: progressively union the n lowest-latency alternates (all
  // within the stretch limit) until their min-cut reaches Bsp.
  KspGenerator gen(&store, src, dst, excl);
  std::vector<LinkId> union_links;
  for (size_t k = 0; k < opts.max_alternates; ++k) {
    PathId p = gen.GetId(k);
    if (p == kInvalidPathId) return false;
    if (store.DelayMs(p) > limit_ms + 1e-9) return false;
    LinkSpan links = store.Links(p);
    union_links.insert(union_links.end(), links.begin(), links.end());
    if (MaxFlowGbps(g, src, dst, excl, union_links) >=
        bottleneck_gbps - 1e-9) {
      return true;
    }
  }
  return false;
}

std::vector<PairApa> ComputeApa(const Graph& g, const ApaOptions& opts) {
  std::vector<PairApa> out;
  PathStore store(&g);
  size_t n = g.NodeCount();
  for (NodeId s = 0; s < static_cast<NodeId>(n); ++s) {
    SpTree tree = ShortestPathTree(g, s);
    for (NodeId d = 0; d < static_cast<NodeId>(n); ++d) {
      if (s == d) continue;
      std::optional<std::vector<LinkId>> sp = tree.PathTo(g, d);
      if (!sp.has_value() || sp->empty()) continue;
      double ds = tree.distance_ms[static_cast<size_t>(d)];
      double bsp = store.BottleneckGbps(store.Intern(*sp));
      size_t routable = 0;
      for (LinkId lid : *sp) {
        if (CanRouteAround(g, s, d, lid, ds, bsp, opts)) ++routable;
      }
      PairApa pa;
      pa.src = s;
      pa.dst = d;
      pa.apa = static_cast<double>(routable) /
               static_cast<double>(sp->size());
      out.push_back(pa);
    }
  }
  return out;
}

double LlpdFromApa(const std::vector<PairApa>& apa, double apa_threshold) {
  if (apa.empty()) return 0;
  size_t good = 0;
  for (const PairApa& p : apa) {
    if (p.apa >= apa_threshold - 1e-12) ++good;
  }
  return static_cast<double>(good) / static_cast<double>(apa.size());
}

double ComputeLlpd(const Graph& g, const ApaOptions& opts) {
  return LlpdFromApa(ComputeApa(g, opts), opts.apa_threshold);
}

}  // namespace ldr
