#include "graph/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace ldr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

using QueueEntry = std::pair<double, NodeId>;  // (distance, node)
}  // namespace

SpTree ShortestPathTree(const Graph& g, NodeId src, const ExclusionSet& excl,
                        NodeId stop_at) {
  SpTree tree;
  size_t n = g.NodeCount();
  tree.distance_ms.assign(n, kInf);
  tree.parent_link.assign(n, kInvalidLink);
  if (excl.NodeExcluded(src)) return tree;

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      pq;
  tree.distance_ms[static_cast<size_t>(src)] = 0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [dist, node] = pq.top();
    pq.pop();
    if (dist > tree.distance_ms[static_cast<size_t>(node)]) continue;
    if (node == stop_at) break;
    for (LinkId lid : g.OutLinks(node)) {
      if (excl.LinkExcluded(lid)) continue;
      const Link& l = g.link(lid);
      if (excl.NodeExcluded(l.dst)) continue;
      double nd = dist + l.delay_ms;
      if (nd < tree.distance_ms[static_cast<size_t>(l.dst)] - 1e-15) {
        tree.distance_ms[static_cast<size_t>(l.dst)] = nd;
        tree.parent_link[static_cast<size_t>(l.dst)] = lid;
        pq.emplace(nd, l.dst);
      }
    }
  }
  return tree;
}

std::optional<std::vector<LinkId>> SpTree::PathTo(const Graph& g,
                                                  NodeId dst) const {
  if (distance_ms[static_cast<size_t>(dst)] == kInf) return std::nullopt;
  std::vector<LinkId> links;
  NodeId cur = dst;
  while (parent_link[static_cast<size_t>(cur)] != kInvalidLink) {
    LinkId lid = parent_link[static_cast<size_t>(cur)];
    links.push_back(lid);
    cur = g.link(lid).src;
  }
  std::reverse(links.begin(), links.end());
  return links;
}

std::optional<std::vector<LinkId>> ShortestPath(const Graph& g, NodeId src,
                                                NodeId dst,
                                                const ExclusionSet& excl) {
  if (src == dst) return std::vector<LinkId>{};
  SpTree tree = ShortestPathTree(g, src, excl, dst);
  return tree.PathTo(g, dst);
}

std::vector<double> AllPairsShortestDelay(const Graph& g) {
  size_t n = g.NodeCount();
  std::vector<double> out(n * n, kInf);
  for (NodeId s = 0; s < static_cast<NodeId>(n); ++s) {
    SpTree tree = ShortestPathTree(g, s);
    for (size_t d = 0; d < n; ++d) {
      out[static_cast<size_t>(s) * n + d] = tree.distance_ms[d];
    }
  }
  return out;
}

bool IsStronglyConnected(const Graph& g) {
  size_t n = g.NodeCount();
  if (n == 0) return true;
  std::vector<double> apsp = AllPairsShortestDelay(g);
  for (double d : apsp) {
    if (d == kInf) return false;
  }
  return true;
}

double DiameterMs(const Graph& g) {
  std::vector<double> apsp = AllPairsShortestDelay(g);
  double diam = 0;
  for (double d : apsp) {
    if (d != kInf) diam = std::max(diam, d);
  }
  return diam;
}

}  // namespace ldr
