// Dijkstra shortest paths on link delay, with optional link/node exclusion
// masks (needed both by Yen's algorithm and by the APA metric, which asks
// "what is the best path if this link were congested?").
#ifndef LDR_GRAPH_SHORTEST_PATH_H_
#define LDR_GRAPH_SHORTEST_PATH_H_

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace ldr {

// Bitmask over links/nodes to exclude from a search. Empty masks exclude
// nothing (cheap default).
struct ExclusionSet {
  std::vector<bool> links;  // size 0 or LinkCount()
  std::vector<bool> nodes;  // size 0 or NodeCount()

  bool LinkExcluded(LinkId id) const {
    return !links.empty() && links[static_cast<size_t>(id)];
  }
  bool NodeExcluded(NodeId id) const {
    return !nodes.empty() && nodes[static_cast<size_t>(id)];
  }
};

// Link sequence of the lowest-delay path src->dst (empty when src == dst),
// or nullopt if unreachable.
std::optional<std::vector<LinkId>> ShortestPath(
    const Graph& g, NodeId src, NodeId dst, const ExclusionSet& excl = {});

// Single-source shortest path tree: per-node distance (ms; infinity if
// unreachable) and the incoming link on the best path.
struct SpTree {
  std::vector<double> distance_ms;
  std::vector<LinkId> parent_link;

  // Reconstructs the link sequence to `dst`; nullopt if unreachable.
  // distance_ms[dst] is its delay, summed link by link from the source.
  std::optional<std::vector<LinkId>> PathTo(const Graph& g, NodeId dst) const;
};

// With `stop_at` set, the search ends when it settles that node: only
// stop_at and the nodes popped before it hold their final entries (the rest
// may be infinite or tentative). stop_at's distance and parent chain are
// bitwise the full tree's, because Dijkstra fixes them at that pop: delays
// are non-negative, so every later pop is at least as far, and relaxation
// is strict (nd < dist - 1e-15), so no later pop rewrites a settled entry.
// Point-to-point callers (ShortestPath, Yen's spur searches) pass their
// destination; every caller reading several nodes keeps the full tree.
SpTree ShortestPathTree(const Graph& g, NodeId src,
                        const ExclusionSet& excl = {},
                        NodeId stop_at = kInvalidNode);

// Delay of the shortest path between every ordered pair, as a dense
// NodeCount x NodeCount matrix (infinity where unreachable). Row-major.
std::vector<double> AllPairsShortestDelay(const Graph& g);

// True if every node can reach every other node.
bool IsStronglyConnected(const Graph& g);

// Network diameter in ms: max over connected ordered pairs of shortest-path
// delay. The paper studies Zoo networks with diameter > 10 ms.
double DiameterMs(const Graph& g);

}  // namespace ldr

#endif  // LDR_GRAPH_SHORTEST_PATH_H_
