#include "sim/growth.h"

#include <algorithm>
#include <cmath>

#include "metrics/llpd.h"

namespace ldr {

namespace {

double MedianCapacity(const Graph& g) {
  std::vector<double> caps;
  caps.reserve(g.LinkCount());
  for (const Link& l : g.links()) caps.push_back(l.capacity_gbps);
  if (caps.empty()) return 100;
  std::nth_element(
      caps.begin(),
      caps.begin() + static_cast<std::ptrdiff_t>(caps.size() / 2),
      caps.end());
  return caps[caps.size() / 2];
}

}  // namespace

std::vector<GrowthStep> GreedyLlpdAugment(Topology* t,
                                          const GrowthOptions& opts,
                                          Rng* rng) {
  std::vector<GrowthStep> steps;
  size_t undirected_links = t->graph.LinkCount() / 2;
  size_t to_add = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(
             static_cast<double>(undirected_links) * opts.link_fraction)));
  double capacity = MedianCapacity(t->graph);

  for (size_t added = 0; added < to_add; ++added) {
    double llpd_before = ComputeLlpd(t->graph);

    // Candidate absent pairs.
    std::vector<std::pair<NodeId, NodeId>> candidates;
    size_t n = t->graph.NodeCount();
    for (NodeId a = 0; a < static_cast<NodeId>(n); ++a) {
      for (NodeId b = a + 1; b < static_cast<NodeId>(n); ++b) {
        if (!t->graph.HasLink(a, b)) candidates.emplace_back(a, b);
      }
    }
    if (candidates.empty()) break;
    if (candidates.size() > opts.max_candidates) {
      rng->Shuffle(&candidates);
      candidates.resize(opts.max_candidates);
    }

    // Greedy: evaluate LLPD with each candidate spliced in. Candidates are
    // appended then popped; AddCable appends exactly two directed links, so
    // trial state is restored by truncation via a fresh copy.
    GrowthStep best;
    best.llpd_before = llpd_before;
    best.llpd_after = llpd_before - 1;  // sentinel: anything beats it
    for (const auto& [a, b] : candidates) {
      Topology trial = *t;
      trial.AddCable(a, b, capacity);
      double llpd = ComputeLlpd(trial.graph);
      if (llpd > best.llpd_after) {
        best.llpd_after = llpd;
        best.a = a;
        best.b = b;
      }
    }
    if (best.a == kInvalidNode) break;
    t->AddCable(best.a, best.b, capacity);
    steps.push_back(best);
  }
  return steps;
}

}  // namespace ldr
