// Topology evolution by LLPD-guided link addition (§8 / Fig. 20).
//
// "Of all the links to be possibly added, we add the one that gives the
// greatest increase in LLPD. We then repeat this process until the number of
// links has increased by 5%." New links get the topology's median capacity
// and a geographic (great-circle) delay.
#ifndef LDR_SIM_GROWTH_H_
#define LDR_SIM_GROWTH_H_

#include <vector>

#include "topology/topology.h"
#include "util/random.h"

namespace ldr {

struct GrowthOptions {
  double link_fraction = 0.05;  // grow undirected link count by this much
  // Candidate pairs evaluated per added link (sampled when the full set of
  // absent pairs is larger). Keeps the search tractable on bigger networks.
  size_t max_candidates = 150;
};

struct GrowthStep {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double llpd_before = 0;
  double llpd_after = 0;
};

// Mutates the topology in place; returns one entry per added link.
std::vector<GrowthStep> GreedyLlpdAugment(Topology* t,
                                          const GrowthOptions& opts,
                                          Rng* rng);

}  // namespace ldr

#endif  // LDR_SIM_GROWTH_H_
