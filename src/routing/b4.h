// B4-style greedy traffic placement (§3 of the paper, after Jain et al.,
// SIGCOMM 2015).
//
// All aggregates fill their current preferred path *in parallel at equal
// rates* (the paper's Fig. 6 premise: a shared bottleneck is "allocated
// equally between the two aggregates until it fills"). When a link
// saturates, every aggregate whose current path crosses it steps to its next
// shortest path. The greedy order is what traps B4 in local minima on
// path-diverse topologies (Fig. 5) and what costs it latency (Fig. 6).
//
// Headroom (§6): the waterfill runs against capacity * (1 - headroom); a
// second pass then places still-unsatisfied traffic into the reserved
// headroom ("B4 eats into the supposedly reserved headroom"). Anything that
// still does not fit is forced onto the shortest path, producing measurable
// congestion.
#ifndef LDR_ROUTING_B4_H_
#define LDR_ROUTING_B4_H_

#include "graph/ksp.h"
#include "routing/scheme.h"

namespace ldr {

class B4Scheme : public RoutingScheme {
 public:
  B4Scheme(const Graph* g, KspCache* cache, double headroom = 0);
  std::string name() const override { return name_; }
  RoutingOutcome Route(const std::vector<Aggregate>& aggregates) override;

 private:
  const Graph* g_;
  KspCache* cache_;
  double headroom_;
  std::string name_;
};

}  // namespace ldr

#endif  // LDR_ROUTING_B4_H_
