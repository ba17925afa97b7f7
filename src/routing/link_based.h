// Link-based (arc-flow) multi-commodity formulation of the latency
// optimization, in the spirit of Bertsekas et al. — the alternative the
// paper rejects because its size scales with (aggregates x links) and is
// "about two orders of magnitude slower" (Fig. 15). Implemented for that
// comparison. Commodities are grouped by source node (the standard
// aggregation), so the LP has NodeCount * LinkCount flow variables; those
// of masked (down) links are fixed at zero.
#ifndef LDR_ROUTING_LINK_BASED_H_
#define LDR_ROUTING_LINK_BASED_H_

#include <vector>

#include "graph/graph.h"
#include "tm/traffic_matrix.h"

namespace ldr {

struct LinkBasedResult {
  bool solved = false;
  // Demand-weighted mean delay (ms per Gbps routed), comparable to the
  // path-based optimum's delay objective.
  double total_delay_gbps_ms = 0;
  double max_overload = 0;
  double solve_ms = 0;
};

// Solves min sum_l delay_l * flow_l subject to per-source flow conservation
// and capacity * overload, overload >= 1 minimized with a large weight
// (same lexicographic intent as Fig. 12, without the per-aggregate M1
// tie-break, which an arc formulation cannot express — one of the paper's
// arguments for the path-based form).
LinkBasedResult SolveLinkBased(const Graph& g,
                               const std::vector<Aggregate>& aggregates,
                               double headroom = 0);

}  // namespace ldr

#endif  // LDR_ROUTING_LINK_BASED_H_
