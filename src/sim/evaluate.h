// Evaluation of a routing outcome against *true* link capacities — the
// measurements every figure in §3–§6 is built from.
//
// Congestion: an aggregate is congested iff any link carrying a nonzero
// fraction of it is loaded beyond its true capacity (schemes may have
// reserved headroom internally; the evaluator does not care).
// Latency stretch, two flavors as in the paper:
//   total stretch  = sum_a n_a d_a / sum_a n_a S_a      (Figs. 4, 8)
//   max stretch    = max_a d_a / S_a                    (Figs. 16-18, 20)
#ifndef LDR_SIM_EVALUATE_H_
#define LDR_SIM_EVALUATE_H_

#include <vector>

#include "routing/scheme.h"

namespace ldr {

struct EvalResult {
  double congested_fraction = 0;  // of aggregates
  double total_stretch = 1;
  double max_stretch = 1;
  // Absolute flow-weighted delay, sum_a n_a d_a (ms). Unlike stretch, this
  // is comparable across topology changes that alter the shortest paths
  // themselves (Fig. 20 growth).
  double weighted_delay_ms = 0;
  size_t overloaded_links = 0;
  std::vector<double> link_utilization;  // load / true capacity, by LinkId
};

// `sp_delay_ms` is a row-major NodeCount x NodeCount shortest-delay table,
// used for the S_a denominators. Only the entries (src, dst) of the
// aggregates are read, so the rows of their sources suffice
// (SourceRowsShortestDelay); AllPairsShortestDelay works as well.
EvalResult Evaluate(const Graph& g, const std::vector<Aggregate>& aggregates,
                    const RoutingOutcome& outcome,
                    const std::vector<double>& sp_delay_ms);

// The NodeCount x NodeCount shortest-delay table with only the rows of the
// aggregates' sources filled (one full ShortestPathTree per distinct
// source; those rows equal AllPairsShortestDelay's bit for bit) and
// infinity elsewhere — all that Evaluate reads.
std::vector<double> SourceRowsShortestDelay(
    const Graph& g, const std::vector<Aggregate>& aggregates);

// Per-link load in Gbps implied by the outcome.
std::vector<double> LinkLoads(const Graph& g,
                              const std::vector<Aggregate>& aggregates,
                              const RoutingOutcome& outcome);

}  // namespace ldr

#endif  // LDR_SIM_EVALUATE_H_
