// Cold-build oracle for the warm Fig. 13 loop. IterativeLpRoute keeps one
// IncrementalRoutingLp alive across growth rounds and pushes only deltas
// into it; after the loop has run through an LpReuseContext, a fresh
// IncrementalRoutingLp over the same grown path sets, solved once, is the
// cold build of the LP the warm solver holds. The two must reach the same
// optimum: the same omax and the same flow-weighted delay (alternate optimal
// vertices may split individual aggregates differently, so those are what
// the comparison pins down). Shared by routing_test, exhaustive_test and
// lp_pricing_test.
#ifndef LDR_TESTS_COLD_BUILD_H_
#define LDR_TESTS_COLD_BUILD_H_

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/path_store.h"
#include "routing/lp_routing.h"
#include "tm/traffic_matrix.h"

namespace ldr {

// sum_a n_a sum_p x_ap d_p over the paths `r` solved.
inline double FlowWeightedDelay(const PathStore& store,
                                const std::vector<Aggregate>& aggregates,
                                const std::vector<std::vector<PathId>>& paths,
                                const RoutingLpResult& r) {
  double acc = 0;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    for (size_t pi = 0; pi < r.fractions[a].size(); ++pi) {
      acc += aggregates[a].flow_count * r.fractions[a][pi] *
             store.DelayMs(paths[a][pi]);
    }
  }
  return acc;
}

struct ColdBuild {
  RoutingLpResult warm;  // reuse.lp re-solved over reuse.paths
  RoutingLpResult cold;  // a fresh build over reuse.paths, solved once
  double warm_delay = 0;
  double cold_delay = 0;
};

// Solves the warm LP left in `reuse` and its cold build over the same path
// sets. `opts` must be the options the loop ran with.
inline ColdBuild SolveColdBuild(const PathStore& store,
                                const std::vector<Aggregate>& aggregates,
                                const IterativeOptions& opts,
                                LpReuseContext* reuse) {
  ColdBuild out;
  out.warm = reuse->lp->Solve(reuse->paths);
  IncrementalRoutingLp fresh(store, aggregates, opts.lp);
  out.cold = fresh.Solve(reuse->paths);
  if (out.warm.ok()) {
    out.warm_delay = FlowWeightedDelay(store, aggregates, reuse->paths,
                                       out.warm);
  }
  if (out.cold.ok()) {
    out.cold_delay = FlowWeightedDelay(store, aggregates, reuse->paths,
                                       out.cold);
  }
  return out;
}

inline ::testing::AssertionResult WarmMatchesColdBuild(const ColdBuild& cb) {
  if (!cb.warm.ok() || !cb.cold.ok()) {
    return ::testing::AssertionFailure()
           << "solve failed: warm " << lp::ToString(cb.warm.status)
           << ", cold " << lp::ToString(cb.cold.status);
  }
  if (std::abs(cb.warm.omax - cb.cold.omax) >
      1e-6 * (1 + std::abs(cb.cold.omax))) {
    return ::testing::AssertionFailure() << "omax warm " << cb.warm.omax
                                         << " vs cold " << cb.cold.omax;
  }
  if (std::abs(cb.warm_delay - cb.cold_delay) > 1e-5 * (1 + cb.cold_delay)) {
    return ::testing::AssertionFailure()
           << "flow-weighted delay warm " << cb.warm_delay << " vs cold "
           << cb.cold_delay;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ldr

#endif  // LDR_TESTS_COLD_BUILD_H_
