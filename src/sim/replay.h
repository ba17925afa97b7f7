// Trace replay: validates a routing placement against measured traffic.
//
// The LDR controller *predicts* whether aggregates will statistically
// multiplex on each link (Fig. 14). Replay closes the loop: it pushes the
// per-aggregate rate series through the placement period by period,
// accumulates per-link queues wherever arrivals exceed capacity, and
// reports the realized queueing delays — the quantity the controller's
// 10 ms budget is about. Tests use it to verify that placements the
// multiplexing check accepts really do keep transient queues within budget
// while rejected ones exceed it.
#ifndef LDR_SIM_REPLAY_H_
#define LDR_SIM_REPLAY_H_

#include <vector>

#include "routing/scheme.h"

namespace ldr {

struct LinkReplayStats {
  double max_queue_ms = 0;      // worst queueing delay behind this link
  double mean_utilization = 0;  // time-average load / capacity
  double peak_utilization = 0;
  // Fraction of periods with a nonzero queue.
  double queueing_fraction = 0;
};

struct ReplayResult {
  std::vector<LinkReplayStats> links;   // by LinkId
  double worst_queue_ms = 0;            // max over links
  size_t links_with_queueing = 0;
  // Worst propagation+queueing delay experienced by any aggregate, summed
  // over its (fraction-weighted) paths, in ms.
  double worst_aggregate_delay_ms = 0;
};

// `series_gbps[a]` is aggregate a's rate series at kSeriesPeriodSec
// (traffic/trace.h); shorter series are treated as silent after they end.
// Fractions come from `outcome`. An empty horizon still reports
// `worst_aggregate_delay_ms`: propagation alone, since no queue forms.
//
// The replay runs link-major: for each loaded link it sums the weighted
// series into one horizon-long rate buffer (contributions in aggregate,
// path, hop order, so every period's rate is the same floating-point sum a
// period-by-period loop would form), takes utilization and the peak rate in
// one pass, and runs Lindley's recursion q = max(0, q + rate*T - served)
// only when fl(peak*T) > served. The skip is exact: rounding is monotone,
// so when the busiest period fits, every period does and q stays +0. The
// per-link maxima divide once (peak/cap, max_q/cap*1000), which again by
// monotone rounding equals the maximum of the per-period quotients. Links
// share the utilization pass in pairs, one per vector lane, each lane doing
// its link's scalar operations in period order. Cost: one pass over each
// contributing series per loaded link, one horizon pass per pair of loaded
// links, and a queue pass only where some period overflows.
ReplayResult ReplayTraffic(const Graph& g,
                           const std::vector<Aggregate>& aggregates,
                           const RoutingOutcome& outcome,
                           const std::vector<std::vector<double>>& series_gbps);

}  // namespace ldr

#endif  // LDR_SIM_REPLAY_H_
