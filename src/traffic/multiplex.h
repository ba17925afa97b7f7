// Per-link statistical-multiplexing checks ( B and C in the paper's
// Fig. 14).
//
// Given the 100 ms rate series of the aggregates placed on a link (each
// weighted by the fraction of the aggregate routed there):
//
//  B  Temporal-correlation test: sum the time-aligned series; carry any
//     excess over capacity into the next period as queue; reject if the
//     worst-case queueing delay exceeds max_queue_ms.
//  C  Uncorrelated test: treat each aggregate's series as an independent
//     PMF, convolve via FFT, and require P(sum > capacity) below
//     max_queue_ms / measurement-window (10 ms / 60 s = 1.6e-4).
//
// Both are skipped — guaranteed pass — when the sum of the aggregates' peak
// rates does not exceed capacity (the paper's first optimization).
#ifndef LDR_TRAFFIC_MULTIPLEX_H_
#define LDR_TRAFFIC_MULTIPLEX_H_

#include <cstddef>
#include <vector>

namespace ldr {

// One aggregate's contribution to a link: its measured rate series (Gbps,
// fixed period) scaled by the routed fraction.
struct WeightedSeries {
  const std::vector<double>* series_gbps = nullptr;
  double weight = 1.0;
};

struct MultiplexOptions {
  double max_queue_ms = 10.0;
};

// Worst queueing delay (ms) when the aligned sum is served at capacity.
double MaxQueueDelayMs(const std::vector<WeightedSeries>& inputs,
                       double capacity_gbps, double period_sec);

struct LinkCheckResult {
  bool pass = true;
  bool skipped_peak_test = false;  // sum of peaks fit; tests skipped
  double queue_delay_ms = 0;
  double exceed_probability = 0;
};

LinkCheckResult CheckLinkMultiplexing(const std::vector<WeightedSeries>& inputs,
                                      double capacity_gbps,
                                      const MultiplexOptions& opts = {});

}  // namespace ldr

#endif  // LDR_TRAFFIC_MULTIPLEX_H_
