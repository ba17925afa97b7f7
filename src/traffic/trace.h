// Synthetic backbone traffic traces — the stand-in for the CAIDA passive
// captures of §4 (see DESIGN.md §2).
//
// The paper extracts exactly two statistical properties from its traces:
//  (1) mean rates are predictable minute-to-minute (vary < ~10%), and
//  (2) sub-second variability (the per-minute stddev of 1 ms rates) is
//      stable from one minute to the next (Fig. 10's x=y clustering).
// The synthesizer produces rate series with both properties: a per-minute
// bounded random walk for the mean, modulated by AR(1) sub-second burst
// noise whose amplitude is constant within a trace but differs across
// traces (reproducing Fig. 10's wide σ range across colors).
#ifndef LDR_TRAFFIC_TRACE_H_
#define LDR_TRAFFIC_TRACE_H_

#include <vector>

#include "util/random.h"

namespace ldr {

// Period of the measured rate series (the `*_100ms` series) that the
// controller, the multiplexing tests and the replay read.
inline constexpr double kSeriesPeriodSec = 0.1;

struct TraceOptions {
  double mean_gbps = 2.0;         // long-run level (CAIDA links ran 1-3 Gbps)
  int minutes = 10;
  double samples_per_sec = 1 / kSeriesPeriodSec;  // 1000 => 1 ms bins
  double burst_amplitude = 0.15;  // relative sub-second variability
};

// Rate samples in Gbps, minutes * 60 * samples_per_sec of them.
std::vector<double> SynthesizeTraceGbps(const TraceOptions& opts, Rng* rng);

// Per-minute means of a sample series.
std::vector<double> PerMinuteMeans(const std::vector<double>& samples,
                                   double samples_per_sec);

// Per-minute means with the short-segment fallback the controller's
// Algorithm 1 feed uses: a series shorter than one full minute contributes
// its plain mean as a single entry instead of being dropped.
std::vector<double> PerMinuteMeansOrMean(const std::vector<double>& samples,
                                         double samples_per_sec);

// Per-minute standard deviations (population) of a sample series.
std::vector<double> PerMinuteStdDevs(const std::vector<double>& samples,
                                     double samples_per_sec);

// Aggregates consecutive samples into coarser bins by averaging (e.g. 1 ms
// -> 100 ms series for the multiplexing tests).
std::vector<double> DownsampleMean(const std::vector<double>& samples,
                                   size_t factor);

}  // namespace ldr

#endif  // LDR_TRAFFIC_TRACE_H_
