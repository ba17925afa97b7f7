#include "traffic/multiplex.h"

#include <algorithm>
#include <cmath>

#include "traffic/fft.h"
#include "traffic/trace.h"

namespace ldr {

constexpr size_t kQuantizationBins = 1024;  // levels per distribution

double MaxQueueDelayMs(const std::vector<WeightedSeries>& inputs,
                       double capacity_gbps, double period_sec) {
  if (inputs.empty() || capacity_gbps <= 0) return 0;
  size_t len = 0;
  for (const WeightedSeries& w : inputs) {
    len = std::max(len, w.series_gbps->size());
  }
  double queue_gbits = 0;
  double worst_ms = 0;
  for (size_t t = 0; t < len; ++t) {
    double rate = 0;
    for (const WeightedSeries& w : inputs) {
      if (t < w.series_gbps->size()) {
        rate += w.weight * (*w.series_gbps)[t];
      }
    }
    double arrived = rate * period_sec;           // Gbit in this period
    double served = capacity_gbps * period_sec;   // Gbit serviceable
    queue_gbits = std::max(0.0, queue_gbits + arrived - served);
    worst_ms = std::max(worst_ms, queue_gbits / capacity_gbps * 1000.0);
  }
  return worst_ms;
}

double ExceedProbability(const std::vector<WeightedSeries>& inputs,
                         double capacity_gbps, size_t bins) {
  if (inputs.empty() || capacity_gbps <= 0) return 0;
  // Common bin width sized from the sum of per-aggregate peaks so each
  // distribution gets ~`bins` levels of resolution relative to the total.
  double peak_sum = 0;
  for (const WeightedSeries& w : inputs) {
    double peak = 0;
    for (double v : *w.series_gbps) peak = std::max(peak, v * w.weight);
    peak_sum += peak;
  }
  if (peak_sum <= 0) return 0;
  double bin = peak_sum / static_cast<double>(bins);
  std::vector<std::vector<double>> pmfs;
  pmfs.reserve(inputs.size());
  for (const WeightedSeries& w : inputs) {
    std::vector<double> scaled;
    scaled.reserve(w.series_gbps->size());
    for (double v : *w.series_gbps) scaled.push_back(v * w.weight);
    pmfs.push_back(QuantizeToPmf(scaled, bin));
  }
  std::vector<double> sum_pmf = ConvolvePmfs(pmfs);
  return TailProbability(sum_pmf, bin, capacity_gbps);
}

LinkCheckResult CheckLinkMultiplexing(const std::vector<WeightedSeries>& inputs,
                                      double capacity_gbps,
                                      const MultiplexOptions& opts) {
  LinkCheckResult r;
  // Optimization 1: if even the peaks sum below capacity, both tests pass.
  double peak_sum = 0;
  size_t len = 0;
  for (const WeightedSeries& w : inputs) {
    double peak = 0;
    for (double v : *w.series_gbps) peak = std::max(peak, v * w.weight);
    peak_sum += peak;
    len = std::max(len, w.series_gbps->size());
  }
  if (peak_sum <= capacity_gbps) {
    r.skipped_peak_test = true;
    r.pass = true;
    return r;
  }

  r.queue_delay_ms = MaxQueueDelayMs(inputs, capacity_gbps, kSeriesPeriodSec);
  if (r.queue_delay_ms > opts.max_queue_ms) {
    r.pass = false;
    return r;
  }
  r.exceed_probability =
      ExceedProbability(inputs, capacity_gbps, kQuantizationBins);
  // Threshold: allowed queue budget over the measurement window (the
  // paper's 10 ms / 60 s = 0.00016).
  double window_ms =
      static_cast<double>(len) * kSeriesPeriodSec * 1000.0;
  double threshold = window_ms > 0 ? opts.max_queue_ms / window_ms : 0;
  r.pass = r.exceed_probability <= threshold;
  return r;
}

}  // namespace ldr
