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

LinkCheckResult CheckLinkMultiplexing(const std::vector<WeightedSeries>& inputs,
                                      double capacity_gbps,
                                      const MultiplexOptions& opts) {
  LinkCheckResult r;
  // Optimization 1: if even the peaks sum below capacity, both tests pass.
  // The per-aggregate peaks also size test C's PMFs. Four running maxima
  // break the dependency chain; max is exact, so the peak is unchanged.
  thread_local std::vector<double> peaks;
  peaks.clear();
  double peak_sum = 0;
  size_t len = 0;
  for (const WeightedSeries& w : inputs) {
    const std::vector<double>& s = *w.series_gbps;
    double m[4] = {0, 0, 0, 0};
    size_t t = 0;
    for (; t + 4 <= s.size(); t += 4) {
      for (size_t q = 0; q < 4; ++q) m[q] = std::max(m[q], s[t + q] * w.weight);
    }
    for (; t < s.size(); ++t) m[0] = std::max(m[0], s[t] * w.weight);
    peaks.push_back(std::max(std::max(m[0], m[1]), std::max(m[2], m[3])));
    peak_sum += peaks.back();
    len = std::max(len, s.size());
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
  // Test C: each series goes straight into a PMF sized by its peak, over a
  // bin width giving the sum ~kQuantizationBins levels (QuantizeToPmf's
  // arithmetic on v * w). An empty PMF (no capacity or samples) gives tail 0.
  double bin = peak_sum / static_cast<double>(kQuantizationBins);
  std::vector<std::vector<double>> pmfs(inputs.size());
  for (size_t a = 0; a < inputs.size() && capacity_gbps > 0 && bin > 0; ++a) {
    const std::vector<double>& series = *inputs[a].series_gbps;
    if (series.empty()) continue;
    std::vector<double>& pmf = pmfs[a];
    pmf.assign(static_cast<size_t>(peaks[a] / bin) + 1, 0.0);
    for (double v : series) {
      pmf[static_cast<size_t>(std::max(0.0, v * inputs[a].weight) / bin)] +=
          1.0;
    }
    for (double& p : pmf) p *= 1.0 / static_cast<double>(series.size());
  }
  r.exceed_probability =
      TailProbability(ConvolvePmfs(pmfs), bin, capacity_gbps);
  // Threshold: allowed queue budget over the measurement window (the
  // paper's 10 ms / 60 s = 0.00016).
  double window_ms =
      static_cast<double>(len) * kSeriesPeriodSec * 1000.0;
  double threshold = window_ms > 0 ? opts.max_queue_ms / window_ms : 0;
  r.pass = r.exceed_probability <= threshold;
  return r;
}

}  // namespace ldr
