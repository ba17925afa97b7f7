#include "sim/replay.h"

#include <algorithm>

#include "traffic/trace.h"

namespace ldr {

ReplayResult ReplayTraffic(
    const Graph& g, const std::vector<Aggregate>& aggregates,
    const RoutingOutcome& outcome,
    const std::vector<std::vector<double>>& series_gbps) {
  ReplayResult result;
  const PathStore& store = *outcome.store;
  size_t num_links = g.LinkCount();
  result.links.assign(num_links, {});

  // Per-link list of (series index, weight) contributions.
  struct Contribution {
    size_t aggregate;
    double weight;
  };
  std::vector<std::vector<Contribution>> on_link(num_links);
  size_t horizon = 0;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    horizon = std::max(horizon, series_gbps[a].size());
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-12) continue;
      for (LinkId l : store.Links(pa.path)) {
        on_link[static_cast<size_t>(l)].push_back({a, pa.fraction});
      }
    }
  }
  if (horizon == 0) return result;

  // Queue evolution per link. Gbit in, capacity*period Gbit out per step.
  std::vector<double> queue_gbit(num_links, 0.0);
  std::vector<double> util_sum(num_links, 0.0);
  std::vector<size_t> queue_periods(num_links, 0);
  for (size_t t = 0; t < horizon; ++t) {
    for (size_t l = 0; l < num_links; ++l) {
      if (on_link[l].empty()) continue;
      double cap = g.link(static_cast<LinkId>(l)).capacity_gbps;
      if (cap <= 0) continue;
      double rate = 0;
      for (const Contribution& c : on_link[l]) {
        if (t < series_gbps[c.aggregate].size()) {
          rate += c.weight * series_gbps[c.aggregate][t];
        }
      }
      LinkReplayStats& stats = result.links[l];
      util_sum[l] += rate / cap;
      stats.peak_utilization = std::max(stats.peak_utilization, rate / cap);
      double arrived = rate * kSeriesPeriodSec;
      double served = cap * kSeriesPeriodSec;
      queue_gbit[l] = std::max(0.0, queue_gbit[l] + arrived - served);
      if (queue_gbit[l] > 1e-12) ++queue_periods[l];
      double delay_ms = queue_gbit[l] / cap * 1000.0;
      stats.max_queue_ms = std::max(stats.max_queue_ms, delay_ms);
    }
  }

  for (size_t l = 0; l < num_links; ++l) {
    if (on_link[l].empty()) continue;
    LinkReplayStats& stats = result.links[l];
    stats.mean_utilization = util_sum[l] / static_cast<double>(horizon);
    stats.queueing_fraction =
        static_cast<double>(queue_periods[l]) / static_cast<double>(horizon);
    result.worst_queue_ms = std::max(result.worst_queue_ms, stats.max_queue_ms);
    if (queue_periods[l] > 0) ++result.links_with_queueing;
  }

  // Worst aggregate delay: propagation plus the max queue on each link of
  // each used path, fraction-weighted across the aggregate's paths.
  for (size_t a = 0; a < aggregates.size(); ++a) {
    double delay = 0;
    for (const PathAllocation& pa : outcome.allocations[a]) {
      if (pa.fraction <= 1e-12) continue;
      double path_delay = 0;
      for (LinkId l : store.Links(pa.path)) {
        path_delay += g.link(l).delay_ms +
                      result.links[static_cast<size_t>(l)].max_queue_ms;
      }
      delay += pa.fraction * path_delay;
    }
    result.worst_aggregate_delay_ms =
        std::max(result.worst_aggregate_delay_ms, delay);
  }
  return result;
}

}  // namespace ldr
