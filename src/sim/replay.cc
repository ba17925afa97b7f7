#include "sim/replay.h"

#include <algorithm>
#include <cstring>

#include "traffic/trace.h"

namespace ldr {
namespace {

typedef double Lanes __attribute__((vector_size(16)));

// r[t] += w * s[t] for every t < s.size(), two periods per step; each lane
// does the scalar multiply and add, so the sums are bitwise the same.
void AddWeighted(const std::vector<double>& s, double w, double* r) {
  const Lanes wv = {w, w};
  size_t t = 0;
  for (; t + 2 <= s.size(); t += 2) {
    Lanes rv, sv;
    std::memcpy(&rv, r + t, sizeof rv);
    std::memcpy(&sv, s.data() + t, sizeof sv);
    rv += wv * sv;
    std::memcpy(r + t, &rv, sizeof rv);
  }
  for (; t < s.size(); ++t) r[t] += w * s[t];
}

}  // namespace

ReplayResult ReplayTraffic(
    const Graph& g, const std::vector<Aggregate>& aggregates,
    const RoutingOutcome& outcome,
    const std::vector<std::vector<double>>& series_gbps) {
  ReplayResult result;
  const PathStore& store = *outcome.store;
  size_t num_links = g.LinkCount();
  result.links.assign(num_links, {});

  // Per-link (series, weight) contributions, flattened: link l's run is
  // contrib[first[l] .. first[l + 1]), in (aggregate, path, hop) order.
  // One pass counts the runs, the second fills them.
  struct Contribution {
    const std::vector<double>* series;
    double weight;
  };
  auto for_each_use = [&](auto&& visit) {
    for (size_t a = 0; a < aggregates.size(); ++a) {
      for (const PathAllocation& pa : outcome.allocations[a]) {
        if (pa.fraction <= 1e-12) continue;
        for (LinkId l : store.Links(pa.path)) {
          visit(static_cast<size_t>(l), Contribution{&series_gbps[a],
                                                     pa.fraction});
        }
      }
    }
  };
  std::vector<size_t> first(num_links + 1, 0);
  for_each_use([&](size_t l, const Contribution&) { ++first[l + 1]; });
  for (size_t l = 0; l < num_links; ++l) first[l + 1] += first[l];
  std::vector<Contribution> contrib(first[num_links]);
  std::vector<size_t> next(first.begin(), first.end() - 1);
  for_each_use(
      [&](size_t l, const Contribution& c) { contrib[next[l]++] = c; });

  size_t horizon = 0;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    horizon = std::max(horizon, series_gbps[a].size());
  }

  // Links that carry traffic and have capacity; the rest keep zero stats.
  std::vector<size_t> busy;
  for (size_t l = 0; l < num_links; ++l) {
    if (first[l] != first[l + 1] &&
        g.link(static_cast<LinkId>(l)).capacity_gbps > 0) {
      busy.push_back(l);
    }
  }

  // Two links at a time: each link's rate series, then one pass for both
  // links' utilization sums and peak rates, then per link the queue if some
  // period overflows (Gbit in, capacity*period Gbit out per step). Lane k
  // of the shared pass runs link k's scalar operations in period order, so
  // each result is bitwise the one-link loop's; the pairing only overlaps
  // two independent dependency chains and packs their divisions. An odd
  // last link runs beside an idle lane.
  std::vector<double> rate(2 * horizon);
  for (size_t i = 0; i < busy.size(); i += 2) {
    const size_t pair[2] = {busy[i],
                            i + 1 < busy.size() ? busy[i + 1] : num_links};
    double caps[2] = {1.0, 1.0};
    std::fill(rate.begin(), rate.end(), 0.0);
    for (size_t k = 0; k < 2; ++k) {
      if (pair[k] == num_links) continue;
      caps[k] = g.link(static_cast<LinkId>(pair[k])).capacity_gbps;
      double* r = rate.data() + k * horizon;
      for (size_t c = first[pair[k]]; c < first[pair[k] + 1]; ++c) {
        AddWeighted(*contrib[c].series, contrib[c].weight, r);
      }
    }
    const double* r0 = rate.data();
    const double* r1 = r0 + horizon;
    const Lanes cap = {caps[0], caps[1]};
    Lanes util_sum = {0, 0}, peak = {0, 0};
    for (size_t t = 0; t < horizon; ++t) {
      const Lanes r = {r0[t], r1[t]};
      util_sum += r / cap;
      peak = peak < r ? r : peak;  // std::max(peak, r) per lane
    }

    for (size_t k = 0; k < 2; ++k) {
      if (pair[k] == num_links) continue;
      LinkReplayStats& stats = result.links[pair[k]];
      const double* r = rate.data() + k * horizon;
      stats.peak_utilization = peak[k] / caps[k];
      double served = caps[k] * kSeriesPeriodSec;
      size_t queue_periods = 0;
      if (peak[k] * kSeriesPeriodSec > served) {
        double queue_gbit = 0, max_queue_gbit = 0;
        for (size_t t = 0; t < horizon; ++t) {
          queue_gbit =
              std::max(0.0, queue_gbit + r[t] * kSeriesPeriodSec - served);
          if (queue_gbit > 1e-12) ++queue_periods;
          max_queue_gbit = std::max(max_queue_gbit, queue_gbit);
        }
        stats.max_queue_ms = max_queue_gbit / caps[k] * 1000.0;
      }
      if (horizon > 0) {
        stats.mean_utilization = util_sum[k] / static_cast<double>(horizon);
        stats.queueing_fraction =
            static_cast<double>(queue_periods) / static_cast<double>(horizon);
      }
      result.worst_queue_ms =
          std::max(result.worst_queue_ms, stats.max_queue_ms);
      if (queue_periods > 0) ++result.links_with_queueing;
    }
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
