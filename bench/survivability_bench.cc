// Survivability under correlated failures (repo extension, no paper
// counterpart): seeded randomized failure campaigns — SRLG conduit cuts,
// node outages, maintenance windows with a drain epoch, cable flaps — over a
// zoo-corpus slice, LDR vs B4 vs SP, with the closed-loop (CUBIC-backoff)
// demand model engaged.
//
// Per-campaign rows per driver: availability (fraction of epochs with a
// valid, uncongested placement), worst optimizer-view congestion, worst
// realized queueing, the highest fallback-ladder rung, and the per-event
// reconvergence-epoch distribution. LDR_BENCH_SCALE=full widens the corpus
// slice and seed count.
#include <string>

#include "bench/bench_util.h"
#include "sim/campaign.h"
#include "util/stats.h"

int main() {
  using namespace ldr;
  const bool full = bench::BenchFullScale();
  const size_t topologies = full ? 16 : 8;
  const uint64_t seeds = full ? 8 : 5;

  std::printf("# Survivability: seeded correlated-failure campaigns\n");
  std::printf(
      "# rows: <metric>:<driver>:<topology>  <seed>  <value>  |  "
      "reconverge:<driver>:<topology>:<seed>  <event#>  <epochs>\n");

  for (const Topology& topo : SurvivabilityCorpus(topologies)) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      for (const char* id : {"", "B4", "SP"}) {
        CampaignRunResult r = RunCampaign(topo, seed, id);
        const std::string tag = r.driver + ":" + topo.name;
        double s = static_cast<double>(seed);
        PrintSeriesRow("availability:" + tag, s, r.availability);
        PrintSeriesRow("worst_congestion:" + tag, s, r.worst_congestion);
        PrintSeriesRow("worst_queue_ms:" + tag, s, r.worst_queue_ms);
        PrintSeriesRow("max_rung:" + tag, s, r.max_rung);
        PrintSeriesRow("events_applied:" + tag, s,
                       static_cast<double>(r.events_applied));
        PrintSeriesRow("min_demand_scale:" + tag, s, r.min_demand_scale);
        PrintSeriesRow("valid_every_epoch:" + tag, s,
                       r.valid_every_epoch ? 1 : 0);
        const std::string rtag =
            "reconverge:" + tag + ":" + std::to_string(seed);
        for (size_t e = 0; e < r.reconverge_epochs.size(); ++e) {
          PrintSeriesRow(rtag, static_cast<double>(e),
                         r.reconverge_epochs[e]);
        }
        if (!r.valid_every_epoch) {
          std::fprintf(stderr,
                       "survivability: INVALID placement installed (%s %s "
                       "seed %llu)\n",
                       r.driver.c_str(), topo.name.c_str(),
                       static_cast<unsigned long long>(seed));
          return 1;
        }
      }
    }
    bench::Note("survivability: %s done", topo.name.c_str());
  }
  return 0;
}
