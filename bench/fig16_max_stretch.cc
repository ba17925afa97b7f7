// Paper Fig. 16 (a-c): CDFs of the maximum path stretch per traffic matrix:
// (a) networks with LLPD < 0.5, no headroom; (b) LLPD > 0.5, no headroom;
// (c) LLPD > 0.5, 10% headroom. Where the paper's CDF fails to reach 1.0
// the scheme could not fit the traffic; we print that as a separate
// "fit:<scheme>" fraction per panel.
//
// Two corpus-wide passes, both fanned out across LDR_THREADS by RunCorpus:
// the no-headroom pass over everything, then the 10%-headroom pass over the
// high-LLPD group the first pass identified.
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "sim/corpus_runner.h"
#include "util/stats.h"

namespace {

struct Panel {
  std::string name;
  std::map<std::string, ldr::EmpiricalCdf> stretch;
  std::map<std::string, std::pair<int, int>> fit;  // (feasible, total)
};

void Accumulate(const ldr::TopologyRun& run, Panel* panel) {
  for (const ldr::SchemeSeries& s : run.schemes) {
    for (size_t i = 0; i < s.max_stretch.size(); ++i) {
      auto& fit = panel->fit[s.scheme];
      ++fit.second;
      if (s.feasible[i]) {
        ++fit.first;
        panel->stretch[s.scheme].Add(s.max_stretch[i]);
      }
    }
  }
}

}  // namespace

int main() {
  using namespace ldr;
  std::printf("# Fig 16: max path stretch CDFs by LLPD group and headroom\n");
  std::printf("# rows: <panel>:<scheme>  <max-stretch>  <cdf>  |  fit:<panel>:<scheme>  0  <fraction>\n");
  std::vector<Topology> corpus = bench::BenchCorpus();
  Panel a{"low-llpd-h0", {}, {}};
  Panel b{"high-llpd-h0", {}, {}};
  Panel c{"high-llpd-h10", {}, {}};

  CorpusRunOptions base;
  base.workload.num_instances = bench::BenchFullScale() ? 5 : 2;

  // No-headroom pass over the full corpus: B4, Optimal(=LDR h0), MinMax,
  // MinMaxK10.
  CorpusRunOptions h0 = base;
  h0.scheme_ids = {kSchemeB4, kSchemeOptimal, kSchemeMinMax, kSchemeMinMaxK10};
  std::vector<TopologyRun> runs0 = RunCorpus(corpus, h0, [&](size_t i) {
    bench::Note("fig16 h0: %s (%zu/%zu)", corpus[i].name.c_str(), i + 1,
                corpus.size());
  });

  std::vector<Topology> high_llpd;
  for (size_t i = 0; i < runs0.size(); ++i) {
    if (runs0[i].schemes.empty()) continue;  // skipped by max_nodes
    Accumulate(runs0[i], runs0[i].llpd < 0.5 ? &a : &b);
    if (runs0[i].llpd >= 0.5) high_llpd.push_back(corpus[i]);
  }

  // 10% headroom pass for the high-LLPD group only (panel c).
  CorpusRunOptions h10 = base;
  h10.scheme_ids = {kSchemeB4Headroom, kSchemeLdr10, kSchemeMinMax,
                    kSchemeMinMaxK10};
  std::vector<TopologyRun> runs1 = RunCorpus(high_llpd, h10, [&](size_t i) {
    bench::Note("fig16 h10: %s (%zu/%zu)", high_llpd[i].name.c_str(), i + 1,
                high_llpd.size());
  });
  for (const TopologyRun& run : runs1) Accumulate(run, &c);

  for (Panel* panel : {&a, &b, &c}) {
    for (auto& [scheme, cdf] : panel->stretch) {
      PrintCdf(panel->name + ":" + scheme, cdf, 50);
    }
    for (auto& [scheme, fit] : panel->fit) {
      PrintSeriesRow("fit:" + panel->name + ":" + scheme, 0,
                     fit.second == 0 ? 0
                                     : static_cast<double>(fit.first) /
                                           static_cast<double>(fit.second));
    }
  }
  return 0;
}
