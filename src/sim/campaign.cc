#include "sim/campaign.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "graph/shortest_path.h"
#include "sim/workload.h"
#include "topology/zoo_corpus.h"
#include "util/random.h"

namespace ldr {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Mixes the topology name into the campaign seed so seed 1 on two corpus
// members draws independent streams.
uint64_t HashName(const std::string& s) {
  uint64_t h = kFnvOffset;
  for (char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= kFnvPrime;
  }
  return h;
}

// Bounded resample attempts per event slot before it is skipped.
constexpr int kRetries = 24;

// Event slots sampled per campaign, before survivability rejections.
constexpr int kSrlgOutages = 1;         // conduit cuts (kSrlgCables each)
constexpr int kSrlgCables = 2;          // cables sharing each conduit
constexpr int kNodeOutages = 1;         // transit-node failures
constexpr int kMaintenanceWindows = 2;  // scheduled cable maintenances
constexpr int kLinkFlaps = 1;           // plain single-cable flaps

// Tracks the accepted timeline during sampling: per-epoch mask unions for
// the reachability test, and per-cable ownership windows for the
// no-shared-cable-while-overlapping rule (grouped restores are
// unconditional, so two concurrent owners of one cable would restore each
// other's masks early).
class CampaignSampler {
 public:
  CampaignSampler(const Graph& g, const std::vector<Aggregate>& aggs,
                  int epochs)
      : g_(g), epochs_(epochs), masked_(static_cast<size_t>(epochs)) {
    endpoint_.assign(g.NodeCount(), false);
    std::map<NodeId, std::vector<NodeId>> by_src;
    for (const Aggregate& a : aggs) {
      if (a.src == a.dst) continue;
      endpoint_[static_cast<size_t>(a.src)] = true;
      endpoint_[static_cast<size_t>(a.dst)] = true;
      by_src[a.src].push_back(a.dst);
    }
    for (auto& [src, dsts] : by_src) {
      std::sort(dsts.begin(), dsts.end());
      dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
      pairs_.emplace_back(src, std::move(dsts));
    }
  }

  bool IsEndpoint(NodeId n) const {
    return endpoint_[static_cast<size_t>(n)];
  }

  // True when masking `links` during epochs [from, to) is compatible with
  // everything accepted so far: no member cable is owned by a concurrent
  // window, and every workload pair stays reachable at every epoch of the
  // window under the union of masks.
  bool Acceptable(const std::vector<LinkId>& links, int from, int to) const {
    for (LinkId l : links) {
      if (!CableFree(Cable(l), from, to)) return false;
    }
    for (int e = std::max(0, from); e < std::min(epochs_, to); ++e) {
      if (!Reachable(masked_[static_cast<size_t>(e)], links)) return false;
    }
    return true;
  }

  void Claim(const std::vector<LinkId>& links, int from, int to) {
    for (LinkId l : links) {
      busy_[Cable(l)].emplace_back(from, to);
    }
    for (int e = std::max(0, from); e < std::min(epochs_, to); ++e) {
      auto& m = masked_[static_cast<size_t>(e)];
      m.insert(m.end(), links.begin(), links.end());
    }
  }

 private:
  // Canonical cable id: the smaller directed id of the pair.
  LinkId Cable(LinkId l) const {
    LinkId rev = g_.ReverseLink(l);
    return (rev != kInvalidLink && rev < l) ? rev : l;
  }

  bool CableFree(LinkId cable, int from, int to) const {
    auto it = busy_.find(cable);
    if (it == busy_.end()) return true;
    for (const auto& [s, e] : it->second) {
      if (from < e && s < to) return false;
    }
    return true;
  }

  // One Dijkstra per unique workload source under the combined mask.
  bool Reachable(const std::vector<LinkId>& base,
                 const std::vector<LinkId>& extra) const {
    ExclusionSet excl;
    excl.links.assign(g_.LinkCount(), false);
    for (LinkId l : base) excl.links[static_cast<size_t>(l)] = true;
    for (LinkId l : extra) excl.links[static_cast<size_t>(l)] = true;
    for (const auto& [src, dsts] : pairs_) {
      SpTree tree = ShortestPathTree(g_, src, excl);
      for (NodeId dst : dsts) {
        double d = tree.distance_ms[static_cast<size_t>(dst)];
        if (!(d < std::numeric_limits<double>::infinity())) return false;
      }
    }
    return true;
  }

  const Graph& g_;
  int epochs_;
  std::vector<std::vector<LinkId>> masked_;  // per-epoch accepted mask union
  std::map<LinkId, std::vector<std::pair<int, int>>> busy_;  // per cable
  std::vector<bool> endpoint_;
  std::vector<std::pair<NodeId, std::vector<NodeId>>> pairs_;
};

// Directed links of every cable in `cables`, deduplicated.
std::vector<LinkId> ExpandCables(const Graph& g,
                                 const std::vector<LinkId>& cables) {
  std::vector<LinkId> out;
  for (LinkId c : cables) {
    std::vector<LinkId> both = CableLinks(g, c);
    out.insert(out.end(), both.begin(), both.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Scenario GenerateCampaign(const Topology& topology, uint64_t seed,
                          const CampaignOptions& opts) {
  const Graph& g = topology.graph;
  Scenario s;
  s.name = topology.name + "+campaign" + std::to_string(seed);
  s.epochs = opts.epochs;

  Rng rng(seed ^ HashName(topology.name));

  // Workload: one scaled instance, thinned to the heavy aggregates.
  {
    KspCache cache(&g);
    WorkloadOptions w;
    w.num_instances = 1;
    w.seed = rng.NextU64() | 1;
    w.target_utilization = opts.utilization;
    w.min_fraction_of_total = opts.workload_min_fraction;
    std::vector<std::vector<Aggregate>> instances =
        MakeScaledWorkloads(topology, &cache, w);
    if (!instances.empty()) s.aggregates = std::move(instances[0]);
  }
  s.series_100ms =
      ConstantScenarioTraffic(s.aggregates, s.epochs, s.epoch_sec);

  // Too short a timeline to place a window plus reconvergence room: the
  // campaign is the workload alone.
  if (opts.epochs < 8 || s.aggregates.empty() || g.LinkCount() == 0) return s;

  CampaignSampler sampler(g, s.aggregates, opts.epochs);

  // All outage windows start in [2, epochs-4] (epoch 0-1 warm the
  // controller; the tail leaves room to restore and reconverge) and last
  // 2-3 epochs, clamped so the restore still lands inside the timeline.
  auto draw_window = [&](int* down, int* up) {
    *down = static_cast<int>(rng.UniformInt(2, opts.epochs - 4));
    int duration = static_cast<int>(rng.UniformInt(2, 3));
    duration = std::min(duration, opts.epochs - 1 - *down);
    *up = *down + duration;
  };
  // Canonical cable id (the smaller directed id), so opposite-direction
  // draws of one cable dedupe in the SRLG sampling below.
  auto draw_cable = [&]() {
    LinkId l = static_cast<LinkId>(rng.NextIndex(g.LinkCount()));
    LinkId rev = g.ReverseLink(l);
    return (rev != kInvalidLink && rev < l) ? rev : l;
  };

  // SRLG conduit cuts: kSrlgCables distinct cables failing as one event.
  for (int i = 0; i < kSrlgOutages; ++i) {
    for (int attempt = 0; attempt < kRetries; ++attempt) {
      std::vector<LinkId> cables;
      for (int c = 0; c < kSrlgCables; ++c) cables.push_back(draw_cable());
      std::sort(cables.begin(), cables.end());
      cables.erase(std::unique(cables.begin(), cables.end()), cables.end());
      if (cables.size() != static_cast<size_t>(kSrlgCables)) continue;
      int down = 0, up = 0;
      draw_window(&down, &up);
      std::vector<LinkId> links = ExpandCables(g, cables);
      if (!sampler.Acceptable(links, down, up)) continue;
      sampler.Claim(links, down, up);
      int idx = s.AddSrlg("conduit-" + std::to_string(i), std::move(cables));
      s.AddSrlgOutage(idx, down, up);
      break;
    }
  }

  // Transit-node outages: never an aggregate endpoint (masking all its
  // incident links would disconnect that pair by construction — the
  // reachability test would reject every window anyway).
  for (int i = 0; i < kNodeOutages; ++i) {
    for (int attempt = 0; attempt < kRetries; ++attempt) {
      NodeId node = static_cast<NodeId>(rng.NextIndex(g.NodeCount()));
      if (sampler.IsEndpoint(node)) continue;
      std::vector<LinkId> links = g.IncidentLinks(node);
      if (links.empty()) continue;
      int down = 0, up = 0;
      draw_window(&down, &up);
      if (!sampler.Acceptable(links, down, up)) continue;
      sampler.Claim(links, down, up);
      s.AddNodeOutage(node, down, up);
      break;
    }
  }

  // Scheduled maintenance: the mask actually lands one epoch before the
  // nominal window (the drain epoch), so the claimed interval starts there.
  for (int i = 0; i < kMaintenanceWindows; ++i) {
    for (int attempt = 0; attempt < kRetries; ++attempt) {
      LinkId cable = draw_cable();
      int start = 0, end = 0;
      draw_window(&start, &end);
      std::vector<LinkId> links = CableLinks(g, cable);
      if (!sampler.Acceptable(links, start - 1, end)) continue;
      sampler.Claim(links, start - 1, end);
      ScenarioEvent ev;
      ev.type = ScenarioEvent::Type::kMaintenance;
      ev.epoch = start;
      ev.link = cable;
      ev.duration_epochs = end - start;
      s.events.push_back(ev);
      break;
    }
  }

  // Plain cable flaps (the pre-existing singleton event shape).
  for (int i = 0; i < kLinkFlaps; ++i) {
    for (int attempt = 0; attempt < kRetries; ++attempt) {
      LinkId cable = draw_cable();
      int down = 0, up = 0;
      draw_window(&down, &up);
      std::vector<LinkId> links = CableLinks(g, cable);
      if (!sampler.Acceptable(links, down, up)) continue;
      sampler.Claim(links, down, up);
      s.AddLinkFlap(g, cable, down, up);
      break;
    }
  }

  // Optimizer fault windows (soak only): the one site hit on every solve
  // entry, seeded-probabilistic so the ladder fires intermittently.
  for (int i = 0; i < opts.fault_windows; ++i) {
    FaultWindow fw;
    fw.failpoint = "lp.iter_limit";
    fw.from_epoch = static_cast<int>(rng.UniformInt(2, opts.epochs - 4));
    fw.until_epoch =
        fw.from_epoch + static_cast<int>(rng.UniformInt(1, 2));
    fw.spec.probability = 0.5;
    fw.spec.seed = rng.NextU64();
    s.faults.push_back(fw);
  }

  return s;
}

CampaignRunResult RunCampaign(const Topology& topology, uint64_t seed,
                              const std::string& scheme_id,
                              const CampaignOptions& opts) {
  ScenarioEngineOptions eo;
  eo.scheme_id = scheme_id;
  eo.adaptive.enabled = true;
  ScenarioEngine engine(topology, GenerateCampaign(topology, seed, opts), eo);
  ScenarioReport r = engine.Run();

  CampaignRunResult out;
  out.scenario = r.scenario;
  out.driver = r.driver;
  out.seed = seed;
  out.availability = r.Availability();
  out.worst_congestion = r.WorstCongestedFraction();
  out.worst_queue_ms = r.WorstQueueMs();
  out.max_rung = static_cast<int>(r.MaxFallbackRung());
  out.fallback_counts = r.fallback_counts;
  out.reconverge_epochs = r.ReconvergeEpochs();
  out.events_applied = r.events.size();
  out.epochs = r.epochs.size();
  out.dual_repair_epochs = r.dual_repair_epochs;
  uint64_t h = kFnvOffset;
  for (const ScenarioEpochReport& er : r.epochs) {
    out.valid_every_epoch = out.valid_every_epoch && er.placement_valid;
    out.min_demand_scale = std::min(out.min_demand_scale, er.demand_scale_min);
    h ^= er.allocation_hash;
    h *= kFnvPrime;
  }
  out.placement_hash = h;
  return out;
}

std::vector<Topology> SurvivabilityCorpus(size_t count) {
  std::vector<Topology> corpus = ZooCorpus();
  std::vector<Topology> picked;
  std::map<std::string, int> family_count;
  std::vector<char> taken(corpus.size(), 0);
  // Pass 1: link-rich networks (a correlated failure must be survivable at
  // all; trees and bare rings lose connectivity to any cable cut), at most
  // two per structural family. Pass 2 fills from the small remainder.
  for (int pass = 0; pass < 2 && picked.size() < count; ++pass) {
    for (size_t i = 0; i < corpus.size() && picked.size() < count; ++i) {
      if (taken[i]) continue;
      Topology& t = corpus[i];
      size_t n = t.graph.NodeCount();
      if (n < 8 || n > 30) continue;
      if (pass == 0) {
        if (static_cast<double>(t.graph.LinkCount()) <
            2.4 * static_cast<double>(n)) {
          continue;
        }
        std::string family = t.name.substr(0, t.name.find('-'));
        if (family_count[family] >= 2) continue;
        ++family_count[family];
      }
      taken[i] = 1;
      picked.push_back(std::move(t));
    }
  }
  return picked;
}

}  // namespace ldr
