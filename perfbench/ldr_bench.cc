// ldr_bench: the controller benchmark's single-threaded driver.
//
//   ldr_bench --workload steady_mux|cold_grid|failover --seed N
//             --seconds S --trace 0|1
//
// One process, one thread, public library calls only (no RunCorpus, so
// LDR_THREADS plays no part). A run sets its workload up several times
// (setup_s is the median), runs one untimed warm-up pass over every sub-case
// — the pass that fixes the run's deterministic figures (availability,
// mean_stretch, each sub-case's placement hash) — then times whole passes
// until `--seconds` have elapsed and at least kMinRepeats passes ran. A
// sub-case's op time is the fastest of its timed repeats, and op_ms_p50 /
// op_ms_p90 are taken over the sub-cases (see NOTES.md, "Host noise", for
// why). Every op is checked: its placement must pass
// ValidatePlacement, no LP solve may fail, no fallback rung may fire, and its
// placement hash must equal the warm-up pass's for the same sub-case. The
// last stdout line is the JSON result; with --trace 1 it carries the
// per-layer metrics of NOTES.md instead of the end-to-end ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "routing/ldr_controller.h"
#include "routing/lp_routing.h"
#include "routing/placement.h"
#include "sim/campaign.h"
#include "sim/corpus_runner.h"
#include "sim/evaluate.h"
#include "sim/replay.h"
#include "sim/scenario_engine.h"
#include "sim/workload.h"
#include "topology/generators.h"
#include "topology/zoo_corpus.h"
#include "traffic/multiplex.h"
#include "traffic/predictor.h"
#include "traffic/trace.h"
#include "util/random.h"

namespace {

using namespace ldr;

constexpr size_t kSetupRepeats = 5;
// Every sub-case is timed in at least this many passes, and its op time is
// the fastest of its repeats: the host slows all work by up to 2x in
// episodes of seconds to minutes, and the fastest of repeats spread over the
// run keeps the program's own cost while dropping most of those episodes.
constexpr int kMinRepeats = 10;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// SplitMix64 finalizer: derives independent sub-seeds from the one --seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
};

// Structural placement fingerprint: link sequences and fraction bits, so it
// does not depend on PathId numbering.
uint64_t PlacementHash(const PathStore& store,
                       const std::vector<std::vector<PathAllocation>>& alloc) {
  Fnv f;
  for (size_t a = 0; a < alloc.size(); ++a) {
    f.Add(a);
    for (const PathAllocation& pa : alloc[a]) {
      for (LinkId l : store.Links(pa.path)) f.Add(static_cast<uint64_t>(l));
      f.AddDouble(pa.fraction);
    }
  }
  return f.h;
}

// An op fails when its placement is invalid, an LP solve failed, or a
// fallback rung fired.
bool OutcomeFailed(const Graph& g, const RoutingOutcome& out,
                   FallbackRung rung) {
  return !ValidatePlacement(g, *out.store, out.allocations).valid ||
         out.lp_failures > 0 || rung != FallbackRung::kNone;
}

// ---------------------------------------------------------------- tracing --
// Spans timed from this file around calls into each library layer. Each
// span's duration is summed per op under its name; Flush() closes the op.
// Counts are recorded the same way (Add).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name)
        : t_(t->on_ ? t : nullptr), name_(name), start_ms_(NowMs()) {}
    ~Scope() {
      if (t_ != nullptr) t_->op_values_[name_] += NowMs() - start_ms_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    const char* name_;
    double start_ms_;
  };

  // Adds a count, or a time measured outside a span (e.g. a report's own
  // timer), to the current op.
  void Add(const std::string& name, double v) {
    if (on_) op_values_[name] += v;
  }

  // Ends the current op: each name recorded in it becomes one sample of
  // the op's bucket. Deterministic counts are reported over the warm-up
  // pass, times over the timed passes, set-up figures over set-up.
  enum Bucket { kSetup, kWarm, kTimed };
  void Flush(Bucket b) {
    for (const auto& [name, v] : op_values_) samples_[b][name].push_back(v);
    op_values_.clear();
  }
  void Flush(int pass) { Flush(pass == 0 ? kWarm : kTimed); }

  // Samples of `name` from the first bucket in `order` that has any.
  const std::vector<double>& Samples(const std::string& name,
                                     std::initializer_list<Bucket> order) {
    for (Bucket b : order) {
      if (!samples_[b][name].empty()) return samples_[b][name];
    }
    return samples_[kTimed][name];
  }


 private:
  bool on_;
  std::map<std::string, double> op_values_;
  std::map<std::string, std::vector<double>> samples_[3];
};

// The host sentinel: a fixed random-access walk over 32 MiB (a Sattolo
// cycle, so every load depends on the previous one). Its time moves only
// with the host's memory system, never with the program under test.
class MemSentinel {
 public:
  MemSentinel() : next_(size_t{1} << 23) {
    for (size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<uint32_t>(i);
    }
    Rng rng(0x5e471e1);
    for (size_t i = next_.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(rng.NextIndex(i));
      std::swap(next_[i], next_[j]);
    }
  }
  double RunMs() {
    double t0 = NowMs();
    uint32_t p = 0;
    for (int i = 0; i < (1 << 18); ++i) p = next_[p];
    sink_ += p;
    return NowMs() - t0;
  }

 private:
  std::vector<uint32_t> next_;
  uint64_t sink_ = 0;
};

// ------------------------------------------------------- shared layer calls --
struct Appraisal {
  std::vector<char> failing;  // by LinkId
  size_t failing_count = 0;
  size_t links = 0;           // links appraised
  size_t skipped = 0;         // of which the peak test passed without FFT
};

// Fig. 14 B/C on every link the placement loads, exactly as
// LdrController::RunEpoch appraises (same inputs, same link order).
Appraisal Appraise(const Graph& g, const PathStore& store,
                   const std::vector<std::vector<PathAllocation>>& alloc,
                   const std::vector<std::vector<double>>& segment,
                   const MultiplexOptions& opts) {
  std::vector<std::vector<WeightedSeries>> on_link(g.LinkCount());
  for (size_t a = 0; a < alloc.size(); ++a) {
    for (const PathAllocation& pa : alloc[a]) {
      if (pa.fraction <= 1e-9) continue;
      for (LinkId l : store.Links(pa.path)) {
        on_link[static_cast<size_t>(l)].push_back({&segment[a], pa.fraction});
      }
    }
  }
  Appraisal r;
  r.failing.assign(g.LinkCount(), 0);
  for (size_t l = 0; l < g.LinkCount(); ++l) {
    if (on_link[l].empty()) continue;
    LinkCheckResult c = CheckLinkMultiplexing(
        on_link[l], g.link(static_cast<LinkId>(l)).capacity_gbps, opts);
    ++r.links;
    if (c.skipped_peak_test) ++r.skipped;
    if (!c.pass) {
      r.failing[l] = 1;
      ++r.failing_count;
    }
  }
  return r;
}

// Simplex telemetry of one route. On failover, lp.dual_pivots comes from
// the engine's own epochs instead (record_dual false).
void RecordLpCounts(Tracer* t, const RoutingOutcome& o,
                    bool record_dual = true) {
  t->Add("lp.iterations", static_cast<double>(o.lp_iterations));
  t->Add("lp.pivots", static_cast<double>(o.lp_pivots));
  t->Add("lp.refactorizations", o.lp_refactorizations);
  t->Add("lp.rounds", o.lp_rounds);
  if (record_dual) {
    t->Add("lp.dual_pivots", static_cast<double>(o.lp_dual_pivots));
  }
}

// Times producing `paths` (the grown per-aggregate path sets of a route) on
// a fresh KSP cache: the Yen work a cold route pays.
void TraceKspProduction(Tracer* t, const Graph& g,
                        const std::vector<Aggregate>& aggs,
                        const std::vector<std::vector<PathId>>& paths) {
  KspCache fresh(&g);
  size_t produced = 0;
  {
    Tracer::Scope s(t, "graph.ksp_ms");
    for (size_t a = 0; a < aggs.size() && a < paths.size(); ++a) {
      if (paths[a].empty()) continue;
      KspGenerator* gen = fresh.Get(aggs[a].src, aggs[a].dst);
      for (size_t k = 0; k < paths[a].size(); ++k) gen->GetId(k);
      produced += paths[a].size();
    }
  }
  t->Add("graph.paths_produced", static_cast<double>(produced));
}

// The layer probes a traced op runs on its own inputs after the op: the
// cold-LP route on the now-warm cache, the B4/SP baselines on the same
// demands, APSP, Evaluate, and — with a measured segment — Algorithm 1,
// the multiplex appraisal and replay.
void TraceProbes(Tracer* t, const Graph& g, KspCache* warm_cache,
                 const std::vector<Aggregate>& aggs,
                 const RoutingOutcome& installed,
                 const std::vector<std::vector<double>>* segment,
                 bool route_probes) {
  if (route_probes) {
    {
      Tracer::Scope s(t, "lp.warm_ksp_route_ms");
      IterativeLpRoute(g, aggs, warm_cache, IterativeOptions{});
    }
    for (const char* id : {"B4", "SP"}) {
      std::unique_ptr<RoutingScheme> scheme = MakeScheme(id, &g, warm_cache);
      Tracer::Scope s(t, std::string(id) == "B4" ? "routing.b4_run_ms"
                                                 : "routing.sp_run_ms");
      scheme->Route(aggs);
    }
  }
  std::vector<double> apsp;
  {
    Tracer::Scope s(t, "graph.apsp_ms");
    apsp = AllPairsShortestDelay(g);
  }
  {
    Tracer::Scope s(t, "sim.evaluate_ms");
    Evaluate(g, aggs, installed, apsp);
  }
  if (segment == nullptr) return;
  {
    Tracer::Scope s(t, "traffic.predict_ms");
    std::vector<MeanRatePredictor> preds;
    AdvancePredictors(&preds, *segment, LdrControllerOptions{});
  }
  Appraisal ap;
  {
    Tracer::Scope s(t, "traffic.appraise_ms");
    ap = Appraise(g, *installed.store, installed.allocations, *segment,
                  MultiplexOptions{});
  }
  t->Add("traffic.appraise_links", static_cast<double>(ap.links));
  t->Add("traffic.appraise_skipped", static_cast<double>(ap.skipped));
  {
    Tracer::Scope s(t, "sim.replay_ms");
    ReplayTraffic(g, aggs, installed, *segment);
  }
}

// The busiest link of a placement (by load / capacity).
LinkId BusiestLink(const Graph& g, const std::vector<Aggregate>& aggs,
                   const RoutingOutcome& out) {
  std::vector<double> loads = LinkLoads(g, aggs, out);
  LinkId best = kInvalidLink;
  double best_util = 0;
  for (size_t l = 0; l < loads.size(); ++l) {
    double cap = g.link(static_cast<LinkId>(l)).capacity_gbps;
    if (cap > 0 && loads[l] / cap > best_util) {
      best_util = loads[l] / cap;
      best = static_cast<LinkId>(l);
    }
  }
  return best;
}

// Setup-time layer probes for workloads that neither generate campaigns nor
// see topology events themselves: GenerateCampaign on the workload's
// topology, and a three-epoch engine run in which the busiest cable of the
// workload's placement flaps (its event epochs' solve_ms).
void TraceSetupProbes(Tracer* t, const Topology& topo,
                      const std::vector<Aggregate>& aggs,
                      const RoutingOutcome& placement, uint64_t seed) {
  {
    double t0 = NowMs();
    GenerateCampaign(topo, seed);
    t->Add("sim.campaign_generate_ms", NowMs() - t0);
  }
  Scenario sc;
  sc.name = "event-probe";
  sc.aggregates = aggs;
  sc.epochs = 3;
  sc.series_100ms = ConstantScenarioTraffic(aggs, sc.epochs, sc.epoch_sec);
  sc.AddLinkFlap(topo.graph, BusiestLink(topo.graph, aggs, placement), 1, 2);
  ScenarioEngine engine(topo, std::move(sc));
  ScenarioReport r = engine.Run();
  std::vector<double> ev;
  for (const ScenarioEpochReport& er : r.epochs) {
    if (er.event_epoch) ev.push_back(er.solve_ms);
  }
  t->Add("routing.event_epoch_ms", Median(ev));
  t->Add("routing.dual_repair_epochs",
           static_cast<double>(r.dual_repair_epochs));
  t->Add("graph.ksp_evictions", static_cast<double>(r.ksp_evictions));
}

// Measured traffic, minute by minute: every aggregate's 100 ms rate series,
// synthesized ten minutes at a time (chunk c seeded by (seed, c), so any
// minute can be regenerated). Even aggregates are smooth (burst 0.05), odd
// ones bursty (0.3).
class TraceFeed {
 public:
  static constexpr int kChunkMinutes = 10;
  static constexpr size_t kSamplesPerMinute = 600;

  TraceFeed(const std::vector<Aggregate>* aggs, uint64_t seed)
      : aggs_(aggs), seed_(seed) {}

  const std::vector<std::vector<double>>& Minute(int m) {
    if (m / kChunkMinutes != chunk_) Load(m / kChunkMinutes);
    return minutes_[static_cast<size_t>(m % kChunkMinutes)];
  }

 private:
  void Load(int chunk) {
    Rng rng(Mix(seed_ + static_cast<uint64_t>(chunk)));
    minutes_.assign(kChunkMinutes,
                    std::vector<std::vector<double>>(aggs_->size()));
    for (size_t a = 0; a < aggs_->size(); ++a) {
      TraceOptions topts;
      topts.minutes = kChunkMinutes;
      topts.mean_gbps = (*aggs_)[a].demand_gbps;
      topts.burst_amplitude = (a % 2 == 0) ? 0.05 : 0.3;
      Rng trng = rng.Fork(a + 1);
      std::vector<double> series = SynthesizeTraceGbps(topts, &trng);
      for (size_t k = 0; k < kChunkMinutes; ++k) {
        auto begin = series.begin() + static_cast<long>(k * kSamplesPerMinute);
        minutes_[k][a].assign(begin, begin + kSamplesPerMinute);
      }
    }
    chunk_ = chunk;
  }

  const std::vector<Aggregate>* aggs_;
  uint64_t seed_;
  int chunk_ = -1;
  std::vector<std::vector<std::vector<double>>> minutes_;  // [k][a][sample]
};

uint64_t AggregatesHash(const std::vector<Aggregate>& aggs) {
  Fnv f;
  for (const Aggregate& a : aggs) {
    f.Add(static_cast<uint64_t>(a.src));
    f.Add(static_cast<uint64_t>(a.dst));
    f.AddDouble(a.demand_gbps);
    f.AddDouble(a.flow_count);
  }
  return f.h;
}

// ---------------------------------------------------------------- workloads --
struct OpResult {
  double ms = 0;       // the timed public call
  bool failed = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input from scratch; called kSetupRepeats times. Returns a
  // fingerprint of what it built (repeats must agree).
  virtual uint64_t Setup() = 0;
  virtual size_t PassSize() const = 0;
  // Runs sub-case `i`; pass 0 is the untimed warm-up pass.
  virtual OpResult Op(size_t i, int pass) = 0;
  double availability() const { return Mean(available_); }
  double mean_stretch() const { return Mean(stretch_); }
  bool mismatch() const { return mismatch_; }

 protected:
  explicit Workload(Tracer* t) : t_(t) {}
  // Records the deterministic figures in pass 0 and holds every later pass
  // to pass 0's placement hash for the same sub-case.
  void Check(size_t i, int pass, uint64_t hash) {
    if (pass == 0) {
      if (hashes_.size() <= i) hashes_.resize(i + 1);
      hashes_[i] = hash;
    } else if (hashes_[i] != hash) {
      mismatch_ = true;
    }
  }
  Tracer* t_;
  std::vector<uint64_t> hashes_;
  std::vector<double> available_;  // pass 0 only
  std::vector<double> stretch_;    // pass 0 only
  bool mismatch_ = false;
};

// steady_mux: an LdrController on GtsLike fed successive minutes. The
// aggregate set is the network's fixed traffic matrix (GtsLike at 0.7
// MinMax load, workload seed 1: 302 aggregates); --seed drives the measured
// traces. Every pass starts a fresh controller on a fresh KSP cache with the
// cold epoch of minute 0 (untimed; set-up's is the first) and then feeds it
// minutes 1..kWindow, one op each. Every pass replays the same minutes, so
// each timed epoch is held to the warm-up pass's placement for its minute.
class SteadyMux : public Workload {
 public:
  static constexpr int kWindow = 100;

  SteadyMux(Tracer* t, uint64_t seed) : Workload(t), seed_(seed) {}

  uint64_t Setup() override {
    s_ = std::make_unique<State>();
    s_->topo = GtsLike();
    const Graph& g = s_->topo.graph;
    WorkloadOptions w;
    w.num_instances = 1;
    w.target_utilization = 0.7;
    {
      KspCache cache(&g);
      double t0 = NowMs();
      s_->aggs = MakeScaledWorkloads(s_->topo, &cache, w)[0];
      s_->workload_ms = NowMs() - t0;
    }
    s_->feed = std::make_unique<TraceFeed>(&s_->aggs, Mix(seed_));
    s_->apsp = AllPairsShortestDelay(g);
    RoutingOutcome cold;
    cold_hash_ = Restart(&cold);
    if (t_->on()) {
      // Cold-LP routes, B4 and SP run on a cache of their own, so the
      // mirror's path production stays in step with the controller's.
      s_->probe_cache = std::make_unique<KspCache>(&g);
      IterativeLpRoute(g, s_->aggs, s_->probe_cache.get(), {});
      t_->Add("sim.workload_ms", s_->workload_ms);
      TraceSetupProbes(t_, s_->topo, s_->aggs, cold, Mix(seed_));
      t_->Flush(Tracer::kSetup);
    }
    Fnv f;
    f.Add(AggregatesHash(s_->aggs));
    f.Add(cold_hash_);
    return f.h;
  }

  size_t PassSize() const override { return kWindow; }

  OpResult Op(size_t i, int pass) override {
    if (i == 0 && pass > 0) {
      RoutingOutcome cold;
      if (Restart(&cold) != cold_hash_) mismatch_ = true;
    }
    const auto& segment = s_->feed->Minute(static_cast<int>(i) + 1);
    const Graph& g = s_->topo.graph;
    OpResult r;
    double t0 = NowMs();
    LdrControllerResult res = s_->controller->RunEpoch(s_->aggs, segment);
    r.ms = NowMs() - t0;
    r.failed = OutcomeFailed(g, res.outcome, res.fallback);
    uint64_t h = PlacementHash(*res.outcome.store, res.outcome.allocations);
    Check(i, pass, h);
    if (pass == 0) {
      EvalResult ev = Evaluate(g, s_->aggs, res.outcome, s_->apsp);
      available_.push_back(
          !r.failed && ev.congested_fraction == 0 && res.multiplex_ok ? 1 : 0);
      stretch_.push_back(ev.total_stretch);
    }
    if (t_->on()) {
      // Traced: the mirror runs the same epoch through spans; its placement
      // must equal the real controller's, bit for bit.
      RoutingOutcome mo;
      double m0 = NowMs();
      {
        Tracer::Scope s(t_, "routing.ldr_run_ms");
        MirrorEpoch(segment, &mo);
      }
      t_->Add("trace.op_traced_ms", NowMs() - m0);
      t_->Add("trace.op_untraced_ms", r.ms);
      if (PlacementHash(*mo.store, mo.allocations) != h) mismatch_ = true;
      TraceKspProduction(t_, g, s_->aggs, s_->mirror_reuse->paths);
      std::vector<Aggregate> working = s_->aggs;
      for (size_t a = 0; a < working.size(); ++a) {
        working[a].demand_gbps = mirror_estimate_[a];
      }
      TraceProbes(t_, g, s_->probe_cache.get(), working, mo, nullptr, true);
      {
        Tracer::Scope s(t_, "sim.replay_ms");
        ReplayTraffic(g, working, mo, segment);
      }
      t_->Flush(pass);
    }
    return r;
  }

 private:
  struct State {
    Topology topo;
    std::unique_ptr<KspCache> cache;
    std::vector<Aggregate> aggs;
    std::unique_ptr<TraceFeed> feed;
    std::vector<double> apsp;
    std::unique_ptr<LdrController> controller;
    double workload_ms = 0;
    std::unique_ptr<KspCache> mirror_cache;
    std::unique_ptr<LpReuseContext> mirror_reuse;
    std::unique_ptr<KspCache> probe_cache;
  };

  // A fresh controller on a fresh cache, run on minute 0 (its cold epoch);
  // a traced run restarts the span mirror beside it. Returns the cold
  // epoch's placement hash.
  uint64_t Restart(RoutingOutcome* cold) {
    const Graph& g = s_->topo.graph;
    s_->controller.reset();
    s_->cache = std::make_unique<KspCache>(&g);
    s_->controller = std::make_unique<LdrController>(&g, s_->cache.get());
    *cold = s_->controller->RunEpoch(s_->aggs, s_->feed->Minute(0)).outcome;
    if (t_->on()) {
      s_->mirror_cache = std::make_unique<KspCache>(&g);
      s_->mirror_reuse = std::make_unique<LpReuseContext>();
      mirror_predictors_.clear();
      RoutingOutcome o;
      MirrorEpoch(s_->feed->Minute(0), &o);
    }
    return PlacementHash(*cold->store, cold->allocations);
  }

  // LdrController::RunEpoch rebuilt from its public calls, each wrapped in
  // a span: predict -> (route -> appraise -> scale up)*. Only the clean
  // path is mirrored; a fired fallback rung fails the op anyway.
  void MirrorEpoch(const std::vector<std::vector<double>>& segment,
                   RoutingOutcome* out) {
    const Graph& g = s_->topo.graph;
    const LdrControllerOptions opts;
    KspCache* cache = s_->mirror_cache.get();
    const PathStore& store = *cache->store();
    {
      Tracer::Scope s(t_, "traffic.predict_ms");
      mirror_estimate_ = AdvancePredictors(&mirror_predictors_, segment, opts);
    }
    std::vector<Aggregate> working = s_->aggs;
    for (size_t a = 0; a < working.size(); ++a) {
      working[a].demand_gbps = mirror_estimate_[a];
    }
    double solve_total = 0;
    int rounds = 0;
    long lu_nnz = 0;
    for (int round = 0; round < opts.max_rounds; ++round) {
      rounds = round + 1;
      {
        Tracer::Scope s(t_, "routing.iterative_lp_route");
        *out = IterativeLpRoute(g, working, cache, opts.routing,
                                s_->mirror_reuse.get());
      }
      solve_total += out->solve_ms;
      lu_nnz = std::max(lu_nnz, out->lp_lu_nnz);
      RecordLpCounts(t_, *out);
      if (out->fallback == FallbackRung::kShortestPath) break;
      Appraisal ap;
      {
        Tracer::Scope s(t_, "traffic.appraise_ms");
        ap = Appraise(g, store, out->allocations, segment, opts.multiplex);
      }
      t_->Add("traffic.appraise_links", static_cast<double>(ap.links));
      t_->Add("traffic.appraise_skipped", static_cast<double>(ap.skipped));
      if (ap.failing_count == 0) break;
      std::vector<char> path_failing(store.size(), 0);
      for (size_t l = 0; l < g.LinkCount(); ++l) {
        if (ap.failing[l] == 0) continue;
        for (PathId p : store.PathsOnLink(static_cast<LinkId>(l))) {
          path_failing[static_cast<size_t>(p)] = 1;
        }
      }
      for (size_t a = 0; a < working.size(); ++a) {
        for (const PathAllocation& pa : out->allocations[a]) {
          if (pa.fraction > 1e-9 &&
              path_failing[static_cast<size_t>(pa.path)] != 0) {
            working[a].demand_gbps *= opts.scale_up;
            mirror_estimate_[a] = working[a].demand_gbps;
            break;
          }
        }
      }
    }
    t_->Add("routing.solve_ms", solve_total);
    t_->Add("routing.rounds", rounds);
    t_->Add("lp.lu_nnz", static_cast<double>(lu_nnz));
    if (out->fallback != FallbackRung::kNone || out->topology_repaired) {
      s_->mirror_reuse->lp.reset();
      s_->mirror_reuse->paths.clear();
    }
  }

  uint64_t seed_;
  std::unique_ptr<State> s_;
  uint64_t cold_hash_ = 0;
  std::vector<MeanRatePredictor> mirror_predictors_;
  std::vector<double> mirror_estimate_;
};

// cold_grid: one cold-cache LDR route per op over three grid instances.
// The grid (MakeGrid 10x10, seed 1: 100 nodes, 382 links) and its three
// matrices (workload seed 1, 0.77 MinMax load) do not depend on --seed: one
// matrix's cold route costs anywhere from 14 to 441 ms on seeded grids, which
// no run of a few matrices averages out.
class ColdGrid : public Workload {
 public:
  static constexpr int kInstances = 3;

  ColdGrid(Tracer* t, uint64_t seed) : Workload(t), seed_(seed) {}

  uint64_t Setup() override {
    s_ = std::make_unique<State>();
    Rng rng(1);
    s_->topo = MakeGrid("grid-10x10", 10, 10, 0.25, 0.06,
                        CentralEuropeRegion(), &rng, {100, 40, 0.25});
    KspCache cache(&s_->topo.graph);
    WorkloadOptions w;
    w.num_instances = kInstances;
    double t0 = NowMs();
    s_->instances = MakeScaledWorkloads(s_->topo, &cache, w);
    s_->workload_ms = NowMs() - t0;
    s_->apsp = AllPairsShortestDelay(s_->topo.graph);
    Fnv f;
    f.Add(s_->topo.graph.LinkCount());
    for (const auto& inst : s_->instances) f.Add(AggregatesHash(inst));
    if (t_->on()) {
      t_->Add("sim.workload_ms", s_->workload_ms);
      for (size_t i = 0; i < s_->instances.size(); ++i) {
        TraceFeed feed(&s_->instances[i], Mix(seed_ + i));
        s_->series.push_back(feed.Minute(0));
      }
      KspCache pc(&s_->topo.graph);
      RoutingOutcome first =
          IterativeLpRoute(s_->topo.graph, s_->instances[0], &pc, {});
      TraceSetupProbes(t_, s_->topo, s_->instances[0], first, Mix(seed_));
      t_->Flush(Tracer::kSetup);
    }
    return f.h;
  }

  size_t PassSize() const override { return s_->instances.size(); }

  OpResult Op(size_t i, int pass) override {
    const Graph& g = s_->topo.graph;
    const std::vector<Aggregate>& aggs = s_->instances[i];
    OpResult r;
    uint64_t h;
    {
      KspCache fresh(&g);
      double t0 = NowMs();
      RoutingOutcome out = IterativeLpRoute(g, aggs, &fresh, {});
      r.ms = NowMs() - t0;
      r.failed = OutcomeFailed(g, out, out.fallback);
      h = PlacementHash(*out.store, out.allocations);
      Check(i, pass, h);
      if (pass == 0) {
        EvalResult ev = Evaluate(g, aggs, out, s_->apsp);
        available_.push_back(!r.failed && ev.congested_fraction == 0 ? 1 : 0);
        stretch_.push_back(ev.total_stretch);
      }
    }
    if (t_->on()) {
      KspCache cache(&g);
      LpReuseContext reuse;  // exposes the grown path sets, same route
      RoutingOutcome out;
      double m0 = NowMs();
      {
        Tracer::Scope s(t_, "routing.ldr_run_ms");
        out = IterativeLpRoute(g, aggs, &cache, {}, &reuse);
      }
      t_->Add("trace.op_traced_ms", NowMs() - m0);
      t_->Add("trace.op_untraced_ms", r.ms);
      if (PlacementHash(*out.store, out.allocations) != h) mismatch_ = true;
      t_->Add("routing.solve_ms", out.solve_ms);
      t_->Add("routing.rounds", 1);
      RecordLpCounts(t_, out);
      TraceKspProduction(t_, g, aggs, reuse.paths);
      t_->Add("lp.lu_nnz", static_cast<double>(out.lp_lu_nnz));
      TraceProbes(t_, g, &cache, aggs, out, &s_->series[i], true);
      t_->Flush(pass);
    }
    return r;
  }

 private:
  struct State {
    Topology topo;
    std::vector<std::vector<Aggregate>> instances;
    std::vector<double> apsp;
    double workload_ms = 0;
    std::vector<std::vector<std::vector<double>>> series;  // traced only
  };
  uint64_t seed_;
  std::unique_ptr<State> s_;
};

// failover: pre-generated correlated-failure campaigns run by the scenario
// engine under LDR, B4 and SP, round-robin.
class Failover : public Workload {
 public:
  static constexpr size_t kTopologies = 8;
  static constexpr uint64_t kSeedsPerTopology = 5;

  Failover(Tracer* t, uint64_t seed) : Workload(t), seed_(seed) {}

  uint64_t Setup() override {
    s_ = std::make_unique<State>();
    s_->corpus = SurvivabilityCorpus(kTopologies);
    Fnv f;
    std::vector<double> gen_ms;
    for (const Topology& topo : s_->corpus) {
      for (uint64_t k = 0; k < kSeedsPerTopology; ++k) {
        double t0 = NowMs();
        // The survivability bench's slice: campaign seeds 1..5 per
        // topology, whatever --seed says.
        s_->campaigns.push_back(GenerateCampaign(topo, k + 1));
        gen_ms.push_back(NowMs() - t0);
        s_->campaign_topo.push_back(&topo);
        const Scenario& sc = s_->campaigns.back();
        f.Add(AggregatesHash(sc.aggregates));
        f.Add(sc.events.size());
      }
    }
    if (t_->on()) {
      for (double ms : gen_ms) {
        t_->Add("sim.campaign_generate_ms", ms);
        t_->Flush(Tracer::kSetup);
      }
      for (const Topology& topo : s_->corpus) {
        KspCache cache(&topo.graph);
        WorkloadOptions w;
        w.num_instances = 1;
        w.target_utilization = CampaignOptions{}.utilization;
        w.min_fraction_of_total = CampaignOptions{}.workload_min_fraction;
        w.seed = Mix(seed_ ^ 0xfa11);
        double t0 = NowMs();
        MakeScaledWorkloads(topo, &cache, w);
        t_->Add("sim.workload_ms", NowMs() - t0);
        t_->Flush(Tracer::kSetup);
      }
    }
    return f.h;
  }

  size_t PassSize() const override { return s_->campaigns.size() * 3; }

  OpResult Op(size_t i, int pass) override {
    static const char* const kDrivers[] = {"", "B4", "SP"};
    static const char* const kSpans[] = {"routing.ldr_run_ms",
                                         "routing.b4_run_ms",
                                         "routing.sp_run_ms"};
    const size_t c = i / 3;
    const size_t d = i % 3;
    const Topology& topo = *s_->campaign_topo[c];
    ScenarioEngineOptions eo;  // RunCampaign's options
    eo.scheme_id = kDrivers[d];
    eo.adaptive.enabled = true;
    OpResult r;
    ScenarioReport rep;
    {
      ScenarioEngine engine(topo, s_->campaigns[c], eo);
      double t0 = NowMs();
      rep = engine.Run();
      r.ms = NowMs() - t0;
    }
    Fnv chain;
    for (const ScenarioEpochReport& er : rep.epochs) {
      chain.Add(er.allocation_hash);
      if (!er.placement_valid || er.fallback != FallbackRung::kNone) {
        r.failed = true;
      }
    }
    Check(i, pass, chain.h);
    if (pass == 0 && d == 0) {
      available_.push_back(rep.Availability());
      for (const ScenarioEpochReport& er : rep.epochs) {
        stretch_.push_back(er.total_stretch);
      }
    }
    if (t_->on()) {
      ScenarioReport traced;
      {
        ScenarioEngine engine(topo, s_->campaigns[c], eo);
        double m0 = NowMs();
        {
          Tracer::Scope s(t_, kSpans[d]);
          traced = engine.Run();
        }
        t_->Add("trace.op_traced_ms", NowMs() - m0);
      }
      t_->Add("trace.op_untraced_ms", r.ms);
      Fnv tc;
      double solve = 0;
      int rounds = 0;
      long dual = 0;
      std::vector<double> event_ms;
      for (const ScenarioEpochReport& er : traced.epochs) {
        tc.Add(er.allocation_hash);
        solve += er.solve_ms;
        rounds += er.rounds;
        dual += er.lp_dual_pivots;
        if (er.event_epoch) event_ms.push_back(er.solve_ms);
      }
      // One event epoch, as on the other workloads: the run's median.
      if (d == 0 && !event_ms.empty()) {
        t_->Add("routing.event_epoch_ms", Median(event_ms));
      }
      if (tc.h != chain.h) mismatch_ = true;
      t_->Add("routing.solve_ms", solve);
      if (d == 0) {
        t_->Add("routing.rounds", static_cast<double>(rounds) /
                                        static_cast<double>(traced.epochs.size()));
        t_->Add("lp.dual_pivots", static_cast<double>(dual));
        t_->Add("routing.dual_repair_epochs",
                  static_cast<double>(traced.dual_repair_epochs));
        t_->Add("graph.ksp_evictions",
                  static_cast<double>(traced.ksp_evictions));
        ProbeCampaign(topo, s_->campaigns[c]);
      }
      t_->Flush(pass);
    }
    return r;
  }

 private:
  // LDR's epoch-0 work on the campaign, outside the engine: the cold route
  // (Yen on a fresh cache, then the same route on the warm cache) and the
  // traffic/sim layer calls on epoch 0's measured segment.
  void ProbeCampaign(const Topology& topo, const Scenario& sc) {
    const Graph& g = topo.graph;
    KspCache cache(&g);
    LpReuseContext reuse;
    RoutingOutcome out = IterativeLpRoute(g, sc.aggregates, &cache, {}, &reuse);
    RecordLpCounts(t_, out, false);
    TraceKspProduction(t_, g, sc.aggregates, reuse.paths);
    t_->Add("lp.lu_nnz", static_cast<double>(out.lp_lu_nnz));
    std::vector<std::vector<double>> segment(sc.series_100ms.size());
    const size_t n = static_cast<size_t>(sc.epoch_sec * 10.0 + 0.5);
    for (size_t a = 0; a < segment.size(); ++a) {
      const auto& full = sc.series_100ms[a];
      segment[a].assign(full.begin(),
                        full.begin() + static_cast<long>(std::min(n, full.size())));
    }
    TraceProbes(t_, g, &cache, sc.aggregates, out, &segment, false);
    {
      Tracer::Scope s(t_, "lp.warm_ksp_route_ms");
      IterativeLpRoute(g, sc.aggregates, &cache, {});
    }
  }

  struct State {
    std::vector<Topology> corpus;
    std::vector<Scenario> campaigns;
    std::vector<const Topology*> campaign_topo;
  };
  uint64_t seed_;
  std::unique_ptr<State> s_;
};

// ------------------------------------------------------------------ output --
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ldr_bench --workload steady_mux|cold_grid|failover "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      trace = v == "1";
    } else {
      return Usage();
    }
  }

  Tracer tracer(trace);
  std::unique_ptr<Workload> w;
  if (workload == "steady_mux") {
    w = std::make_unique<SteadyMux>(&tracer, seed);
  } else if (workload == "cold_grid") {
    w = std::make_unique<ColdGrid>(&tracer, seed);
  } else if (workload == "failover") {
    w = std::make_unique<Failover>(&tracer, seed);
  } else {
    return Usage();
  }

  bool correct = true;
  std::vector<double> setup_s;
  uint64_t setup_fp = 0;
  auto set_up = [&] {
    double t0 = NowMs();
    uint64_t fp = w->Setup();
    setup_s.push_back((NowMs() - t0) / 1000.0);
    if (setup_s.size() > 1 && fp != setup_fp) correct = false;
    setup_fp = fp;
  };
  // The first set-up precedes the warm-up pass; the others are spread over
  // the timed window, between passes, so that their median does not hang on
  // the host's speed in the second a set-up takes. A traced run's set-up is
  // not reported.
  const size_t setups = trace ? 1 : kSetupRepeats;
  set_up();

  std::unique_ptr<MemSentinel> sentinel;
  if (trace) sentinel = std::make_unique<MemSentinel>();
  size_t attempted = 0, failed = 0;
  const size_t pass = w->PassSize();
  for (size_t i = 0; i < pass; ++i) {
    ++attempted;
    if (w->Op(i, 0).failed) ++failed;
  }
  std::vector<std::vector<double>> repeats(pass);  // timed ms by sub-case
  size_t timed_ops = 0;
  const double t_start = NowMs();
  const int min_passes = trace ? 1 : kMinRepeats;  // traced: no op_ms
  int passes = 0;
  while (passes < min_passes || setup_s.size() < setups ||
         NowMs() - t_start < seconds * 1000.0) {
    if (setup_s.size() < setups &&
        NowMs() - t_start >= seconds * 1000.0 *
                                 static_cast<double>(setup_s.size()) /
                                 static_cast<double>(setups)) {
      set_up();
    }
    ++passes;
    for (size_t i = 0; i < pass; ++i) {
      OpResult r = w->Op(i, passes);
      ++attempted;
      if (r.failed) ++failed;
      repeats[i].push_back(r.ms);
      if (trace && ++timed_ops % 8 == 0) {
        tracer.Add("host.mem_ref_ms", sentinel->RunMs());
        tracer.Flush(Tracer::kTimed);
      }
    }
  }
  if (w->mismatch()) correct = false;
  std::vector<double> op_ms;  // one op time per sub-case
  for (const std::vector<double>& v : repeats) {
    op_ms.push_back(*std::min_element(v.begin(), v.end()));
  }
  std::fprintf(stderr,
               "%s seed %llu: %d timed passes of %zu sub-cases, "
               "availability %.6f, mean_stretch %.6f\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               passes, pass,
               w->availability(), w->mean_stretch());

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {{"op_ms_p50", Quantile(op_ms, 0.5), "ms"},
               {"op_ms_p90", Quantile(op_ms, 0.9), "ms"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"},
               {"availability", w->availability(), "fraction"},
               {"mean_stretch", w->mean_stretch(), "ratio"}};
  } else {
    using B = Tracer::Bucket;
    auto timed = [&](const char* n) {
      return Median(tracer.Samples(n, {B::kTimed, B::kSetup, B::kWarm}));
    };
    auto counted = [&](const char* n) {
      return Mean(tracer.Samples(n, {B::kWarm, B::kSetup, B::kTimed}));
    };
    for (const char* n :
         {"traffic.appraise_ms", "traffic.predict_ms", "routing.solve_ms",
          "routing.ldr_run_ms", "routing.b4_run_ms", "routing.sp_run_ms",
          "routing.event_epoch_ms", "lp.warm_ksp_route_ms", "graph.ksp_ms",
          "graph.apsp_ms", "sim.workload_ms", "sim.campaign_generate_ms",
          "sim.replay_ms", "sim.evaluate_ms", "host.mem_ref_ms"}) {
      metrics.push_back({n, timed(n), "ms"});
    }
    for (const char* n :
         {"traffic.appraise_links", "routing.rounds", "lp.iterations",
          "lp.pivots", "lp.refactorizations", "lp.rounds", "lp.lu_nnz",
          "lp.dual_pivots", "routing.dual_repair_epochs", "graph.ksp_evictions",
          "graph.paths_produced"}) {
      metrics.push_back({n, counted(n), "count"});
    }
    double links = counted("traffic.appraise_links");
    metrics.push_back({"traffic.appraise_skip_share",
                       links > 0 ? counted("traffic.appraise_skipped") / links
                                 : 0,
                       "fraction"});
    metrics.push_back({"trace.overhead_ratio",
                       timed("trace.op_traced_ms") /
                           timed("trace.op_untraced_ms"),
                       "ratio"});
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
