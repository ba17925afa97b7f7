// bench_to_json — runs the solver/runtime microbenchmarks that gate this
// repo's perf trajectory and emits them as JSON, so successive PRs have a
// machine-readable baseline to regress against.
//
//   bench_to_json [--smoke] [output-path]     (default: BENCH_lp.json)
//
//   --smoke   CI smoke mode (ci.sh --bench-smoke): reduced repetitions, the
//             slow sections (thread_scaling, path_store, ksp_cold,
//             lp_pricing's corpus slice) skipped and emitted as zeros with
//             "smoke": true at the top. All correctness markers — lp_revised
//             objective_parity, lp_lu / lp_pricing kkt_certificate, scenario
//             placement_parity, degradation recovery_parity, survivability
//             survivability_parity — are still computed for real, so a perf
//             refactor that breaks parity fails CI even in smoke mode.
//
// Sections:
//   lp_resolve        one Fig. 13 growth round on a routing-shaped LP:
//                     warm AddColumn+re-solve vs cold rebuild-and-solve
//   thread_scaling    RunCorpus over a bench-corpus slice with
//                     LDR_THREADS=1 vs LDR_THREADS=4, run as interleaved
//                     pairs: medians of each side, and the median, min and
//                     max of the per-pair speedups (meaningless on a 1-core
//                     container; see invalid_single_core)
//   path_store        PathStore interning telemetry of the thread_scaling
//                     corpus: allocation_refs is how many PathAllocation
//                     handles the corpus produced (each a PathId, not a
//                     copied link vector), unique_paths how many distinct
//                     paths were actually stored; hit rate = 1 - unique/refs
//   ksp_cold          the Yen work of a cold LDR route at perfbench's
//                     cold_grid shape (MakeGrid 10x10 seed 1, three
//                     MakeScaledWorkloads matrices): producing each
//                     aggregate's grown path set, as IterativeLpRoute leaves
//                     it in an LpReuseContext, on a fresh KspCache. One run
//                     produces all three matrices; median, min and max over
//                     the runs, and the paths one run produces
//   lp_revised        revised-simplex tracking: per-pivot cost and resident
//                     solver memory, counted on the solves lp_resolve and
//                     lp_pricing already run: the lp_resolve_large warm
//                     round, and the routing-shaped cold solves as
//                     shape_partial. basis_bytes is the sparse L/U + update
//                     file the solver actually keeps. objective_parity
//                     re-checks each warm solve against its cold rebuild,
//                     and is false if any base, warm or shape solve fails.
//   lp_lu             the basis-size sweep: routing-shaped LPs generated at
//                     increasing link counts, each solved cold. Per point:
//                     wall-clock, pivots, per-pivot ms and resident basis
//                     bytes, plus the LU factor telemetry (lu_nnz,
//                     fill_ratio, eta_count, refactorizations) — how the
//                     per-pivot cost and bytes grow with m is measured, not
//                     asserted. kkt_certificate (gated by ci.sh
//                     --bench-smoke) requires every solve of the sweep to
//                     carry a KKT optimality certificate from the
//                     independent checker in tests/kkt.h.
//   lp_pricing        candidate-list pricing load: routing-shaped LPs
//                     solved cold, plus the Fig. 13 loop over a warm-cache
//                     corpus slice, recording columns priced per simplex
//                     iteration and wall-clock. kkt_certificate (gated by
//                     ci.sh --bench-smoke) requires every routing-shaped
//                     solve to carry a KKT certificate (tests/kkt.h).
//   scenario          the fig21 failure/recovery timeline driven by the
//                     ScenarioEngine on a zoo topology: per-epoch LDR solve
//                     medians warm (persistent LP across epochs) vs cold
//                     (LP dropped before every epoch), route churn on
//                     event-free epochs (must be 0), reconvergence epochs
//                     after the LinkDown/LinkUp events, and the bitwise
//                     warm/cold placement parity flag. Timings carry the
//                     same invalid_single_core marker as thread_scaling on
//                     1-core containers (scheduling noise, not a baseline).
//   survivability     seeded correlated-failure campaigns (PR 10): SRLG
//                     conduit cuts, node outages, maintenance windows with a
//                     drain epoch, and cable flaps sampled deterministically
//                     from (topology, seed) over a zoo-corpus slice, run
//                     under LDR / B4 / SP with the closed-loop CUBIC demand
//                     model engaged. Per driver: availability mean/min,
//                     worst-case congestion and queueing, fallback-ladder
//                     rung counts, and the reconvergence-epoch distribution
//                     (p50 / max / never-reconverged). Two markers gated by
//                     ci.sh --bench-smoke: valid_every_epoch (no campaign
//                     epoch may install an invalid placement) and
//                     survivability_parity (replaying a campaign from its
//                     (topology, seed) is bitwise-identical — the per-epoch
//                     placement-hash chain must match). Smoke mode shrinks
//                     the slice (2 topologies x 2 seeds vs 8 x 5) but
//                     computes both markers for real.
//   degradation       the fig21 fixture re-run with deterministic fault
//                     windows (PR 6): lp.iter_limit and ksp.empty injected
//                     mid-outage, against a fault-free control run. Records
//                     which fallback-ladder rungs produced each faulted
//                     epoch's placement, asserts the control run never
//                     touched the ladder, that every epoch (faulted or not)
//                     installed a valid placement, and the recovery_parity
//                     marker: once faults clear, the placement hash returns
//                     to the control run's within two epochs. recovery_parity
//                     is correctness, not timing — ci.sh --bench-smoke gates
//                     on it like the other parity markers.
//   lp_dual           the same fixture runs as `scenario`, read for the
//                     dual-simplex repair: event-epoch solve medians and
//                     reconvergence wall clock of the default run against
//                     the cold reference (incremental=false) and the dual
//                     telemetry totals. Its placement check is the
//                     scenario section's placement_parity.
//
// Timings are medians over several repetitions, in milliseconds.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/failure_scenario.h"
#include "bench/lp_shapes.h"
#include "routing/lp_routing.h"
#include "sim/campaign.h"
#include "sim/corpus_runner.h"
#include "sim/scenario_engine.h"
#include "sim/workload.h"
#include "tests/kkt.h"
#include "topology/generators.h"
#include "util/random.h"

using namespace ldr;

namespace {

double NowMs() {
  using namespace std::chrono;
  return duration_cast<duration<double, std::milli>>(
             steady_clock::now().time_since_epoch())
      .count();
}

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// --- lp_resolve / lp_revised ----------------------------------------------

// lp_revised: the revised-simplex work of the solves an lp_resolve or
// lp_pricing run already does, counted on those same solves.
struct RevisedStats {
  double total_ms = 0;        // summed wall-clock of the measured solves
  int reps = 0;               // solves actually measured (failures excluded)
  long iters = 0;             // summed simplex iterations
  long pivots = 0;            // summed basis-changing pivots
  long ftran_nnz = 0;         // summed FTRAN input nonzeros
  size_t basis_bytes = 0;     // resident L/U + file bytes (last solver)
  bool objective_parity = true;
  double per_pivot_ms() const {
    return pivots > 0 ? total_ms / static_cast<double>(pivots) : 0;
  }
  // A failed solve clears objective_parity rather than dropping out.
  void Record(double ms, const lp::Solution& s) {
    total_ms += ms;
    if (!s.ok()) {
      objective_parity = false;
      return;
    }
    ++reps;
    iters += s.lp_iterations;
    pivots += s.lp_pivots;
    ftran_nnz += s.lp_ftran_nnz;
    basis_bytes = s.lp_basis_bytes;
  }
};

struct WarmCold {
  double warm_ms = 0;
  double cold_ms = 0;
  RevisedStats revised;  // the warm solves
  double speedup() const { return warm_ms > 0 ? cold_ms / warm_ms : 0; }
};

// One Fig. 13 growth round per rep: warm AddColumn+re-solve vs cold
// rebuild-and-solve. `revised` holds each warm objective to the cold one; a
// failed base solve clears its objective_parity too.
WarmCold BenchLpResolve(int aggregates, int links, int reps) {
  WarmCold wc;
  std::vector<double> warm, cold;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(7 + static_cast<uint64_t>(r),
                                             aggregates, links);
    bench::WarmLp base = bench::BuildSolverBase(spec);
    lp::Solution s0 = base.solver.Solve();
    if (!s0.ok()) {
      wc.revised.objective_parity = false;
      continue;
    }

    double t0 = NowMs();
    bench::AppendGrowth(spec, &base);
    lp::Solution sw = base.solver.Solve();
    warm.push_back(NowMs() - t0);
    wc.revised.Record(warm.back(), sw);

    t0 = NowMs();
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    lp::Solution sc = lp::Solve(p);
    cold.push_back(NowMs() - t0);

    if (!sw.ok()) continue;
    if (!sc.ok()) {
      wc.revised.objective_parity = false;
    } else if (std::abs(sw.objective - sc.objective) >
               1e-5 * (1 + std::abs(sc.objective))) {
      wc.revised.objective_parity = false;
      std::fprintf(stderr,
                   "bench_to_json: warm/cold objective mismatch (%g vs %g)\n",
                   sw.objective, sc.objective);
    }
  }
  if (!warm.empty()) wc.warm_ms = MedianMs(warm);
  if (!cold.empty()) wc.cold_ms = MedianMs(cold);
  return wc;
}

// --- thread_scaling ---------------------------------------------------------

double TimeCorpusMs(const std::vector<Topology>& corpus,
                    const CorpusRunOptions& opts, const char* threads,
                    uint64_t* allocation_refs = nullptr,
                    uint64_t* unique_paths = nullptr) {
  setenv("LDR_THREADS", threads, 1);
  double t0 = NowMs();
  std::vector<TopologyRun> runs = RunCorpus(corpus, opts);
  double elapsed = NowMs() - t0;
  unsetenv("LDR_THREADS");
  if (runs.size() != corpus.size()) {
    std::fprintf(stderr, "bench_to_json: corpus run dropped topologies\n");
  }
  for (const TopologyRun& run : runs) {
    if (allocation_refs != nullptr) *allocation_refs += run.path_allocation_refs;
    if (unique_paths != nullptr) *unique_paths += run.path_unique_stored;
  }
  return elapsed;
}

struct ThreadScaling {
  int pairs = 0;
  double threads1_ms = 0;  // medians over the pairs
  double threads4_ms = 0;
  double speedup = 0;  // median of the per-pair speedups
  double speedup_min = 0;
  double speedup_max = 0;
};

// Interleaved 1-thread / 4-thread pairs, so a slow episode of a shared host
// lands on both sides of a pair rather than on one whole side. The first
// 1-thread run also collects the PathStore interning telemetry.
ThreadScaling BenchThreadScaling(const std::vector<Topology>& corpus,
                                 const CorpusRunOptions& opts, int pairs,
                                 uint64_t* allocation_refs,
                                 uint64_t* unique_paths) {
  ThreadScaling out;
  std::vector<double> t1s, t4s, speedups;
  for (int i = 0; i < pairs; ++i) {
    double t1 = TimeCorpusMs(corpus, opts, "1",
                             i == 0 ? allocation_refs : nullptr,
                             i == 0 ? unique_paths : nullptr);
    double t4 = TimeCorpusMs(corpus, opts, "4");
    t1s.push_back(t1);
    t4s.push_back(t4);
    speedups.push_back(t4 > 0 ? t1 / t4 : 0);
  }
  out.pairs = pairs;
  out.threads1_ms = MedianMs(t1s);
  out.threads4_ms = MedianMs(t4s);
  out.speedup = MedianMs(speedups);
  out.speedup_min = *std::min_element(speedups.begin(), speedups.end());
  out.speedup_max = *std::max_element(speedups.begin(), speedups.end());
  return out;
}

// --- ksp_cold ---------------------------------------------------------------

struct KspCold {
  int runs = 0;
  double median_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  size_t paths_produced = 0;  // per run
};

KspCold BenchKspCold(int runs) {
  Rng rng(1);
  Topology topo = MakeGrid("grid-10x10", 10, 10, 0.25, 0.06,
                           CentralEuropeRegion(), &rng, {100, 40, 0.25});
  const Graph& g = topo.graph;
  std::vector<std::vector<Aggregate>> matrices;
  {
    KspCache cache(&g);
    WorkloadOptions w;
    w.num_instances = 3;
    matrices = MakeScaledWorkloads(topo, &cache, w);
  }
  // The grown path sets: one cold route per matrix.
  std::vector<std::vector<std::vector<PathId>>> grown;
  for (const std::vector<Aggregate>& aggs : matrices) {
    KspCache cache(&g);
    LpReuseContext reuse;
    IterativeLpRoute(g, aggs, &cache, IterativeOptions{}, &reuse);
    grown.push_back(std::move(reuse.paths));
  }
  KspCold out;
  std::vector<double> times;
  for (int r = 0; r < runs; ++r) {
    size_t produced = 0;
    double t0 = NowMs();
    for (size_t m = 0; m < matrices.size(); ++m) {
      KspCache fresh(&g);
      for (size_t a = 0; a < matrices[m].size() && a < grown[m].size(); ++a) {
        KspGenerator* gen = fresh.Get(matrices[m][a].src, matrices[m][a].dst);
        for (size_t k = 0; k < grown[m][a].size(); ++k) {
          if (gen->GetId(k) != kInvalidPathId) ++produced;
        }
      }
    }
    times.push_back(NowMs() - t0);
    out.paths_produced = produced;
  }
  out.runs = runs;
  out.median_ms = MedianMs(times);
  out.min_ms = *std::min_element(times.begin(), times.end());
  out.max_ms = *std::max_element(times.begin(), times.end());
  return out;
}

// --- lp_pricing -------------------------------------------------------------

struct PricingRun {
  double ms = 0;
  long columns = 0;  // total columns priced
  long iters = 0;    // total simplex iterations
  long solved = 0;   // instances that reached optimal
  bool kkt_certificate = true;
  RevisedStats revised;  // the routing-shaped solves (shape_partial)
  double per_iter() const {
    return iters > 0 ? static_cast<double>(columns) / static_cast<double>(iters)
                     : 0;
  }
};

// Cold solves of routing-shaped LPs, each optimum KKT-certified. A failed
// solve fails the certificate rather than dropping out of the sums.
PricingRun BenchPricingShapes(int aggregates, int links, int reps) {
  PricingRun out;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(21 + static_cast<uint64_t>(r),
                                             aggregates, links);
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    double t0 = NowMs();
    lp::Solver solver(p);
    lp::Solution s = solver.Solve();
    times.push_back(NowMs() - t0);
    out.revised.Record(times.back(), s);
    std::string violation = lp::KktViolation(p, s, &solver);
    if (!violation.empty()) {
      out.kkt_certificate = false;
      std::fprintf(stderr, "bench_to_json: lp_pricing KKT failure: %s\n",
                   violation.c_str());
      continue;
    }
    out.columns += s.lp_columns_priced;
    out.iters += s.lp_iterations;
    ++out.solved;
  }
  if (!times.empty()) out.ms = MedianMs(times);
  return out;
}

// The Fig. 13 loop over small corpus topologies with pre-warmed KSP caches,
// so the timed pass measures LP work rather than Yen's algorithm.
struct CorpusPricingFixture {
  std::vector<Topology> corpus;  // owns the graphs tops/caches point into
  std::vector<const Topology*> tops;
  std::vector<std::unique_ptr<KspCache>> caches;
  std::vector<std::vector<Aggregate>> workloads;
};

CorpusPricingFixture MakePricingFixture(std::vector<Topology> corpus) {
  CorpusPricingFixture f;
  f.corpus = std::move(corpus);
  for (const Topology& t : f.corpus) {
    if (t.graph.NodeCount() > 40) continue;
    auto cache = std::make_unique<KspCache>(&t.graph);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.seed = 91;
    f.workloads.push_back(MakeScaledWorkloads(t, cache.get(), wopts)[0]);
    f.tops.push_back(&t);
    f.caches.push_back(std::move(cache));
  }
  for (size_t i = 0; i < f.tops.size(); ++i) {
    IterativeOptions opts;
    IterativeLpRoute(f.tops[i]->graph, f.workloads[i], f.caches[i].get(), opts);
  }
  return f;
}

PricingRun BenchPricingCorpus(CorpusPricingFixture* f) {
  PricingRun out;
  double t0 = NowMs();
  for (size_t i = 0; i < f->tops.size(); ++i) {
    IterativeOptions opts;
    RoutingOutcome o = IterativeLpRoute(f->tops[i]->graph, f->workloads[i],
                                        f->caches[i].get(), opts);
    out.columns += o.lp_columns_priced;
    out.iters += o.lp_iterations;
    if (o.lp_failures == 0) ++out.solved;
  }
  out.ms = NowMs() - t0;
  return out;
}

// --- lp_lu ------------------------------------------------------------------

// One sweep point: generated routing-shaped LPs of one size, solved cold,
// each optimum checked against the KKT certificate.
struct LuSweepPoint {
  int groups = 0;
  int links = 0;
  size_t rows = 0;  // m of the solved LP
  double lu_ms = 0;
  long lu_pivots = 0;
  size_t lu_basis_bytes = 0;
  long lu_nnz = 0;
  double fill_ratio = 0;
  int eta_count = 0;
  int refactorizations = 0;
  int pivot_recoveries = 0;
  bool kkt_certificate = true;
  double lu_per_pivot_ms() const {
    return lu_pivots > 0 ? lu_ms / static_cast<double>(lu_pivots) : 0;
  }
};

LuSweepPoint BenchLuSweepPoint(int groups, int links, int reps) {
  LuSweepPoint out;
  out.groups = groups;
  out.links = links;
  for (int r = 0; r < reps; ++r) {
    auto spec = bench::RoutingLpSpec::Random(401 + static_cast<uint64_t>(r),
                                             groups, links);
    lp::Problem p = bench::BuildProblem(spec, /*with_growth=*/true);
    out.rows = p.RowCount();

    double t0 = NowMs();
    lp::Solver solver(p);
    lp::Solution sl = solver.Solve();
    // Wall-clock is summed over reps, like the pivot counts, so the
    // per-pivot quotients stay comparable across points with different rep
    // counts.
    out.lu_ms += NowMs() - t0;

    std::string violation = lp::KktViolation(p, sl, &solver);
    if (!violation.empty()) {
      out.kkt_certificate = false;
      std::fprintf(stderr, "bench_to_json: lp_lu KKT failure at m=%zu: %s\n",
                   out.rows, violation.c_str());
      continue;
    }
    out.lu_pivots += sl.lp_pivots;
    out.lu_basis_bytes = sl.lp_basis_bytes;
    out.lu_nnz = sl.lp_lu_nnz;
    out.fill_ratio = sl.lp_fill_ratio;
    out.eta_count = sl.lp_eta_count;
    out.refactorizations = sl.lp_refactorizations;
    out.pivot_recoveries += sl.lp_pivot_recoveries;
  }
  return out;
}

// --- scenario ---------------------------------------------------------------

struct ScenarioBench {
  int epochs = 0;
  size_t warm_epochs = 0;
  double warm_median_ms = 0;
  double cold_median_ms = 0;
  double churn_event_free = 0;
  int reconverge_down = -1;
  int reconverge_up = -1;
  bool placement_parity = false;
  uint64_t ksp_evictions = 0;
  double speedup() const {
    return warm_median_ms > 0 ? cold_median_ms / warm_median_ms : 0;
  }
};

// The fig21 fixture (bench/failure_scenario.h — one definition shared with
// the figure bench, so the JSON records the same experiment it plots), run
// once by default (persistent warm LP, dual-simplex repair at the events)
// and once as the cold reference (incremental=false: LP dropped before every
// epoch). The scenario, degradation and lp_dual sections all read these two
// runs.
struct FixtureRuns {
  bench::FailureTimelineFixture fixture = bench::MakeFailureTimeline();
  ScenarioReport warm;
  ScenarioReport cold;
};

FixtureRuns RunFixture() {
  FixtureRuns r;
  r.warm = ScenarioEngine(r.fixture.zoo, r.fixture.scenario).Run();
  ScenarioEngineOptions cold_opts;
  cold_opts.incremental = false;
  r.cold = ScenarioEngine(r.fixture.zoo, r.fixture.scenario, cold_opts).Run();
  return r;
}

ScenarioBench BenchScenario(const FixtureRuns& runs) {
  ScenarioBench out;
  const ScenarioReport& warm = runs.warm;
  const ScenarioReport& cold = runs.cold;

  out.epochs = runs.fixture.scenario.epochs;
  out.warm_epochs = warm.warm_epochs;
  out.warm_median_ms = warm.WarmSolveMsMedian();
  out.cold_median_ms = cold.ColdSolveMsMedian();
  out.churn_event_free =
      std::max(warm.EventFreeChurnMax(), cold.EventFreeChurnMax());
  // Worst case per event type; -1 ("never reconverged") dominates — it must
  // not be masked by the other direction recovering.
  auto worst = [](int acc, int v) {
    return (acc < 0 || v < 0) ? -1 : std::max(acc, v);
  };
  bool down_seen = false;
  bool up_seen = false;
  for (const ScenarioEventReport& evr : warm.events) {
    if (evr.event.type == ScenarioEvent::Type::kLinkDown) {
      out.reconverge_down = down_seen
                                ? worst(out.reconverge_down,
                                        evr.reconverge_epochs)
                                : evr.reconverge_epochs;
      down_seen = true;
    } else {
      out.reconverge_up =
          up_seen ? worst(out.reconverge_up, evr.reconverge_epochs)
                  : evr.reconverge_epochs;
      up_seen = true;
    }
  }
  out.placement_parity = !warm.epochs.empty() && PlacementParity(warm, cold);
  out.ksp_evictions = warm.ksp_evictions;
  if (!out.placement_parity) {
    std::fprintf(stderr,
                 "bench_to_json: scenario warm/cold placement mismatch\n");
  }
  return out;
}

// --- degradation ------------------------------------------------------------

struct DegradationBench {
  int epochs = 0;
  size_t fault_epochs = 0;
  // Faulted run: epochs whose placement came from each ladder rung
  // (fallback_counts[0] counts clean epochs).
  std::array<size_t, 5> fallback_counts{};
  // Fallback rungs fired by the fault-free control run — anything nonzero
  // means load alone triggered the ladder, which would invalidate the whole
  // comparison (and is asserted 0 by the fault campaigns).
  size_t clean_run_fallbacks = 0;
  bool valid_every_epoch = true;
  // Total routing wall-clock across the faulted run's fault-window epochs —
  // what the ladder retries cost (single-core caveat applies).
  double degraded_solve_ms = 0;
  bool recovery_parity = false;
};

// The fig21 fixture under fault injection: the same topology, workload and
// cable flap as `scenario`, plus two deterministic fault windows opened
// mid-outage — lp.iter_limit (solves fail outright, driving the ladder) and
// ksp.empty (path production starved during recovery). The control run is
// the fixture's default run. recovery_parity — the marker ci.sh gates on —
// requires (a) every epoch of both runs installed a valid placement, (b) the
// control run never touched the ladder, and (c) from two epochs after the
// last window closes, the faulted run's placement hashes are bitwise the
// control run's.
DegradationBench BenchDegradation(const FixtureRuns& runs) {
  DegradationBench out;
  const int kWindowFrom = 4, kWindowUntil = 6;  // inside the [3,7) outage

  Scenario faulted = runs.fixture.scenario;
  FaultWindow solve_fault;
  solve_fault.failpoint = "lp.iter_limit";
  solve_fault.from_epoch = kWindowFrom;
  solve_fault.until_epoch = kWindowUntil;
  solve_fault.spec.probability = 0.75;
  solve_fault.spec.seed = 1234;
  faulted.faults.push_back(solve_fault);
  FaultWindow ksp_fault;
  ksp_fault.failpoint = "ksp.empty";
  ksp_fault.from_epoch = kWindowFrom;
  ksp_fault.until_epoch = kWindowUntil;
  ksp_fault.spec.probability = 0.5;
  ksp_fault.spec.seed = 99;
  faulted.faults.push_back(ksp_fault);

  const ScenarioReport& control = runs.warm;
  ScenarioReport degraded = ScenarioEngine(runs.fixture.zoo, faulted).Run();

  out.epochs = faulted.epochs;
  out.fallback_counts = degraded.fallback_counts;
  for (size_t rung = 1; rung < control.fallback_counts.size(); ++rung) {
    out.clean_run_fallbacks += control.fallback_counts[rung];
  }
  for (const ScenarioEpochReport& er : control.epochs) {
    out.valid_every_epoch = out.valid_every_epoch && er.placement_valid;
  }
  for (const ScenarioEpochReport& er : degraded.epochs) {
    out.valid_every_epoch = out.valid_every_epoch && er.placement_valid;
    if (er.fault_epoch) {
      ++out.fault_epochs;
      out.degraded_solve_ms += er.solve_ms;
    }
  }
  bool hash_reconverged = control.epochs.size() == degraded.epochs.size();
  for (int e = kWindowUntil + 2; e < out.epochs && hash_reconverged; ++e) {
    hash_reconverged = degraded.epochs[static_cast<size_t>(e)].allocation_hash ==
                       control.epochs[static_cast<size_t>(e)].allocation_hash;
  }
  out.recovery_parity = out.valid_every_epoch &&
                        out.clean_run_fallbacks == 0 && hash_reconverged;
  if (!out.recovery_parity) {
    std::fprintf(stderr,
                 "bench_to_json: degradation recovery mismatch "
                 "(valid %d, clean-run fallbacks %zu, reconverged %d)\n",
                 out.valid_every_epoch ? 1 : 0, out.clean_run_fallbacks,
                 hash_reconverged ? 1 : 0);
  }
  return out;
}

// --- survivability ----------------------------------------------------------

struct DriverSurvivability {
  std::string driver;
  size_t campaigns = 0;
  double availability_mean = 0;
  double availability_min = 1;
  double worst_congestion = 0;
  double worst_queue_ms = 0;
  std::array<size_t, 5> rung_counts{};  // summed over campaigns
  std::vector<int> reconverge;          // every applied event's epochs
  size_t never_reconverged = 0;         // -1 entries split out
  size_t events_applied = 0;
  double min_demand_scale = 1;
  bool valid_every_epoch = true;
  int reconverge_p50() const {
    if (reconverge.empty()) return 0;
    std::vector<int> sorted = reconverge;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
  int reconverge_max() const {
    return reconverge.empty()
               ? 0
               : *std::max_element(reconverge.begin(), reconverge.end());
  }
};

struct SurvivabilityBench {
  size_t topologies = 0;
  uint64_t seeds = 0;
  int epochs_per_campaign = 0;
  std::vector<DriverSurvivability> drivers;
  bool valid_every_epoch = true;
  // Replay identity: re-generating and re-running a campaign from its
  // (topology, seed) reproduces the exact per-epoch placement-hash chain.
  bool survivability_parity = true;
};

// Seeded correlated-failure campaigns over a corpus slice, LDR vs B4 vs SP.
// Availability / congestion / reconvergence are telemetry; the two markers
// (valid_every_epoch, survivability_parity) are correctness and computed for
// real in smoke mode too — on the reduced slice.
SurvivabilityBench BenchSurvivability(bool smoke) {
  SurvivabilityBench out;
  const uint64_t seeds = smoke ? 2 : 5;
  std::vector<Topology> corpus = SurvivabilityCorpus(smoke ? 2 : 8);
  out.topologies = corpus.size();
  out.seeds = seeds;
  out.epochs_per_campaign = CampaignOptions{}.epochs;
  // The LDR sweep's seed-1 hash per topology, replayed below for parity.
  std::vector<uint64_t> ldr_seed1_hash;
  for (const char* id : {"", "B4", "SP"}) {
    DriverSurvivability d;
    d.driver = *id != '\0' ? id : "LDR";
    double avail_sum = 0;
    for (const Topology& topo : corpus) {
      for (uint64_t seed = 1; seed <= seeds; ++seed) {
        CampaignRunResult r = RunCampaign(topo, seed, id);
        ++d.campaigns;
        avail_sum += r.availability;
        d.availability_min = std::min(d.availability_min, r.availability);
        d.worst_congestion = std::max(d.worst_congestion, r.worst_congestion);
        d.worst_queue_ms = std::max(d.worst_queue_ms, r.worst_queue_ms);
        for (size_t rung = 0; rung < r.fallback_counts.size(); ++rung) {
          d.rung_counts[rung] += r.fallback_counts[rung];
        }
        for (int e : r.reconverge_epochs) {
          if (e < 0) {
            ++d.never_reconverged;
          } else {
            d.reconverge.push_back(e);
          }
        }
        d.events_applied += r.events_applied;
        d.min_demand_scale = std::min(d.min_demand_scale, r.min_demand_scale);
        d.valid_every_epoch = d.valid_every_epoch && r.valid_every_epoch;
        if (*id == '\0' && seed == 1) {
          ldr_seed1_hash.push_back(r.placement_hash);
        }
      }
    }
    d.availability_mean =
        d.campaigns > 0 ? avail_sum / static_cast<double>(d.campaigns) : 0;
    out.valid_every_epoch = out.valid_every_epoch && d.valid_every_epoch;
    out.drivers.push_back(std::move(d));
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    CampaignRunResult replay = RunCampaign(corpus[i], 1, "");
    if (replay.placement_hash != ldr_seed1_hash[i]) {
      out.survivability_parity = false;
      std::fprintf(stderr,
                   "bench_to_json: survivability replay mismatch on %s\n",
                   corpus[i].name.c_str());
    }
  }
  return out;
}

// --- lp_dual ----------------------------------------------------------------

struct LpDualBench {
  int epochs = 0;
  size_t dual_repair_epochs = 0;
  // Solve medians over the topology-event epochs only — the population the
  // dual warm restart exists to make cheap.
  double dual_event_median_ms = 0;
  double cold_event_median_ms = 0;
  // Warm-run telemetry totals, summed over the epoch reports' inherited
  // lp::SolveStats.
  long dual_pivots = 0;
  long bound_flips = 0;
  long warm_restart_solves = 0;
  // Per event: the wall clock from the event to the regained clean
  // placement, in the default run and in the cold reference.
  std::vector<double> dual_reconverge_ms;
  std::vector<double> cold_reconverge_ms;
  double speedup() const {
    return dual_event_median_ms > 0
               ? cold_event_median_ms / dual_event_median_ms
               : 0;
  }
};

// The dual warm restart on the fixture's two runs: the default run
// repairs the LP in place on the cable flap's LinkDown/LinkUp and re-enters
// via dual simplex; the cold reference rebuilds the LP every epoch, so its
// event epochs pay the cold rebuild a repair avoids. That every epoch but
// the dual-repaired ones places bitwise alike in the two runs is the
// scenario section's placement_parity marker.
LpDualBench BenchLpDual(const FixtureRuns& runs) {
  LpDualBench out;
  const ScenarioReport& dual = runs.warm;
  const ScenarioReport& cold = runs.cold;

  out.epochs = runs.fixture.scenario.epochs;
  out.dual_repair_epochs = dual.dual_repair_epochs;
  std::vector<double> dual_ms, cold_ms;
  for (size_t e = 0; e < dual.epochs.size(); ++e) {
    const ScenarioEpochReport& er = dual.epochs[e];
    out.dual_pivots += er.lp_dual_pivots;
    out.bound_flips += er.lp_bound_flips;
    out.warm_restart_solves += er.lp_warm_restart;
    if (!er.event_epoch) continue;
    dual_ms.push_back(er.solve_ms);
    cold_ms.push_back(cold.epochs[e].solve_ms);
  }
  if (!dual_ms.empty()) out.dual_event_median_ms = MedianMs(dual_ms);
  if (!cold_ms.empty()) out.cold_event_median_ms = MedianMs(cold_ms);

  for (const ScenarioEventReport& evr : dual.events) {
    out.dual_reconverge_ms.push_back(evr.reconverge_ms);
  }
  for (const ScenarioEventReport& evr : cold.events) {
    out.cold_reconverge_ms.push_back(evr.reconverge_ms);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_lp.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  std::fprintf(stderr, "bench_to_json: lp_resolve...\n");
  WarmCold resolve_small = BenchLpResolve(50, 25, smoke ? 3 : 7);
  WarmCold resolve_large = BenchLpResolve(150, 75, smoke ? 1 : 3);

  std::fprintf(stderr, "bench_to_json: lp_lu sweep...\n");
  std::vector<LuSweepPoint> lu_sweep;
  lu_sweep.push_back(BenchLuSweepPoint(50, 25, smoke ? 1 : 3));
  lu_sweep.push_back(BenchLuSweepPoint(100, 50, smoke ? 1 : 3));
  lu_sweep.push_back(BenchLuSweepPoint(200, 100, smoke ? 1 : 2));
  lu_sweep.push_back(BenchLuSweepPoint(400, 200, 1));
  bool kkt_certificate = true;
  for (const LuSweepPoint& pt : lu_sweep) kkt_certificate &= pt.kkt_certificate;

  std::fprintf(stderr, "bench_to_json: lp_pricing...\n");
  PricingRun pricing_shapes = BenchPricingShapes(120, 60, smoke ? 2 : 5);
  const RevisedStats& revised_resolve = resolve_large.revised;
  const RevisedStats& revised_shapes = pricing_shapes.revised;
  bool revised_parity =
      revised_resolve.objective_parity && revised_shapes.objective_parity;
  if (!revised_parity) {
    std::fprintf(stderr, "bench_to_json: lp_revised objective mismatch\n");
  }
  PricingRun pricing_corpus;
  if (!smoke) {
    CorpusPricingFixture fixture = MakePricingFixture(bench::BenchCorpus(8));
    pricing_corpus = BenchPricingCorpus(&fixture);
  }

  // The fig21 fixture's default and cold-reference runs feed three cheap
  // sections, two of which carry a correctness gate (placement_parity,
  // recovery_parity), so they run in smoke mode too.
  std::fprintf(stderr, "bench_to_json: scenario...\n");
  FixtureRuns fixture_runs = RunFixture();
  ScenarioBench scenario = BenchScenario(fixture_runs);

  std::fprintf(stderr, "bench_to_json: degradation...\n");
  DegradationBench degradation = BenchDegradation(fixture_runs);

  std::fprintf(stderr, "bench_to_json: lp_dual...\n");
  LpDualBench lp_dual = BenchLpDual(fixture_runs);

  // Correctness-gated too (valid_every_epoch, survivability_parity): smoke
  // mode runs the reduced slice rather than skipping the section.
  std::fprintf(stderr, "bench_to_json: survivability...\n");
  SurvivabilityBench survivability = BenchSurvivability(smoke);

  std::vector<Topology> corpus;
  uint64_t allocation_refs = 0, unique_paths = 0;
  ThreadScaling scaling;
  if (!smoke) {
    std::fprintf(stderr, "bench_to_json: thread_scaling...\n");
    corpus = bench::BenchCorpus(/*small_stride=*/8);
    CorpusRunOptions copts;
    copts.scheme_ids = {kSchemeOptimal, kSchemeMinMax};
    copts.workload.num_instances = 4;
    copts.max_nodes = 40;
    scaling = BenchThreadScaling(corpus, copts, /*pairs=*/5, &allocation_refs,
                                 &unique_paths);
  }
  KspCold ksp_cold;
  if (!smoke) {
    std::fprintf(stderr, "bench_to_json: ksp_cold...\n");
    ksp_cold = BenchKspCold(/*runs=*/7);
  }
  double hit_rate =
      allocation_refs > unique_paths
          ? 1.0 - static_cast<double>(unique_paths) /
                      static_cast<double>(allocation_refs)
          : 0;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_to_json: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  if (smoke) std::fprintf(f, "  \"smoke\": true,\n");
  auto emit_wc = [&](const char* name, const WarmCold& wc, bool comma) {
    std::fprintf(f,
                 "  \"%s\": {\"warm_ms\": %.3f, \"cold_ms\": %.3f, "
                 "\"speedup\": %.2f}%s\n",
                 name, wc.warm_ms, wc.cold_ms, wc.speedup(), comma ? "," : "");
  };
  emit_wc("lp_resolve_small", resolve_small, true);
  emit_wc("lp_resolve_large", resolve_large, true);
  // A 1-core container cannot exhibit thread scaling: the measured ~1.0
  // "speedup" is pure scheduling noise, so mark it invalid instead of
  // letting it masquerade as a regression baseline.
  unsigned hw_threads = std::thread::hardware_concurrency();
  bool single_core = hw_threads <= 1;
  std::fprintf(f,
               "  \"thread_scaling\": {\"pairs\": %d, \"threads1_ms\": %.1f, "
               "\"threads4_ms\": %.1f, \"speedup\": %.2f, "
               "\"speedup_min\": %.2f, \"speedup_max\": %.2f, "
               "\"topologies\": %zu, \"hardware_threads\": %u%s},\n",
               scaling.pairs, scaling.threads1_ms, scaling.threads4_ms,
               scaling.speedup, scaling.speedup_min, scaling.speedup_max,
               corpus.size(), hw_threads,
               single_core ? ", \"invalid_single_core\": true" : "");
  std::fprintf(f,
               "  \"path_store\": {\"allocation_refs\": %llu, "
               "\"unique_paths\": %llu, \"intern_hit_rate\": %.4f},\n",
               static_cast<unsigned long long>(allocation_refs),
               static_cast<unsigned long long>(unique_paths), hit_rate);
  std::fprintf(f,
               "  \"ksp_cold\": {\"matrices\": 3, \"n\": %d, "
               "\"median_ms\": %.3f, \"min_ms\": %.3f, \"max_ms\": %.3f, "
               "\"paths_produced\": %zu},\n",
               ksp_cold.runs, ksp_cold.median_ms, ksp_cold.min_ms,
               ksp_cold.max_ms, ksp_cold.paths_produced);
  // Same 1-core caveat as thread_scaling: epoch solve medians measured on a
  // loaded single-core container are scheduling noise, so they carry the
  // same marker instead of becoming a perf baseline.
  std::fprintf(f,
               "  \"scenario\": {\"epochs\": %d, \"warm_epochs\": %zu, "
               "\"warm_median_ms\": %.3f, \"cold_median_ms\": %.3f, "
               "\"speedup\": %.2f, \"churn_event_free\": %.4f, "
               "\"reconverge_down_epochs\": %d, \"reconverge_up_epochs\": %d, "
               "\"placement_parity\": %s, \"ksp_evictions\": %llu%s},\n",
               scenario.epochs, scenario.warm_epochs, scenario.warm_median_ms,
               scenario.cold_median_ms, scenario.speedup(),
               scenario.churn_event_free, scenario.reconverge_down,
               scenario.reconverge_up,
               scenario.placement_parity ? "true" : "false",
               static_cast<unsigned long long>(scenario.ksp_evictions),
               single_core ? ", \"invalid_single_core\": true" : "");
  auto emit_revised = [&](const char* name, const RevisedStats& rs) {
    double per_solve = rs.reps > 0 ? rs.total_ms / rs.reps : 0;
    std::fprintf(
        f,
        "    \"%s\": {\"ms\": %.3f, \"iterations\": %ld, \"pivots\": %ld, "
        "\"per_pivot_ms\": %.5f, \"ftran_nnz\": %ld, \"basis_bytes\": %zu},\n",
        name, per_solve, rs.iters, rs.pivots, rs.per_pivot_ms(), rs.ftran_nnz,
        rs.basis_bytes);
  };
  std::fprintf(f, "  \"lp_revised\": {\n");
  emit_revised("lp_resolve_large", revised_resolve);
  emit_revised("shape_partial", revised_shapes);
  std::fprintf(f, "    \"objective_parity\": %s\n  },\n",
               revised_parity ? "true" : "false");
  std::fprintf(f, "  \"lp_lu\": {\n    \"sweep\": [\n");
  for (size_t i = 0; i < lu_sweep.size(); ++i) {
    const LuSweepPoint& pt = lu_sweep[i];
    std::fprintf(
        f,
        "      {\"groups\": %d, \"links\": %d, \"rows\": %zu, "
        "\"lu_ms\": %.3f, \"lu_per_pivot_ms\": %.5f, "
        "\"lu_basis_bytes\": %zu, "
        "\"lu_nnz\": %ld, \"fill_ratio\": %.2f, \"eta_count\": %d, "
        "\"refactorizations\": %d, \"pivot_recoveries\": %d, "
        "\"kkt_certificate\": %s}%s\n",
        pt.groups, pt.links, pt.rows, pt.lu_ms, pt.lu_per_pivot_ms(),
        pt.lu_basis_bytes, pt.lu_nnz, pt.fill_ratio, pt.eta_count,
        pt.refactorizations, pt.pivot_recoveries,
        pt.kkt_certificate ? "true" : "false",
        i + 1 < lu_sweep.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"kkt_certificate\": %s\n  },\n",
               kkt_certificate ? "true" : "false");
  auto emit_pricing = [&](const char* name, const PricingRun& pr, bool comma) {
    std::fprintf(f,
                 "    \"%s\": {\"ms\": %.3f, \"columns_priced\": %ld, "
                 "\"iterations\": %ld, \"columns_per_iteration\": %.1f, "
                 "\"solved\": %ld}%s\n",
                 name, pr.ms, pr.columns, pr.iters, pr.per_iter(), pr.solved,
                 comma ? "," : "");
  };
  std::fprintf(f, "  \"lp_pricing\": {\n");
  emit_pricing("shapes", pricing_shapes, true);
  emit_pricing("corpus", pricing_corpus, true);
  std::fprintf(f, "    \"kkt_certificate\": %s\n",
               pricing_shapes.kkt_certificate ? "true" : "false");
  std::fprintf(f, "  },\n");
  // degraded_solve_ms is wall-clock and inherits the 1-core caveat; the
  // rung counts and recovery_parity are correctness and carry no marker.
  std::fprintf(
      f,
      "  \"degradation\": {\"epochs\": %d, \"fault_epochs\": %zu, "
      "\"rung_retry_refactor\": %zu, \"rung_cold_rebuild\": %zu, "
      "\"rung_last_placement\": %zu, \"rung_shortest_path\": %zu, "
      "\"clean_run_fallbacks\": %zu, \"valid_every_epoch\": %s, "
      "\"degraded_solve_ms\": %.3f, \"recovery_parity\": %s%s}\n",
      degradation.epochs, degradation.fault_epochs,
      degradation.fallback_counts[1], degradation.fallback_counts[2],
      degradation.fallback_counts[3], degradation.fallback_counts[4],
      degradation.clean_run_fallbacks,
      degradation.valid_every_epoch ? "true" : "false",
      degradation.degraded_solve_ms,
      degradation.recovery_parity ? "true" : "false",
      single_core ? ", \"invalid_single_core\": true" : "");
  std::fprintf(f, ",\n");
  // The telemetry totals (dual_pivots / bound_flips / warm_restart) are
  // correctness; the event-epoch medians are wall-clock and carry the same
  // 1-core marker as the other timing sections.
  auto emit_reconverge = [&](const char* name, const std::vector<double>& ms,
                             bool comma) {
    std::fprintf(f, "    \"%s\": [", name);
    for (size_t i = 0; i < ms.size(); ++i) {
      std::fprintf(f, "%s%.3f", i > 0 ? ", " : "", ms[i]);
    }
    std::fprintf(f, "]%s\n", comma ? "," : "");
  };
  std::fprintf(
      f,
      "  \"lp_dual\": {\n"
      "    \"epochs\": %d, \"dual_repair_epochs\": %zu,\n"
      "    \"dual_event_median_ms\": %.3f, \"cold_event_median_ms\": %.3f, "
      "\"speedup\": %.2f,\n"
      "    \"dual_pivots\": %ld, \"bound_flips\": %ld, \"warm_restart\": "
      "%ld,\n",
      lp_dual.epochs, lp_dual.dual_repair_epochs, lp_dual.dual_event_median_ms,
      lp_dual.cold_event_median_ms, lp_dual.speedup(), lp_dual.dual_pivots,
      lp_dual.bound_flips, lp_dual.warm_restart_solves);
  emit_reconverge("dual_reconverge_ms", lp_dual.dual_reconverge_ms, true);
  emit_reconverge("cold_reconverge_ms", lp_dual.cold_reconverge_ms,
                  single_core);
  std::fprintf(f, "%s  },\n",
               single_core ? "    \"invalid_single_core\": true\n" : "");
  // Availability / congestion are deterministic simulation outputs, not
  // wall-clock, so the section carries no single-core marker.
  std::fprintf(f,
               "  \"survivability\": {\n"
               "    \"topologies\": %zu, \"seeds\": %llu, "
               "\"epochs_per_campaign\": %d,\n",
               survivability.topologies,
               static_cast<unsigned long long>(survivability.seeds),
               survivability.epochs_per_campaign);
  for (const DriverSurvivability& d : survivability.drivers) {
    std::fprintf(
        f,
        "    \"%s\": {\"campaigns\": %zu, \"availability_mean\": %.4f, "
        "\"availability_min\": %.4f, \"worst_congestion\": %.4f, "
        "\"worst_queue_ms\": %.1f, \"events_applied\": %zu, "
        "\"reconverge_p50\": %d, \"reconverge_max\": %d, "
        "\"never_reconverged\": %zu, \"rung_retry_refactor\": %zu, "
        "\"rung_cold_rebuild\": %zu, \"rung_last_placement\": %zu, "
        "\"rung_shortest_path\": %zu, \"min_demand_scale\": %.4f, "
        "\"valid_every_epoch\": %s},\n",
        d.driver.c_str(), d.campaigns, d.availability_mean,
        d.availability_min, d.worst_congestion, d.worst_queue_ms,
        d.events_applied, d.reconverge_p50(), d.reconverge_max(),
        d.never_reconverged, d.rung_counts[1], d.rung_counts[2],
        d.rung_counts[3], d.rung_counts[4], d.min_demand_scale,
        d.valid_every_epoch ? "true" : "false");
  }
  std::fprintf(f,
               "    \"valid_every_epoch\": %s,\n"
               "    \"survivability_parity\": %s\n  }\n",
               survivability.valid_every_epoch ? "true" : "false",
               survivability.survivability_parity ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_to_json: wrote %s\n", out_path.c_str());

  std::printf(
      "lp_resolve    warm %.3f ms  cold %.3f ms  speedup %.1fx\n"
      "lp_revised    resolve_large %.3f ms  shape_partial %.3f ms  "
      "basis %zu B  parity %s\n"
      "lp_lu         largest m=%zu  lu %.1f ms / %zu B  fill %.2f  kkt %s\n"
      "threads 1->4  %.1f ms -> %.1f ms  speedup %.2fx (%.2f-%.2f)\n"
      "path_store    %llu allocation refs -> %llu unique paths  "
      "hit rate %.1f%%\n"
      "ksp_cold      %.3f ms (%.3f-%.3f, n=%d)  %zu paths\n"
      "lp_pricing    shapes %.1f cols/iter (%.3f ms)  "
      "corpus %.1f cols/iter (%.1f ms)  kkt %s\n"
      "scenario      warm %.3f ms  cold %.3f ms  speedup %.1fx  "
      "churn %.3f  reconverge down/up %d/%d  parity %s\n"
      "degradation   %zu fault epochs  rungs r1/r2/r3/r4 %zu/%zu/%zu/%zu  "
      "clean-run rungs %zu  recovery parity %s\n",
      resolve_small.warm_ms, resolve_small.cold_ms, resolve_small.speedup(),
      revised_resolve.reps > 0 ? revised_resolve.total_ms / revised_resolve.reps
                               : 0.0,
      revised_shapes.reps > 0 ? revised_shapes.total_ms / revised_shapes.reps
                              : 0.0,
      revised_shapes.basis_bytes, revised_parity ? "yes" : "NO",
      lu_sweep.back().rows, lu_sweep.back().lu_ms,
      lu_sweep.back().lu_basis_bytes, lu_sweep.back().fill_ratio,
      kkt_certificate ? "yes" : "NO",
      scaling.threads1_ms, scaling.threads4_ms, scaling.speedup,
      scaling.speedup_min, scaling.speedup_max,
      static_cast<unsigned long long>(allocation_refs),
      static_cast<unsigned long long>(unique_paths), hit_rate * 100,
      ksp_cold.median_ms, ksp_cold.min_ms, ksp_cold.max_ms, ksp_cold.runs,
      ksp_cold.paths_produced, pricing_shapes.per_iter(), pricing_shapes.ms,
      pricing_corpus.per_iter(), pricing_corpus.ms,
      pricing_shapes.kkt_certificate ? "yes" : "NO",
      scenario.warm_median_ms, scenario.cold_median_ms, scenario.speedup(),
      scenario.churn_event_free, scenario.reconverge_down,
      scenario.reconverge_up, scenario.placement_parity ? "yes" : "NO",
      degradation.fault_epochs, degradation.fallback_counts[1],
      degradation.fallback_counts[2], degradation.fallback_counts[3],
      degradation.fallback_counts[4], degradation.clean_run_fallbacks,
      degradation.recovery_parity ? "yes" : "NO");
  std::printf(
      "lp_dual       event epochs dual %.3f ms  cold %.3f ms  speedup %.1fx  "
      "repaired %zu  pivots %ld  flips %ld\n",
      lp_dual.dual_event_median_ms, lp_dual.cold_event_median_ms,
      lp_dual.speedup(), lp_dual.dual_repair_epochs, lp_dual.dual_pivots,
      lp_dual.bound_flips);
  for (const DriverSurvivability& d : survivability.drivers) {
    std::printf(
        "survivability %-3s  %zu campaigns  avail %.3f (min %.3f)  "
        "worst congestion %.3f  reconverge p50/max %d/%d (+%zu never)  "
        "rungs r3/r4 %zu/%zu\n",
        d.driver.c_str(), d.campaigns, d.availability_mean,
        d.availability_min, d.worst_congestion, d.reconverge_p50(),
        d.reconverge_max(), d.never_reconverged, d.rung_counts[3],
        d.rung_counts[4]);
  }
  std::printf("survivability markers  valid_every_epoch %s  replay parity %s\n",
              survivability.valid_every_epoch ? "yes" : "NO",
              survivability.survivability_parity ? "yes" : "NO");
  return 0;
}
