// Shared driver for every corpus-wide experiment (Figs. 3, 4, 16, 17, 18,
// 19): run a set of routing schemes over scaled traffic-matrix instances of
// a topology and collect the per-instance measurements.
#ifndef LDR_SIM_CORPUS_RUNNER_H_
#define LDR_SIM_CORPUS_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/llpd.h"
#include "routing/scheme.h"
#include "sim/evaluate.h"
#include "sim/workload.h"
#include "topology/topology.h"

namespace ldr {

// Scheme identifiers accepted by the factory. "Optimal" is the headroom-0
// latency-optimal LP scheme; "LDR10" is the same with 10% headroom; "B4h10"
// is B4 with 10% headroom.
inline constexpr const char* kSchemeSp = "SP";
inline constexpr const char* kSchemeB4 = "B4";
inline constexpr const char* kSchemeB4Headroom = "B4h10";
inline constexpr const char* kSchemeOptimal = "Optimal";
inline constexpr const char* kSchemeLdr10 = "LDR10";
inline constexpr const char* kSchemeMinMax = "MinMax";
inline constexpr const char* kSchemeMinMaxK10 = "MinMaxK10";

std::unique_ptr<RoutingScheme> MakeScheme(const std::string& id,
                                          const Graph* g, KspCache* cache);

// True when `id` is one of the identifiers MakeScheme accepts.
bool ValidSchemeId(const std::string& id);

struct SchemeSeries {
  std::string scheme;
  // One entry per traffic-matrix instance.
  std::vector<double> congested_fraction;
  std::vector<double> total_stretch;
  std::vector<double> max_stretch;
  std::vector<double> weighted_delay_ms;
  // char, not bool: instance slots are written concurrently by the parallel
  // runner, and vector<bool>'s bit packing would make adjacent writes race.
  std::vector<char> feasible;
  std::vector<double> solve_ms;
  // PathAllocation handles the instance's outcome held — each a PathId into
  // the worker's PathStore rather than a copied link vector.
  std::vector<uint32_t> allocation_refs;
};

struct TopologyRun {
  std::string topology;
  double llpd = 0;
  size_t nodes = 0;
  size_t links = 0;
  std::vector<SchemeSeries> schemes;
  // PathStore telemetry: path_unique_stored is the arena population summed
  // over the runner's caches (one stored copy per unique path *per worker*
  // — arenas are per-worker, so at LDR_THREADS>1 paths discovered by
  // several workers count once each; compare runs at the same thread count,
  // as bench_to_json does with its LDR_THREADS=1 pass);
  // path_allocation_refs is the total number of PathAllocation handles the
  // schemes produced across all instances — each a handle where a copied
  // link vector would otherwise sit, and thread-count-invariant like the
  // SchemeSeries. refs >> unique is the interning win.
  uint64_t path_allocation_refs = 0;
  uint64_t path_unique_stored = 0;
};

struct CorpusRunOptions {
  WorkloadOptions workload;
  std::vector<std::string> scheme_ids{kSchemeSp};
  // Topologies with more nodes than this are skipped (bench scaling knob).
  size_t max_nodes = 64;
};

// Runs all schemes over all instances for one topology. Returns nullopt-like
// empty schemes when the topology was skipped by max_nodes.
//
// Traffic-matrix instances run in parallel across LDR_THREADS workers
// (default: hardware concurrency); each worker keeps its own KspCache across
// the instances it processes and writes into per-instance slots, so the
// resulting SchemeSeries are identical for every thread count. LDR_THREADS=1,
// or a call from inside a corpus worker, runs inline on worker 0 with a
// single KspCache.
TopologyRun RunTopology(const Topology& topology,
                        const CorpusRunOptions& opts);

// Same, but on caller-provided aggregate sets (no generation or rescaling).
// Used by topology-evolution experiments (Fig. 20), where the *same*
// traffic must be routed before and after links are added.
TopologyRun RunTopologyOnWorkloads(
    const Topology& topology,
    const std::vector<std::vector<Aggregate>>& workloads,
    const CorpusRunOptions& opts);

// Runs every topology of a corpus, in parallel across LDR_THREADS workers
// (nested instance-level parallelism runs inline on the calling worker).
// Results are ordered like `corpus` regardless of thread count. `progress`,
// when set, is invoked with the topology index as each one finishes (from
// worker threads — keep it cheap and thread-safe).
std::vector<TopologyRun> RunCorpus(
    const std::vector<Topology>& corpus, const CorpusRunOptions& opts,
    const std::function<void(size_t)>& progress = nullptr);

}  // namespace ldr

#endif  // LDR_SIM_CORPUS_RUNNER_H_
