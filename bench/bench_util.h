// Shared helpers for the figure benches. Every bench prints self-describing
// tab-separated rows: "<series>\t<x>\t<y>" (plus free-form "# ..." comment
// lines), so each paper figure can be re-plotted straight from stdout.
//
// Environment knobs honored across the bench suite:
//
//   LDR_BENCH_SCALE   "small" (default) runs a reduced corpus / instance
//                     count so the whole suite finishes in minutes with the
//                     from-scratch simplex; "full" runs the complete
//                     116-network corpus at paper-scale instance counts.
//   LDR_THREADS       worker count for the parallel corpus runner (default:
//                     hardware concurrency). Instances and topologies fan
//                     out across this many threads, each worker keeping one
//                     KspCache; results are identical for every value, so it
//                     is purely a wall-clock dial. LDR_THREADS=1 runs the same
//                     code on one worker (one KspCache, minimum total CPU).
//
// LDR_BENCH_SCALE is read here, by the benches and tools/bench_to_json; the
// library reads only LDR_THREADS. The micro_* benches (google-benchmark)
// ignore both knobs; their runtime is set with --benchmark_min_time and
// friends. tools/bench_to_json runs a fixed subset of all of the above and
// emits BENCH_lp.json for the perf trajectory.
#ifndef LDR_BENCH_BENCH_UTIL_H_
#define LDR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "topology/topology.h"
#include "topology/zoo_corpus.h"

namespace ldr::bench {

// Progress notes go to stderr so stdout stays machine-readable. The line is
// emitted with a single fputs so notes from parallel corpus workers cannot
// interleave mid-line.
inline void Note(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int len = std::vsnprintf(buf, sizeof(buf) - 1, fmt, args);
  va_end(args);
  if (len < 0) return;
  size_t end = std::min(static_cast<size_t>(len), sizeof(buf) - 2);
  buf[end] = '\n';
  buf[end + 1] = '\0';
  std::fputs(buf, stderr);
}

// True when LDR_BENCH_SCALE is "full" (default "small").
inline bool BenchFullScale() {
  const char* env = std::getenv("LDR_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

// The zoo corpus at bench scale: all of it under LDR_BENCH_SCALE=full,
// otherwise every `small_stride`-th topology plus the named specials.
inline std::vector<Topology> BenchCorpus(size_t small_stride = 4) {
  std::vector<Topology> corpus = ZooCorpus();
  if (BenchFullScale() || small_stride <= 1) return corpus;
  std::vector<Topology> out;
  for (size_t i = 0; i < corpus.size(); ++i) {
    // Always keep the named specials; stride the rest.
    if (corpus[i].name == "GTS-like" || corpus[i].name == "Cogent-like" ||
        corpus[i].name == "Globalcenter-like" || i % small_stride == 0) {
      out.push_back(std::move(corpus[i]));
    }
  }
  return out;
}

}  // namespace ldr::bench

#endif  // LDR_BENCH_BENCH_UTIL_H_
