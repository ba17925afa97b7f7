// Dedicated concurrency stressor for the threaded surface of the stack,
// written to run under ThreadSanitizer (ci.sh --tsan) as well as plain and
// ASan builds. Each test drives one of the real thread boundaries:
//
//   * the thread-pool corpus runner's fan-out (per-worker KspCaches,
//     slot-indexed result writes, nested-parallelism degradation),
//   * the process-global Failpoint registry's relaxed-atomic hot path read
//     concurrently with Activate/Deactivate churn,
//   * PathStore's thread-compatibility contract: const reads are concurrent
//     once interning for a phase is done, with a mutating owner thread
//     between phases,
//   * ThreadPool shutdown/re-entry churn: construct/destroy cycles with
//     queued work, destruction draining a non-empty queue, and nested
//     ParallelFor degradation inside workers.
//
// Race-fix regressions from the PR 8 TSan pass live here too (see the
// SharedPoolLifetime test).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "graph/ksp.h"
#include "graph/path_store.h"
#include "sim/corpus_runner.h"
#include "topology/zoo_corpus.h"
#include "traffic/fft.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ldr {
namespace {

using util::Failpoint;

// A small real corpus slice: every structural family is represented but the
// test stays fast enough to run under TSan's ~10x slowdown.
std::vector<Topology> SmallCorpus() {
  std::vector<Topology> corpus = ZooCorpus();
  corpus.resize(4);
  return corpus;
}

CorpusRunOptions SmallRunOptions() {
  CorpusRunOptions opts;
  opts.scheme_ids = {kSchemeSp, kSchemeLdr10};
  opts.workload.num_instances = 3;
  return opts;
}

bool SeriesEqual(const SchemeSeries& a, const SchemeSeries& b) {
  return a.scheme == b.scheme &&
         a.congested_fraction == b.congested_fraction &&
         a.total_stretch == b.total_stretch &&
         a.max_stretch == b.max_stretch &&
         a.weighted_delay_ms == b.weighted_delay_ms &&
         a.feasible == b.feasible && a.allocation_refs == b.allocation_refs;
}

// The corpus fan-out under a multi-worker pool: per-worker KspCaches,
// slot-indexed writes, and nested parallelism all race-checked, and the
// result must stay bitwise identical to the serial run (the PR 1 contract).
TEST(Concurrency, ParallelRunCorpusMatchesSerial) {
  std::vector<Topology> corpus = SmallCorpus();
  CorpusRunOptions opts = SmallRunOptions();

  setenv("LDR_THREADS", "1", 1);
  std::vector<TopologyRun> serial = RunCorpus(corpus, opts);
  setenv("LDR_THREADS", "4", 1);
  std::vector<TopologyRun> parallel = RunCorpus(corpus, opts);
  setenv("LDR_THREADS", "1", 1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t t = 0; t < serial.size(); ++t) {
    ASSERT_EQ(serial[t].schemes.size(), parallel[t].schemes.size());
    EXPECT_EQ(serial[t].path_allocation_refs, parallel[t].path_allocation_refs);
    for (size_t s = 0; s < serial[t].schemes.size(); ++s) {
      EXPECT_TRUE(SeriesEqual(serial[t].schemes[s], parallel[t].schemes[s]))
          << serial[t].topology << " scheme " << serial[t].schemes[s].scheme;
    }
  }
}

// Two independent caller threads fanning corpus runs through the shared
// process pool at once. Regression for the PR 8 shared-pool lifetime fix:
// the pool is handed out by value (shared_ptr), so a concurrent caller can
// never observe the pool being torn down under it when LDR_THREADS changes
// between calls.
TEST(Concurrency, SharedPoolLifetimeAcrossConcurrentCallers) {
  setenv("LDR_THREADS", "3", 1);
  std::vector<Topology> corpus = SmallCorpus();
  corpus.resize(2);
  CorpusRunOptions opts = SmallRunOptions();
  opts.workload.num_instances = 2;

  std::vector<TopologyRun> a, b;
  std::thread ta([&] { a = RunCorpus(corpus, opts); });
  std::thread tb([&] { b = RunCorpus(corpus, opts); });
  ta.join();
  tb.join();
  setenv("LDR_THREADS", "1", 1);

  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].schemes.size(), b[t].schemes.size());
    for (size_t s = 0; s < a[t].schemes.size(); ++s) {
      EXPECT_TRUE(SeriesEqual(a[t].schemes[s], b[t].schemes[s]));
    }
  }
}

// Readers hammer the LDR_FAILPOINT hot path (one relaxed atomic load when
// unarmed, mutex-guarded slow path when armed) while a mutator thread churns
// Activate/Deactivate with different specs. TSan checks the fast path /
// registry handoff; the assertions check the counters stay coherent.
TEST(Concurrency, FailpointArmDisarmVsHotPathReads) {
  static constexpr char kSite[] = "test.concurrency_site";
  Failpoint::DeactivateAll();

  std::atomic<bool> stop{false};
  std::atomic<long> observed_fires{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      long fires = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (LDR_FAILPOINT(kSite)) ++fires;
      }
      observed_fires.fetch_add(fires, std::memory_order_relaxed);
    });
  }

  for (int round = 0; round < 200; ++round) {
    Failpoint::Spec spec;
    spec.skip = round % 3;
    spec.probability = (round % 2 == 0) ? 1.0 : 0.5;
    spec.seed = static_cast<uint64_t>(round);
    Failpoint::Activate(kSite, spec);
    EXPECT_TRUE(Failpoint::IsActive(kSite));
    // Lifetime counters are read concurrently with the reader hits.
    EXPECT_GE(Failpoint::HitCount(kSite), Failpoint::FireCount(kSite));
    Failpoint::Deactivate(kSite);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(Failpoint::IsActive(kSite));
  // Every observed fire was granted by the registry; the registry may have
  // granted fires the readers tallied before the final flush, never fewer.
  EXPECT_GE(Failpoint::FireCount(kSite), 0);
  Failpoint::DeactivateAll();
}

// PathStore's documented contract: Intern() mutates, everything else is
// const and concurrent once interning for a phase is done. Phases alternate:
// the owner thread interns a batch, then a fleet of readers resolves every
// path interned so far through the whole const surface concurrently.
TEST(Concurrency, PathStoreConstReadsUnderPhasedOwnerMutation) {
  std::vector<Topology> corpus = ZooCorpus();
  const Graph& g = corpus[0].graph;
  PathStore store(&g);

  // Harvest real link sequences to intern: every pair's shortest path via
  // the KSP layer, split into batches the owner interns phase by phase.
  KspCache cache(&g);
  std::vector<std::vector<LinkId>> sequences;
  for (NodeId src = 0; src < static_cast<NodeId>(g.NodeCount()); ++src) {
    for (NodeId dst = 0; dst < static_cast<NodeId>(g.NodeCount()); ++dst) {
      if (src == dst) continue;
      KspGenerator* gen = cache.Get(src, dst);
      PathId id = gen->GetId(0);
      if (id == kInvalidPathId) continue;
      LinkSpan links = cache.store()->Links(id);
      sequences.emplace_back(links.begin(), links.end());
      if (sequences.size() >= 64) break;
    }
    if (sequences.size() >= 64) break;
  }
  ASSERT_GE(sequences.size(), 16u);

  constexpr size_t kPhases = 4;
  size_t per_phase = sequences.size() / kPhases;
  size_t interned = 0;
  for (size_t phase = 0; phase < kPhases; ++phase) {
    // Owner mutation: intern this phase's batch (the readers are not
    // running — spans and vector storage may move freely here).
    size_t end = (phase + 1 == kPhases) ? sequences.size()
                                        : interned + per_phase;
    for (size_t i = interned; i < end; ++i) {
      ASSERT_NE(store.Intern(sequences[i]), kInvalidPathId);
    }
    interned = end;
    const PathId visible = static_cast<PathId>(store.size());

    // Read phase: everything interned so far is fair game, concurrently.
    std::vector<double> checksums(4, 0);
    std::vector<std::thread> readers;
    readers.reserve(checksums.size());
    for (size_t r = 0; r < checksums.size(); ++r) {
      readers.emplace_back([&, r] {
        double sum = 0;
        for (PathId id = 0; id < visible; ++id) {
          sum += store.DelayMs(id);
          sum += static_cast<double>(store.HopCount(id));
          LinkSpan links = store.Links(id);
          for (LinkId l : links) {
            sum += store.ContainsLink(id, l) ? 1.0 : -100.0;
            sum += static_cast<double>(store.PathsOnLink(l).size());
          }
          sum += static_cast<double>(store.Nodes(id).size());
        }
        checksums[r] = sum;
      });
    }
    for (std::thread& t : readers) t.join();
    for (size_t r = 1; r < checksums.size(); ++r) {
      EXPECT_EQ(checksums[0], checksums[r]) << "phase " << phase;
    }
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(store.intern_misses()));
}

// Pool lifecycle churn: construct/destroy cycles with queued work, a
// destructor that must drain a non-empty queue, Wait() re-entry, and nested
// ParallelFor degradation inside a worker.
TEST(Concurrency, ThreadPoolShutdownAndReentryChurn) {
  // Construct/submit/destroy: every queued task runs before join, even when
  // the destructor begins while the queue is still full.
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(4);
      for (int t = 0; t < 64; ++t) {
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      // No Wait(): the destructor must drain the queue itself.
    }
    EXPECT_EQ(ran.load(), 64) << "cycle " << cycle;
  }

  // Wait() re-entry on one pool: repeated ParallelFor barriers interleaved
  // with single-task submits.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(8, [&total](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    pool.Submit([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    pool.Wait();
  }
  EXPECT_EQ(total.load(), 50 * 9);

  // Nested parallelism degrades to serial inline execution on the worker
  // (the PR 1 deadlock/oversubscription guard) — verified under TSan here.
  std::atomic<int> nested{0};
  pool.ParallelFor(4, [&pool, &nested](size_t) {
    EXPECT_TRUE(ThreadPool::InWorker());
    pool.ParallelFor(4, [&nested](size_t) {
      nested.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(nested.load(), 16);
}

// Worker-slot stability: a slot in [0, thread_count()) is exclusive for the
// duration of one ParallelForWorker call — per-worker scratch needs no
// locking. Each slot's scratch counts items sequentially; TSan verifies no
// two concurrent tasks ever share a slot.
TEST(Concurrency, ParallelForWorkerSlotExclusivity) {
  ThreadPool pool(4);
  std::vector<long> scratch(pool.thread_count(), 0);  // unsynchronized!
  pool.ParallelForWorker(256, [&scratch](size_t worker, size_t) {
    ++scratch[worker];
  });
  long total = 0;
  for (long c : scratch) total += c;
  EXPECT_EQ(total, 256);
}

// ConvolvePmfs keeps its FFT plan and scratch per thread. Four threads
// alternate between inputs that need 8-, 1024- and 2048-point transforms,
// so every thread's plan rebuilds on most calls; each result must be
// bitwise equal to the serial one.
TEST(Concurrency, ThreadLocalFftScratchAcrossSizes) {
  Rng rng(23);
  auto pmfs_of = [&rng](size_t k, size_t len) {
    std::vector<std::vector<double>> pmfs(k, std::vector<double>(len));
    for (auto& pmf : pmfs) {
      for (double& v : pmf) v = rng.NextDouble() / static_cast<double>(len);
    }
    return pmfs;
  };
  // Output lengths 7, 1000 and 1500 (k * (len - 1) + 1); the last input
  // pairs a 400-bin PMF with short ones, so its pairs skip different
  // numbers of leading stages.
  std::vector<std::vector<double>> mixed = pmfs_of(1, 400);
  const size_t short_lens[] = {3, 40, 9, 130, 17};
  for (size_t len : short_lens) mixed.push_back(pmfs_of(1, len)[0]);
  const std::vector<std::vector<std::vector<double>>> inputs = {
      pmfs_of(3, 3), pmfs_of(9, 112), pmfs_of(4, 375), mixed};
  std::vector<std::vector<double>> serial;
  for (const auto& pmfs : inputs) serial.push_back(ConvolvePmfs(pmfs));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t call = 0; call < 24; ++call) {
        size_t which = (call + t) % inputs.size();
        std::vector<double> out = ConvolvePmfs(inputs[which]);
        const std::vector<double>& want = serial[which];
        if (out.size() != want.size() ||
            std::memcmp(out.data(), want.data(),
                        out.size() * sizeof(double)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ldr
