// Exhaustive cross-checks: Yen's KSP against brute-force simple-path
// enumeration on small random graphs, and full-corpus serialization
// round-trips. Slowish but decisive correctness anchors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>

#include "graph/ksp.h"
#include "graph/max_flow.h"
#include "graph/shortest_path.h"
#include "routing/lp_routing.h"
#include "sim/corpus_runner.h"
#include "sim/evaluate.h"
#include "sim/workload.h"
#include "tests/cold_build.h"
#include "topology/topology.h"
#include "topology/zoo_corpus.h"
#include "util/random.h"

namespace ldr {
namespace {

// All simple paths src->dst by DFS, sorted by (delay, links).
std::vector<std::vector<LinkId>> AllSimplePaths(const Graph& g, NodeId src,
                                                NodeId dst) {
  std::vector<std::vector<LinkId>> out;
  std::vector<LinkId> stack;
  std::vector<bool> visited(g.NodeCount(), false);
  std::function<void(NodeId)> dfs = [&](NodeId u) {
    if (u == dst) {
      out.push_back(stack);
      return;
    }
    visited[static_cast<size_t>(u)] = true;
    for (LinkId l : g.OutLinks(u)) {
      NodeId v = g.link(l).dst;
      if (visited[static_cast<size_t>(v)]) continue;
      stack.push_back(l);
      dfs(v);
      stack.pop_back();
    }
    visited[static_cast<size_t>(u)] = false;
  };
  dfs(src);
  auto delay_of = [&](const std::vector<LinkId>& links) {
    double d = 0;
    for (LinkId l : links) d += g.link(l).delay_ms;
    return d;
  };
  std::sort(out.begin(), out.end(),
            [&](const auto& a, const auto& b) {
              double da = delay_of(a), db = delay_of(b);
              if (da != db) return da < db;
              return a < b;
            });
  return out;
}

class KspExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(KspExhaustiveTest, MatchesBruteForceEnumeration) {
  Rng rng(static_cast<uint64_t>(5000 + GetParam()));
  Graph g;
  const int n = 7;
  for (int i = 0; i < n; ++i) g.AddNode("n" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    g.AddBidiLink(i, (i + 1) % n, rng.Uniform(1, 9), 10);
  }
  for (int i = 0; i < 4; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u != v && !g.HasLink(u, v)) g.AddBidiLink(u, v, rng.Uniform(1, 9), 10);
  }
  NodeId src = 0, dst = 3;
  auto expected = AllSimplePaths(g, src, dst);
  ASSERT_FALSE(expected.empty());

  PathStore store(&g);
  KspGenerator gen(&store, src, dst);
  auto delay_of = [&](const std::vector<LinkId>& links) {
    double d = 0;
    for (LinkId l : links) d += g.link(l).delay_ms;
    return d;
  };
  // Yen must produce exactly the same multiset of paths, in delay order
  // (ties may be ordered differently; compare delays positionally and the
  // full sets at the end).
  std::set<std::vector<LinkId>> produced;
  for (size_t k = 0; k < expected.size(); ++k) {
    PathId p = gen.GetId(k);
    ASSERT_NE(p, kInvalidPathId) << "Yen exhausted early at k=" << k;
    LinkSpan links = store.Links(p);
    std::vector<LinkId> seq(links.begin(), links.end());
    EXPECT_NEAR(delay_of(seq), delay_of(expected[k]), 1e-9) << "k=" << k;
    EXPECT_EQ(store.DelayMs(p), delay_of(seq)) << "k=" << k;
    produced.insert(std::move(seq));
  }
  EXPECT_EQ(gen.GetId(expected.size()), kInvalidPathId)
      << "Yen produced more simple paths than exist";
  std::set<std::vector<LinkId>> expected_set(expected.begin(),
                                             expected.end());
  EXPECT_EQ(produced, expected_set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KspExhaustiveTest, ::testing::Range(1, 11));

// Max-flow on the same small graphs equals the brute-force minimum cut over
// all 2^(n-2) vertex partitions.
class MaxFlowExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowExhaustiveTest, EqualsBruteForceMinCut) {
  Rng rng(static_cast<uint64_t>(6000 + GetParam()));
  Graph g;
  const int n = 8;
  for (int i = 0; i < n; ++i) g.AddNode("n" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    g.AddBidiLink(i, (i + 1) % n, 1, rng.Uniform(1, 10));
  }
  for (int i = 0; i < 5; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u != v && !g.HasLink(u, v)) g.AddBidiLink(u, v, 1, rng.Uniform(1, 10));
  }
  NodeId s = 0, t = 4;
  double flow = MaxFlowGbps(g, s, t);
  // Enumerate cuts: bitmask over nodes other than s (s-side fixed).
  double best_cut = 1e300;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if ((mask & (1u << s)) == 0) continue;       // s must be on the s side
    if ((mask & (1u << t)) != 0) continue;       // t must be on the t side
    double cut = 0;
    for (const Link& l : g.links()) {
      bool src_in = (mask & (1u << l.src)) != 0;
      bool dst_in = (mask & (1u << l.dst)) != 0;
      if (src_in && !dst_in) cut += l.capacity_gbps;
    }
    best_cut = std::min(best_cut, cut);
  }
  EXPECT_NEAR(flow, best_cut, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowExhaustiveTest, ::testing::Range(1, 11));

// Every corpus network round-trips through the text format with identical
// structure and parameters.
TEST(CorpusSerialization, FullRoundTrip) {
  std::vector<Topology> corpus = ZooCorpus();
  for (size_t i = 0; i < corpus.size(); i += 5) {
    const Topology& t = corpus[i];
    std::string err;
    auto parsed = ParseTopology(SerializeTopology(t), &err);
    ASSERT_TRUE(parsed.has_value()) << t.name << ": " << err;
    ASSERT_EQ(parsed->graph.NodeCount(), t.graph.NodeCount()) << t.name;
    ASSERT_EQ(parsed->graph.LinkCount(), t.graph.LinkCount()) << t.name;
    // Shortest-path structure is preserved (delay/capacity round-trip).
    auto before = AllPairsShortestDelay(t.graph);
    auto after = AllPairsShortestDelay(parsed->graph);
    // Node ids may be renumbered only if names reordered; our serializer
    // preserves order, so compare directly.
    ASSERT_EQ(before.size(), after.size());
    for (size_t k = 0; k < before.size(); ++k) {
      if (std::isinf(before[k])) {
        EXPECT_TRUE(std::isinf(after[k]));
      } else {
        EXPECT_NEAR(before[k], after[k], before[k] * 1e-5 + 1e-6) << t.name;
      }
    }
  }
}

// PathStore parity anchor: on a zoo-corpus sample, the interned-handle
// pipeline must give results bitwise identical to a recomputation written
// here over the stored link spans — same per-aggregate delays, same link
// loads, and the warm loop's LP (one IncrementalRoutingLp across rounds)
// agreeing with a cold build over the same path sets.
TEST(PathStoreParity, HandlesMatchResolvedPathsOnZooCorpus) {
  std::vector<Topology> corpus = ZooCorpus();
  size_t checked = 0;
  for (size_t ti = 0; ti < corpus.size(); ti += 7) {
    const Topology& t = corpus[ti];
    const Graph& g = t.graph;
    if (g.NodeCount() > 40) continue;
    ++checked;
    KspCache cache(&g);
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.seed = 1234 + ti;
    std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];

    for (const char* id : {kSchemeSp, kSchemeB4, kSchemeOptimal, kSchemeMinMax}) {
      std::unique_ptr<RoutingScheme> scheme = MakeScheme(id, &g, &cache);
      RoutingOutcome out = scheme->Route(aggs);
      ASSERT_EQ(out.store, cache.store()) << t.name << " " << id;
      const PathStore& store = *out.store;

      // (a) Cached delays match a link-by-link summation over the stored
      // span bitwise.
      for (size_t a = 0; a < aggs.size(); ++a) {
        for (const PathAllocation& pa : out.allocations[a]) {
          LinkSpan links = store.Links(pa.path);
          double sum = 0;
          for (LinkId l : links) sum += g.link(l).delay_ms;
          ASSERT_EQ(store.DelayMs(pa.path), sum) << t.name << " " << id;
          ASSERT_EQ(store.HopCount(pa.path), links.size());
        }
      }

      // (b) Link loads recomputed from the stored spans match LinkLoads().
      std::vector<double> expected(g.LinkCount(), 0.0);
      for (size_t a = 0; a < aggs.size(); ++a) {
        for (const PathAllocation& pa : out.allocations[a]) {
          if (pa.fraction <= 0) continue;
          double gbps = pa.fraction * aggs[a].demand_gbps;
          for (LinkId l : store.Links(pa.path)) {
            expected[static_cast<size_t>(l)] += gbps;
          }
        }
      }
      std::vector<double> got = LinkLoads(g, aggs, out);
      for (size_t l = 0; l < g.LinkCount(); ++l) {
        ASSERT_EQ(got[l], expected[l]) << t.name << " " << id << " link " << l;
      }
    }

    // (c) Warm/cold LP parity through PathIds: the loop's warm LP and a
    // cold build over the path sets it grew (tests/cold_build.h) reach the
    // same optimum, in both LP modes.
    for (bool minmax : {false, true}) {
      IterativeOptions opts;
      opts.lp.minmax = minmax;
      LpReuseContext reuse;
      IterativeLpRoute(g, aggs, &cache, opts, &reuse);
      ASSERT_NE(reuse.lp, nullptr) << t.name;
      EXPECT_TRUE(WarmMatchesColdBuild(
          SolveColdBuild(*cache.store(), aggs, opts, &reuse)))
          << t.name << (minmax ? " minmax" : " ldr");
    }
  }
  ASSERT_GE(checked, 3u);
}

// Order-independent placement fingerprint over (aggregate, PathId, raw
// fraction bits) — the same XOR-of-FNV construction the ScenarioEngine uses
// for its epoch hashes, so "hash equal" means bitwise placement equality.
uint64_t PlacementHash(const RoutingOutcome& out) {
  uint64_t acc = 0;
  for (size_t a = 0; a < out.allocations.size(); ++a) {
    for (const PathAllocation& pa : out.allocations[a]) {
      uint64_t h = 1469598103934665603ULL;
      auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
          h ^= (v >> (8 * i)) & 0xff;
          h *= 1099511628211ULL;
        }
      };
      mix((static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(pa.path));
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(pa.fraction), "double is 64-bit");
      std::memcpy(&bits, &pa.fraction, sizeof(bits));
      mix(bits);
      acc ^= h;
    }
  }
  return acc;
}

// Revised-simplex placement-hash parity on the zoo corpus. Two anchors:
// (a) bitwise determinism — the same Fig. 13 run from a fresh KspCache must
// reproduce the placement hash exactly (the revised solver's FTRAN-on-demand
// pivots are deterministic arithmetic, no iteration-order freedom); (b) warm
// re-entry fixed point — re-entering the live LP through LpReuseContext with
// unchanged demands must reproduce the placement bit-for-bit (zero pivots,
// unchanged basic values), which is the property the ScenarioEngine's
// event-free epochs and its warm/cold placement_parity flag stand on.
TEST(RevisedLpParity, PlacementHashParityOnZooCorpus) {
  std::vector<Topology> corpus = ZooCorpus();
  size_t checked = 0;
  for (size_t ti = 0; ti < corpus.size(); ti += 9) {
    const Topology& t = corpus[ti];
    const Graph& g = t.graph;
    if (g.NodeCount() > 36) continue;
    ++checked;
    WorkloadOptions wopts;
    wopts.num_instances = 1;
    wopts.seed = 987 + ti;
    IterativeOptions opts;

    // (a) two fully independent runs, fresh cache each.
    uint64_t hashes[2];
    for (int run = 0; run < 2; ++run) {
      KspCache cache(&g);
      std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];
      RoutingOutcome out = IterativeLpRoute(g, aggs, &cache, opts);
      hashes[run] = PlacementHash(out);
    }
    EXPECT_EQ(hashes[0], hashes[1]) << t.name << ": run-to-run hash drift";

    // (b) warm re-entry with unchanged demands is a bitwise fixed point.
    // Path sets are held fixed (grow=false, k=3): with growth enabled a
    // re-entry legitimately keeps polishing into larger path sets, so the
    // stability property under test — an unchanged LP re-solved warm from
    // its own optimal basis runs zero pivots and reproduces the fractions
    // bit-for-bit — is only observable on a fixed LP.
    IterativeOptions fixed = opts;
    fixed.grow = false;
    fixed.initial_paths = 3;
    KspCache cache(&g);
    std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];
    LpReuseContext reuse;
    RoutingOutcome first = IterativeLpRoute(g, aggs, &cache, fixed, &reuse);
    RoutingOutcome warm = IterativeLpRoute(g, aggs, &cache, fixed, &reuse);
    EXPECT_TRUE(warm.reused_warm) << t.name;
    EXPECT_EQ(PlacementHash(first), PlacementHash(warm))
        << t.name << ": warm re-entry changed the placement";
  }
  ASSERT_GE(checked, 3u);
}

}  // namespace
}  // namespace ldr
