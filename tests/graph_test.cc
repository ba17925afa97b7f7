#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph.h"
#include "graph/ksp.h"
#include "graph/max_flow.h"
#include "graph/path_store.h"
#include "graph/shortest_path.h"
#include "util/random.h"

namespace ldr {
namespace {

// A small diamond: A->B->D (cheap), A->C->D (expensive), plus A->D direct
// (most expensive single hop).
Graph Diamond() {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C"),
         d = g.AddNode("D");
  g.AddBidiLink(a, b, 1, 10);
  g.AddBidiLink(b, d, 1, 10);
  g.AddBidiLink(a, c, 2, 10);
  g.AddBidiLink(c, d, 2, 10);
  g.AddBidiLink(a, d, 10, 10);
  return g;
}

// Delay of a shortest-path result, read through a PathStore.
double DelayOf(const Graph& g, const std::vector<LinkId>& links) {
  PathStore store(&g);
  return store.DelayMs(store.Intern(links));
}

TEST(Graph, BasicAccessors) {
  Graph g = Diamond();
  EXPECT_EQ(g.NodeCount(), 4u);
  EXPECT_EQ(g.LinkCount(), 10u);  // 5 bidi
  EXPECT_EQ(g.FindNode("C"), 2);
  EXPECT_EQ(g.FindNode("nope"), kInvalidNode);
  EXPECT_TRUE(g.HasLink(0, 1));
  EXPECT_FALSE(g.HasLink(1, 2));
}

TEST(Graph, ReverseLink) {
  Graph g = Diamond();
  LinkId fwd = 0;  // A->B
  LinkId rev = g.ReverseLink(fwd);
  ASSERT_NE(rev, kInvalidLink);
  EXPECT_EQ(g.link(rev).src, g.link(fwd).dst);
  EXPECT_EQ(g.link(rev).dst, g.link(fwd).src);
}

TEST(GraphMask, OutLinksSkipDownLinks) {
  Graph g = Diamond();
  LinkId ab = 0;  // A->B
  EXPECT_FALSE(g.IsLinkDown(ab));
  size_t before = g.OutLinks(0).size();
  g.SetLinkDown(ab, true);
  EXPECT_TRUE(g.IsLinkDown(ab));
  EXPECT_EQ(g.DownLinkCount(), 1u);
  EXPECT_EQ(g.OutLinks(0).size(), before - 1);
  for (LinkId l : g.OutLinks(0)) EXPECT_NE(l, ab);
  // The raw CSR run still sees the physical adjacency.
  EXPECT_EQ(g.AllOutLinks(0).size(), before);
  // Masking is idempotent and reversible without a rebuild.
  g.SetLinkDown(ab, true);
  EXPECT_EQ(g.DownLinkCount(), 1u);
  g.SetLinkDown(ab, false);
  EXPECT_EQ(g.DownLinkCount(), 0u);
  std::vector<LinkId> out(g.OutLinks(0).begin(), g.OutLinks(0).end());
  EXPECT_EQ(out.size(), before);
  EXPECT_EQ(out.front(), ab);  // insertion order intact
}

TEST(GraphMask, ShortestPathRoutesAroundDownLink) {
  Graph g = Diamond();
  PathStore store(&g);
  auto sp = ShortestPath(g, 0, 3);
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(store.DelayMs(store.Intern(*sp)), 2.0);  // A->B->D
  g.SetLinkDown(0, true);                                   // A->B fails
  sp = ShortestPath(g, 0, 3);
  ASSERT_TRUE(sp.has_value());
  PathId detour = store.Intern(*sp);
  EXPECT_DOUBLE_EQ(store.DelayMs(detour), 4.0);  // A->C->D
  EXPECT_FALSE(store.ContainsLink(detour, 0));
  EXPECT_TRUE(store.ContainsLink(detour, 4));    // A->C
  g.SetLinkDown(0, false);
  sp = ShortestPath(g, 0, 3);
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(store.DelayMs(store.Intern(*sp)), 2.0);  // restored
}

TEST(GraphMask, DisconnectionUnderMaskIsVisible) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  LinkId ab = g.AddLink(a, b, 1, 10);
  LinkId ba = g.AddLink(b, a, 1, 10);
  g.SetLinkDown(ab, true);
  g.SetLinkDown(ba, true);
  EXPECT_FALSE(ShortestPath(g, a, b).has_value());
  // Physical-identity queries still see the cable: HasLink must not let
  // topology evolution re-add it, and ReverseLink must resolve mid-outage
  // so a restore event can find the other direction.
  EXPECT_TRUE(g.HasLink(a, b));
  EXPECT_EQ(g.ReverseLink(ab), ba);
}

TEST(PathStore, ShortestPathDelayBottleneckNodes) {
  Graph g = Diamond();
  auto sp = ShortestPath(g, 0, 3);
  ASSERT_TRUE(sp.has_value());
  PathStore store(&g);
  PathId id = store.Intern(*sp);
  EXPECT_EQ(store.HopCount(id), 2u);
  EXPECT_DOUBLE_EQ(store.DelayMs(id), 2.0);  // A->B->D
  EXPECT_DOUBLE_EQ(store.BottleneckGbps(id), 10.0);
  auto nodes = store.Nodes(id);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes.front(), 0);
  EXPECT_EQ(nodes.back(), 3);
  EXPECT_TRUE(store.ContainsNode(id, 1));   // B
  EXPECT_FALSE(store.ContainsNode(id, 2));  // C
  EXPECT_EQ(store.ToString(id), "A->B->D");
}

TEST(ShortestPath, RespectsLinkExclusion) {
  Graph g = Diamond();
  ExclusionSet excl;
  excl.links.assign(g.LinkCount(), false);
  // Kill A->B (link 0).
  excl.links[0] = true;
  auto sp = ShortestPath(g, 0, 3, excl);
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(DelayOf(g, *sp), 4.0);  // A->C->D
}

TEST(ShortestPath, RespectsNodeExclusion) {
  Graph g = Diamond();
  ExclusionSet excl;
  excl.nodes.assign(g.NodeCount(), false);
  excl.nodes[1] = true;  // exclude B
  excl.nodes[2] = true;  // exclude C
  auto sp = ShortestPath(g, 0, 3, excl);
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(DelayOf(g, *sp), 10.0);  // direct A->D
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  EXPECT_FALSE(ShortestPath(g, 0, 1).has_value());
}

TEST(ShortestPath, SelfPathIsEmpty) {
  Graph g = Diamond();
  auto sp = ShortestPath(g, 2, 2);
  ASSERT_TRUE(sp.has_value());
  EXPECT_TRUE(sp->empty());
}

TEST(AllPairs, MatchesPointQueries) {
  Graph g = Diamond();
  auto apsp = AllPairsShortestDelay(g);
  size_t n = g.NodeCount();
  for (NodeId s = 0; s < static_cast<NodeId>(n); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(n); ++d) {
      if (s == d) continue;
      auto sp = ShortestPath(g, s, d);
      ASSERT_TRUE(sp.has_value());
      EXPECT_DOUBLE_EQ(apsp[static_cast<size_t>(s) * n + static_cast<size_t>(d)],
                       DelayOf(g, *sp));
    }
  }
}

TEST(Connectivity, DetectsDisconnected) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  g.AddBidiLink(a, b, 1, 1);
  EXPECT_FALSE(IsStronglyConnected(g));
  g.AddBidiLink(b, c, 1, 1);
  EXPECT_TRUE(IsStronglyConnected(g));
}

TEST(Connectivity, DirectedOneWayIsNotStrong) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  g.AddLink(a, b, 1, 1);
  EXPECT_FALSE(IsStronglyConnected(g));
}

TEST(Diameter, Diamond) {
  Graph g = Diamond();
  // Farthest pair: B<->C via A (3ms).
  EXPECT_DOUBLE_EQ(DiameterMs(g), 3.0);
}

TEST(Ksp, ProducesPathsInDelayOrder) {
  Graph g = Diamond();
  PathStore store(&g);
  KspGenerator gen(&store, 0, 3);
  std::vector<double> delays;
  for (size_t k = 0; k < 10; ++k) {
    PathId p = gen.GetId(k);
    if (p == kInvalidPathId) break;
    delays.push_back(store.DelayMs(p));
  }
  ASSERT_GE(delays.size(), 3u);
  EXPECT_TRUE(std::is_sorted(delays.begin(), delays.end()));
  EXPECT_DOUBLE_EQ(delays[0], 2.0);   // A-B-D
  EXPECT_DOUBLE_EQ(delays[1], 4.0);   // A-C-D
  EXPECT_DOUBLE_EQ(delays[2], 10.0);  // A-D
}

TEST(Ksp, PathsAreSimpleAndDistinct) {
  Graph g = Diamond();
  PathStore store(&g);
  KspGenerator gen(&store, 0, 3);
  std::set<std::vector<LinkId>> seen;
  for (size_t k = 0;; ++k) {
    PathId p = gen.GetId(k);
    if (p == kInvalidPathId) break;
    LinkSpan links = store.Links(p);
    EXPECT_TRUE(seen.emplace(links.begin(), links.end()).second)
        << "duplicate path";
    // Simple: no repeated nodes.
    auto nodes = store.Nodes(p);
    std::set<NodeId> uniq(nodes.begin(), nodes.end());
    EXPECT_EQ(uniq.size(), nodes.size());
  }
  EXPECT_GE(seen.size(), 3u);
}

TEST(Ksp, IdsStableAcrossGrowth) {
  Graph g = Diamond();
  PathStore store(&g);
  KspGenerator gen(&store, 0, 3);
  PathId first = gen.GetId(0);
  for (size_t k = 1; k < 6; ++k) gen.GetId(k);
  EXPECT_EQ(first, gen.GetId(0));
  EXPECT_DOUBLE_EQ(store.DelayMs(first), 2.0);
}

TEST(Ksp, ExhaustsFiniteGraph) {
  // Two nodes, one bidi link: exactly one simple path each way.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  g.AddBidiLink(a, b, 1, 1);
  PathStore store(&g);
  KspGenerator gen(&store, a, b);
  EXPECT_NE(gen.GetId(0), kInvalidPathId);
  EXPECT_EQ(gen.GetId(1), kInvalidPathId);
  EXPECT_EQ(gen.GetId(1), kInvalidPathId);  // stays exhausted
}

TEST(Ksp, NoPathAtAll) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  PathStore store(&g);
  KspGenerator gen(&store, 0, 1);
  EXPECT_EQ(gen.GetId(0), kInvalidPathId);
  EXPECT_EQ(store.size(), 0u);
}

TEST(Ksp, HonorsBaseExclusion) {
  Graph g = Diamond();
  ExclusionSet excl;
  excl.links.assign(g.LinkCount(), false);
  excl.links[0] = true;  // A->B gone
  PathStore store(&g);
  KspGenerator gen(&store, 0, 3, excl);
  for (size_t k = 0;; ++k) {
    PathId p = gen.GetId(k);
    if (p == kInvalidPathId) break;
    EXPECT_FALSE(store.ContainsLink(p, 0));
  }
}

TEST(Ksp, CacheReturnsSameGenerator) {
  Graph g = Diamond();
  KspCache cache(&g);
  KspGenerator* g1 = cache.Get(0, 3);
  KspGenerator* g2 = cache.Get(0, 3);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(cache.size(), 1u);
  cache.Get(1, 2);
  EXPECT_EQ(cache.size(), 2u);
}

// Property test: on random graphs, KSP yields distinct simple paths in
// non-decreasing delay order, and the first equals Dijkstra's path delay.
class KspRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(KspRandomTest, OrderAndSimplicity) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Graph g;
  const int n = 12;
  for (int i = 0; i < n; ++i) g.AddNode("n" + std::to_string(i));
  // Random connected-ish graph: ring + random chords.
  for (int i = 0; i < n; ++i) {
    g.AddBidiLink(i, (i + 1) % n, rng.Uniform(1, 10), 10);
  }
  for (int i = 0; i < n; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u != v && !g.HasLink(u, v)) {
      g.AddBidiLink(u, v, rng.Uniform(1, 10), 10);
    }
  }
  NodeId src = 0, dst = n / 2;
  PathStore store(&g);
  KspGenerator gen(&store, src, dst);
  auto sp = ShortestPath(g, src, dst);
  ASSERT_TRUE(sp.has_value());
  ASSERT_NE(gen.GetId(0), kInvalidPathId);
  EXPECT_DOUBLE_EQ(store.DelayMs(gen.GetId(0)), DelayOf(g, *sp));
  double prev = 0;
  std::set<std::vector<LinkId>> seen;
  for (size_t k = 0; k < 25; ++k) {
    PathId p = gen.GetId(k);
    if (p == kInvalidPathId) break;
    double d = store.DelayMs(p);
    EXPECT_GE(d, prev - 1e-12);
    prev = d;
    LinkSpan links = store.Links(p);
    EXPECT_TRUE(seen.emplace(links.begin(), links.end()).second);
    auto nodes = store.Nodes(p);
    std::set<NodeId> uniq(nodes.begin(), nodes.end());
    EXPECT_EQ(uniq.size(), nodes.size());
    EXPECT_EQ(nodes.front(), src);
    EXPECT_EQ(nodes.back(), dst);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KspRandomTest, ::testing::Range(1, 9));

TEST(MaxFlow, SingleLink) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  g.AddLink(a, b, 1, 7.5);
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, a, b), 7.5);
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, b, a), 0.0);
}

TEST(MaxFlow, ParallelPathsSum) {
  Graph g = Diamond();
  // A->D: via B (10), via C (10), direct (10).
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, 0, 3), 30.0);
}

TEST(MaxFlow, BottleneckLimits) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B"), c = g.AddNode("C");
  g.AddLink(a, b, 1, 100);
  g.AddLink(b, c, 1, 3);
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, a, c), 3.0);
}

TEST(MaxFlow, RestrictedToAllowedLinks) {
  Graph g = Diamond();
  // Allow only the A->C->D path's links.
  auto p = ShortestPath(g, 0, 3, [] {
    ExclusionSet e;
    return e;
  }());
  ASSERT_TRUE(p.has_value());
  std::vector<LinkId> allowed = *p;
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, 0, 3, {}, allowed), 10.0);
}

TEST(MaxFlow, DuplicateAllowedLinksCountOnce) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  LinkId l = g.AddLink(a, b, 1, 4);
  std::vector<LinkId> allowed{l, l, l};
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, a, b, {}, allowed), 4.0);
}

TEST(MaxFlow, ExclusionRemovesCapacity) {
  Graph g = Diamond();
  ExclusionSet excl;
  excl.links.assign(g.LinkCount(), false);
  excl.links[8] = true;  // direct A->D
  EXPECT_DOUBLE_EQ(MaxFlowGbps(g, 0, 3, excl), 20.0);
}

// Property: max-flow <= total out-capacity of source and <= total
// in-capacity of destination; also symmetric on our bidi random graphs.
class MaxFlowRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowRandomTest, CutBounds) {
  Rng rng(static_cast<uint64_t>(100 + GetParam()));
  Graph g;
  const int n = 10;
  for (int i = 0; i < n; ++i) g.AddNode("n" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    g.AddBidiLink(i, (i + 1) % n, 1, rng.Uniform(1, 10));
  }
  for (int i = 0; i < 8; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u != v && !g.HasLink(u, v)) g.AddBidiLink(u, v, 1, rng.Uniform(1, 10));
  }
  NodeId s = 0, t = 5;
  double flow = MaxFlowGbps(g, s, t);
  double out_cap = 0, in_cap = 0;
  for (LinkId id = 0; id < static_cast<LinkId>(g.LinkCount()); ++id) {
    if (g.link(id).src == s) out_cap += g.link(id).capacity_gbps;
    if (g.link(id).dst == t) in_cap += g.link(id).capacity_gbps;
  }
  EXPECT_LE(flow, out_cap + 1e-9);
  EXPECT_LE(flow, in_cap + 1e-9);
  EXPECT_GT(flow, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowRandomTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace ldr
