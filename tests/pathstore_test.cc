// PathStore unit + property tests: interning idempotence, reverse-index
// consistency across KSP growth rounds, hash-consed PathId equality matching
// link-sequence equality, and every per-path query against a computation
// written out here.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/graph.h"
#include "graph/ksp.h"
#include "graph/path_store.h"
#include "util/random.h"

namespace ldr {
namespace {

Graph Diamond() {
  // A->D via B (2 ms), via C (4 ms), direct (10 ms); all 10 Gbps.
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

TEST(PathStore, InterningIsIdempotent) {
  Graph g = Diamond();
  PathStore store(&g);
  std::vector<LinkId> links{0, 2};  // A->B->D
  PathId first = store.Intern(links);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.intern_hits(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(store.Intern(links), first);
  }
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.intern_hits(), 5u);
  EXPECT_EQ(store.intern_misses(), 1u);
}

// The cached delay equals a first-to-last summation bitwise (the order
// SpTree::distance_ms accumulates in); the other queries are checked against
// hand-written expectations.
TEST(PathStore, CachedDelayMatchesPathDelayBitwise) {
  Graph g = Diamond();
  g.SetCapacity(2, 4.0);  // B->D: the A->B->D bottleneck
  PathStore store(&g);
  struct Case {
    std::vector<LinkId> links;
    double bottleneck_gbps;
    std::vector<NodeId> nodes;
    const char* text;
  };
  for (const Case& c :
       {Case{{0, 2}, 4.0, {0, 1, 3}, "A->B->D"},
        Case{{4, 6}, 10.0, {0, 2, 3}, "A->C->D"},
        Case{{8}, 10.0, {0, 3}, "A->D"}}) {
    PathId id = store.Intern(c.links);
    double sum = 0;
    for (LinkId l : c.links) sum += g.link(l).delay_ms;
    EXPECT_EQ(store.DelayMs(id), sum);  // bitwise: same accumulation order
    EXPECT_EQ(store.BottleneckGbps(id), c.bottleneck_gbps);
    LinkSpan span = store.Links(id);
    EXPECT_EQ(std::vector<LinkId>(span.begin(), span.end()), c.links);
    EXPECT_EQ(store.HopCount(id), c.links.size());
    EXPECT_EQ(store.Nodes(id), c.nodes);
    EXPECT_EQ(store.ToString(id), c.text);
    for (NodeId n = 0; n < static_cast<NodeId>(g.NodeCount()); ++n) {
      bool on_path =
          std::find(c.nodes.begin(), c.nodes.end(), n) != c.nodes.end();
      EXPECT_EQ(store.ContainsNode(id, n), on_path) << c.text << " node " << n;
    }
    for (LinkId l = 0; l < static_cast<LinkId>(g.LinkCount()); ++l) {
      bool on_path =
          std::find(c.links.begin(), c.links.end(), l) != c.links.end();
      EXPECT_EQ(store.ContainsLink(id, l), on_path) << c.text << " link " << l;
    }
  }
}

TEST(PathStore, EmptyPathIsRepresentable) {
  Graph g = Diamond();
  PathStore store(&g);
  PathId id = store.Intern(std::vector<LinkId>{});
  EXPECT_TRUE(store.Empty(id));
  EXPECT_EQ(store.DelayMs(id), 0.0);
  EXPECT_EQ(store.Intern(std::vector<LinkId>{}), id);
  EXPECT_TRUE(store.Links(id).empty());
  EXPECT_EQ(store.BottleneckGbps(id), 0.0);
  EXPECT_TRUE(store.Nodes(id).empty());
  EXPECT_FALSE(store.ContainsNode(id, 0));
  EXPECT_EQ(store.ToString(id), "(empty)");
}

// The reverse index must stay exact while the arena grows: after every
// growth round, PathsOnLink(l) is exactly the set of interned ids whose
// span contains l, with no duplicates.
TEST(PathStore, ReverseIndexConsistentAcrossGrowthRounds) {
  Rng rng(99);
  Graph g;
  const int n = 9;
  for (int i = 0; i < n; ++i) g.AddNode("n" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    g.AddBidiLink(i, (i + 1) % n, rng.Uniform(1, 9), 10);
  }
  for (int i = 0; i < 5; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u != v && !g.HasLink(u, v)) g.AddBidiLink(u, v, rng.Uniform(1, 9), 10);
  }

  PathStore store(&g);
  KspGenerator gen(&store, 0, n / 2);
  for (size_t round = 1; round <= 12; ++round) {
    if (gen.GetId(round - 1) == kInvalidPathId) break;
    // Expected index, rebuilt from scratch.
    std::vector<std::set<PathId>> expected(g.LinkCount());
    for (PathId id = 0; id < static_cast<PathId>(store.size()); ++id) {
      for (LinkId l : store.Links(id)) {
        expected[static_cast<size_t>(l)].insert(id);
      }
    }
    for (size_t l = 0; l < g.LinkCount(); ++l) {
      const std::vector<PathId>& got = store.PathsOnLink(static_cast<LinkId>(l));
      std::set<PathId> got_set(got.begin(), got.end());
      EXPECT_EQ(got.size(), got_set.size()) << "duplicate ids on link " << l;
      EXPECT_EQ(got_set, expected[l]) << "link " << l << " round " << round;
    }
  }
  EXPECT_GE(store.size(), 3u);
}

// Property: hash-consing makes PathId equality equivalent to link-sequence
// equality — over random link sequences with planted duplicates.
TEST(PathStore, IdEqualityMatchesStructuralEquality) {
  Rng rng(4242);
  Graph g = Diamond();
  PathStore store(&g);
  std::vector<std::vector<LinkId>> seqs;
  for (int i = 0; i < 200; ++i) {
    size_t len = 1 + rng.NextIndex(4);
    std::vector<LinkId> links;
    for (size_t k = 0; k < len; ++k) {
      links.push_back(static_cast<LinkId>(rng.NextIndex(g.LinkCount())));
    }
    seqs.push_back(links);
    if (rng.NextIndex(2) == 0) seqs.push_back(links);  // planted duplicate
  }
  std::vector<PathId> ids;
  ids.reserve(seqs.size());
  for (const auto& links : seqs) ids.push_back(store.Intern(links));
  for (size_t i = 0; i < seqs.size(); ++i) {
    for (size_t j = 0; j < seqs.size(); ++j) {
      EXPECT_EQ(ids[i] == ids[j], seqs[i] == seqs[j])
          << "i=" << i << " j=" << j;
    }
  }
}

// KspGenerator ids must be stable across further growth and past
// exhaustion: asking again for rank k returns the id it returned before.
TEST(PathStore, KspIdsStableAcrossGrowth) {
  Graph g = Diamond();
  PathStore store(&g);
  KspGenerator gen(&store, 0, 3);
  PathId first = gen.GetId(0);
  ASSERT_NE(first, kInvalidPathId);
  std::vector<PathId> ids;
  for (size_t k = 0;; ++k) {
    PathId id = gen.GetId(k);
    if (id == kInvalidPathId) break;
    ids.push_back(id);
  }
  EXPECT_EQ(gen.GetId(0), first);  // stable across growth
  ASSERT_GE(ids.size(), 3u);
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(gen.GetId(k), ids[k]) << "k=" << k;
    EXPECT_TRUE(gen.HasProduced(ids[k]));
  }
  EXPECT_EQ(gen.GetId(ids.size()), kInvalidPathId);
  EXPECT_EQ(store.size(), ids.size());
}

// Generators sharing a KspCache's store intern overlapping paths once; the
// cache exposes the shared arena.
TEST(PathStore, CacheGeneratorsShareArena) {
  Graph g = Diamond();
  KspCache cache(&g);
  PathId ab = cache.Get(0, 3)->GetId(0);
  size_t after_first = cache.store()->intern_misses();
  // Same pair again: everything already interned.
  EXPECT_EQ(cache.Get(0, 3)->GetId(0), ab);
  EXPECT_EQ(cache.store()->intern_misses(), after_first);
}

// CSR adjacency preserves per-node insertion order under interleaved
// AddNode/AddLink — shortest-path tie-breaking depends on it.
TEST(GraphCsr, OutLinksPreserveInsertionOrder) {
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  LinkId ab1 = g.AddLink(a, b, 1, 1);
  NodeId c = g.AddNode("C");
  LinkId ac = g.AddLink(a, c, 1, 1);
  LinkId ba = g.AddLink(b, a, 1, 1);
  LinkId ab2 = g.AddLink(a, b, 2, 1);
  LinkId cb = g.AddLink(c, b, 1, 1);

  std::vector<LinkId> a_out(g.OutLinks(a).begin(), g.OutLinks(a).end());
  EXPECT_EQ(a_out, (std::vector<LinkId>{ab1, ac, ab2}));
  std::vector<LinkId> b_out(g.OutLinks(b).begin(), g.OutLinks(b).end());
  EXPECT_EQ(b_out, (std::vector<LinkId>{ba}));
  std::vector<LinkId> c_out(g.OutLinks(c).begin(), g.OutLinks(c).end());
  EXPECT_EQ(c_out, (std::vector<LinkId>{cb}));
  EXPECT_EQ(g.OutLinks(a).size(), 3u);
}

}  // namespace
}  // namespace ldr
