// PathStore — a per-topology arena that interns every discovered path once.
//
// The paper's bottleneck analysis (§5) notes the k-shortest-path machinery,
// not the LP, dominates LDR's runtime and that its results "can be readily
// cached". The KSP layer caches *generators*; this module removes the other
// half of the cost: a path is stored exactly once as a contiguous LinkId span
// with its delay cached, and every layer above (LP columns, allocations,
// evaluation, replay) passes 32-bit PathId handles around. It is the one
// path representation: the per-path queries (delay, bottleneck, nodes,
// contains-link/node, to-string) are defined here and nowhere else.
// Hash-consing makes PathId equality equivalent to link-sequence equality
// (two ids from the same store are equal iff their link sequences are), which
// also makes warm-start LP column identity exact across controller epochs.
//
// A link→paths reverse index answers "which interned paths cross link l" —
// the query behind Fig. 13 hot-link path growth and the controller's
// failing-link scale-up — without scanning allocation lists.
//
// Thread-compatibility contract: Intern() mutates; all other members are
// const and safe to call concurrently once interning for a phase is done
// (the corpus runner keeps one store per worker, like its KspCache). Spans
// returned by Links() are invalidated by the next Intern(), like iterators.
// Mutating the graph's links invalidates cached delays; build a fresh store
// (and KspCache) after topology evolution, as the growth experiments do.
#ifndef LDR_GRAPH_PATH_STORE_H_
#define LDR_GRAPH_PATH_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace ldr {

using PathId = int32_t;
inline constexpr PathId kInvalidPathId = -1;

class PathStore {
 public:
  // The graph must outlive the store.
  explicit PathStore(const Graph* g) : g_(g) {}

  // Interns a link sequence; returns the existing id when the same sequence
  // was interned before (hash-consed — this is what makes PathId equality
  // structural equality).
  PathId Intern(const LinkId* links, size_t n);
  PathId Intern(const std::vector<LinkId>& links) {
    return Intern(links.data(), links.size());
  }

  size_t size() const { return meta_.size(); }

  // Link sequence of an interned path. Invalidated by the next Intern().
  LinkSpan Links(PathId id) const {
    const Meta& m = meta_[static_cast<size_t>(id)];
    return LinkSpan(arena_.data() + m.begin, m.len);
  }
  size_t HopCount(PathId id) const {
    return meta_[static_cast<size_t>(id)].len;
  }
  bool Empty(PathId id) const { return HopCount(id) == 0; }

  // Sum of link delays, cached at intern time and accumulated first link to
  // last — the order SpTree::distance_ms sums them in, so the two agree
  // bitwise.
  double DelayMs(PathId id) const {
    return meta_[static_cast<size_t>(id)].delay_ms;
  }

  // Minimum link capacity along the path (0 for the empty path).
  double BottleneckGbps(PathId id) const;

  // Node sequence src..dst (HopCount()+1 nodes; empty for the empty path).
  std::vector<NodeId> Nodes(PathId id) const;

  bool ContainsLink(PathId id, LinkId link) const;
  bool ContainsNode(PathId id, NodeId node) const;

  // "A->B->C" using node names; for logs and CLIs.
  std::string ToString(PathId id) const;

  const Graph& graph() const { return *g_; }

  // Ids of every interned path that crosses `link`, in intern order. Links
  // added to the graph after the last Intern() have no entry yet; treat a
  // missing slot as "no paths".
  const std::vector<PathId>& PathsOnLink(LinkId link) const {
    static const std::vector<PathId> kNone;
    size_t l = static_cast<size_t>(link);
    return l < on_link_.size() ? on_link_[l] : kNone;
  }

  // Interning telemetry: hits are Intern() calls answered by an existing
  // entry (hash-cons dedup); misses == size(), the unique paths that cost
  // an arena copy. The corpus runner pairs size() with the count of
  // PathAllocation handles produced to report how many per-instance deep
  // copies the arena replaced.
  uint64_t intern_hits() const { return hits_; }
  uint64_t intern_misses() const { return meta_.size(); }

 private:
  struct Meta {
    uint32_t begin = 0;  // offset into arena_
    uint32_t len = 0;
    double delay_ms = 0;
  };

  static uint64_t HashLinks(const LinkId* links, size_t n);
  bool SameLinks(PathId id, const LinkId* links, size_t n) const;

  const Graph* g_;
  std::vector<LinkId> arena_;
  std::vector<Meta> meta_;
  // hash -> ids with that hash (collision chain; compared against the arena).
  std::unordered_map<uint64_t, std::vector<PathId>> index_;
  std::vector<std::vector<PathId>> on_link_;
  uint64_t hits_ = 0;
};

}  // namespace ldr

#endif  // LDR_GRAPH_PATH_STORE_H_
