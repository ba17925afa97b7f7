// Incremental K-shortest simple paths (Yen's algorithm).
//
// The paper's LDR scheme grows each aggregate's candidate path list lazily
// ("we associate each aggregate with the list of its k shortest paths, where
// initially k = 1", Fig. 13) and notes that the KSP computation — not the LP
// — is the bottleneck, "the results of which can be readily cached" (§5).
// KspGenerator is exactly that: it produces the k-th shortest path on demand
// and memoizes all previously produced paths and candidates, so asking for
// path k after path k-1 is cheap. Produced paths are interned into a
// PathStore, so the routing/sim layers above handle 32-bit PathIds instead
// of copying link vectors. KspCache keys generators by (src, dst) and owns
// the store they share.
#ifndef LDR_GRAPH_KSP_H_
#define LDR_GRAPH_KSP_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/path_store.h"
#include "graph/shortest_path.h"

namespace ldr {

class KspGenerator {
 public:
  // Interns produced paths into `store` (must outlive the generator; its
  // graph is the search graph). KspCache hands every generator of a
  // topology its one shared store; a transient generator (the APA metric's
  // exclusion-set searches) gets a store local to the call.
  KspGenerator(PathStore* store, NodeId src, NodeId dst, ExclusionSet excl = {});

  // Returns the k-th (0-based) shortest simple path as an interned id, or
  // kInvalidPathId if fewer than k+1 simple paths exist. Paths are produced
  // in non-decreasing delay order. Ids are stable for the store's lifetime.
  PathId GetId(size_t k);

  // True if any *queued candidate* path crosses `link`. Produced paths are
  // interned, so the cache answers that side through the store's reverse
  // index; this covers the non-interned half of the generator's state for
  // KspCache::InvalidateLinks's eviction decision.
  bool AnyCandidateCrosses(LinkId link) const;

  // True if this generator produced the interned path `id`. The reverse
  // index outlives generators (the arena never shrinks), so InvalidateLinks
  // must distinguish "this pair's *current* generator produced a crossing
  // path" from "some earlier, already-evicted generation did".
  bool HasProduced(PathId id) const;

 private:
  struct Candidate {
    double delay_ms;
    std::vector<LinkId> links;
    bool operator<(const Candidate& o) const {
      if (delay_ms != o.delay_ms) return delay_ms < o.delay_ms;
      return links < o.links;
    }
  };

  // Generates candidates spurred from the most recent produced path.
  void GenerateCandidatesFromLast();
  bool ProduceNext();

  const Graph* g_;
  PathStore* store_;
  NodeId src_;
  NodeId dst_;
  ExclusionSet base_excl_;
  std::vector<PathId> produced_;         // interned, in production order
  std::set<Candidate> candidates_;       // ordered; also deduplicates
  std::set<std::vector<LinkId>> seen_;   // all produced + candidate link seqs
};

// Cache of generators per (src, dst) pair over one graph, sharing one
// PathStore. Used by LDR so repeated optimizations on the same topology pay
// the Yen cost only once (the "LDR" vs "LDR (cold cache)" distinction of
// Fig. 15). The cache sits on the controller hot path — one lookup per
// aggregate per path-growth round — so pairs are packed into a single hashed
// 64-bit key rather than tree-ordered.
class KspCache {
 public:
  explicit KspCache(const Graph* g) : g_(g), store_(g) {}

  KspGenerator* Get(NodeId src, NodeId dst);

  // The per-topology path arena shared by all generators of this cache.
  // Routing outcomes produced through this cache resolve against it.
  PathStore* store() { return &store_; }
  const PathStore* store() const { return &store_; }

  void Clear() { generators_.clear(); }
  size_t size() const { return generators_.size(); }

  // Topology-change invalidation for a group of links that just went down
  // (one link, an SRLG cut, a node failure): evicts exactly the generators
  // whose state references any member link — a *produced* path crossing it
  // (found through the store's reverse index, not by scanning generators) or
  // a queued *candidate* crossing it (Yen's spur searches record only the
  // single best spur per position, so a masked candidate cannot simply be
  // discarded: the spur that produced it is never re-run, and a valid
  // masked-graph path could be lost for good). Survivors reference the links
  // nowhere, and for them the mask changes nothing: a down link only removes
  // paths, so every recorded spur result that avoids it is still the best
  // for its position, production order and completeness both hold. The
  // arena itself is never shrunk — PathIds stay stable for warm LP column
  // identity — stale interned paths are simply never produced again. Each
  // generator is evicted and counted once, and the candidate queues are
  // scanned once for the whole group. Returns the eviction count.
  //
  // A link coming back up is the opposite case: the restored link can create
  // *shorter* paths for arbitrary pairs, which would violate the production
  // order of any generator, so callers must Clear() — the store (and its
  // cached delays, which masking never touches) survives either way.
  size_t InvalidateLinks(const std::vector<LinkId>& links);

 private:

  static uint64_t Key(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }

  // Finalizer of SplitMix64: NodeIds are small and dense, so identity
  // hashing of the packed key would collide entire src blocks into the same
  // few buckets modulo a power of two.
  struct KeyHash {
    size_t operator()(uint64_t z) const noexcept {
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  };

  const Graph* g_;
  PathStore store_;
  std::unordered_map<uint64_t, std::unique_ptr<KspGenerator>, KeyHash>
      generators_;
};

}  // namespace ldr

#endif  // LDR_GRAPH_KSP_H_
