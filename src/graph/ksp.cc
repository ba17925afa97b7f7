#include "graph/ksp.h"

#include <algorithm>
#include <optional>

#include "util/failpoint.h"

namespace ldr {

KspGenerator::KspGenerator(PathStore* store, NodeId src, NodeId dst,
                           ExclusionSet excl)
    : g_(&store->graph()),
      store_(store),
      src_(src),
      dst_(dst),
      base_excl_(std::move(excl)) {
  std::optional<std::vector<LinkId>> sp =
      ShortestPath(*g_, src_, dst_, base_excl_);
  if (sp.has_value() && !sp->empty()) {
    produced_.push_back(store_->Intern(*sp));
    seen_.insert(std::move(*sp));
  }
}

PathId KspGenerator::GetId(size_t k) {
  while (produced_.size() <= k) {
    // Fault site: the path-production layer yields nothing new (a Yen's
    // backend outage). Only *new* production is suppressed — the produced
    // prefix, including the constructor's shortest path, stays served, so
    // emergency shortest-path routing survives the fault.
    if (LDR_FAILPOINT("ksp.empty")) return kInvalidPathId;
    if (!ProduceNext()) return kInvalidPathId;
  }
  return produced_[k];
}

void KspGenerator::GenerateCandidatesFromLast() {
  // Spans stay valid throughout: nothing is interned until ProduceNext()
  // picks the winning candidate.
  LinkSpan prev_links = store_->Links(produced_.back());
  std::vector<NodeId> prev_nodes = store_->Nodes(produced_.back());

  ExclusionSet excl = base_excl_;
  if (excl.links.empty()) excl.links.assign(g_->LinkCount(), false);
  if (excl.nodes.empty()) excl.nodes.assign(g_->NodeCount(), false);

  // Spur only from the deviation node on (see the header), still summing
  // the root delay link by link from the source.
  double root_delay = 0;
  for (size_t i = 0; i < last_deviation_; ++i) {
    root_delay += g_->link(prev_links[i]).delay_ms;
  }
  for (size_t i = last_deviation_; i < prev_links.size(); ++i) {
    NodeId spur_node = prev_nodes[i];

    // Exclude links that would retrace any already-produced path sharing the
    // same root (standard Yen rule).
    std::vector<LinkId> removed_links;
    std::vector<LinkId> root(prev_links.begin(), prev_links.begin() + i);
    for (PathId pid : produced_) {
      LinkSpan pl = store_->Links(pid);
      if (pl.size() >= i &&
          std::equal(root.begin(), root.end(), pl.begin())) {
        if (pl.size() > i && !excl.links[static_cast<size_t>(pl[i])]) {
          excl.links[static_cast<size_t>(pl[i])] = true;
          removed_links.push_back(pl[i]);
        }
      }
    }
    // Exclude root nodes (all nodes before the spur node) to keep paths
    // simple.
    std::vector<NodeId> removed_nodes;
    for (size_t j = 0; j < i; ++j) {
      if (!excl.nodes[static_cast<size_t>(prev_nodes[j])]) {
        excl.nodes[static_cast<size_t>(prev_nodes[j])] = true;
        removed_nodes.push_back(prev_nodes[j]);
      }
    }

    SpTree spur_tree = ShortestPathTree(*g_, spur_node, excl, dst_);
    std::optional<std::vector<LinkId>> spur = spur_tree.PathTo(*g_, dst_);
    if (spur.has_value() && !spur->empty()) {
      std::vector<LinkId> total = root;
      total.insert(total.end(), spur->begin(), spur->end());
      if (seen_.insert(total).second) {
        Candidate c;
        c.delay_ms =
            root_delay + spur_tree.distance_ms[static_cast<size_t>(dst_)];
        c.links = std::move(total);
        c.deviation = i;
        candidates_.insert(std::move(c));
      }
    }

    // Restore exclusions for the next spur position.
    for (LinkId lid : removed_links) excl.links[static_cast<size_t>(lid)] = false;
    for (NodeId nid : removed_nodes) excl.nodes[static_cast<size_t>(nid)] = false;

    root_delay += g_->link(prev_links[i]).delay_ms;
  }
}

bool KspGenerator::ProduceNext() {
  if (produced_.empty()) return false;  // never had a shortest path
  if (spurred_ < produced_.size()) GenerateCandidatesFromLast();
  spurred_ = produced_.size();
  // Pop-time mask guard. KspCache::InvalidateLinks evicts any generator
  // holding a candidate that crosses a downed link, so cache users never
  // reach this with a masked candidate; the guard is defense in depth for
  // standalone generators whose graph is masked without invalidation — it
  // guarantees no masked path is ever *produced* (though such a generator
  // may under-produce, since the discarded candidate's spur search is not
  // re-run; eviction is the complete answer). A discarded candidate stays
  // in seen_ — under the mask it is not a path at all, and should the link
  // come back up the whole generator is rebuilt anyway (KspCache contract).
  while (!candidates_.empty()) {
    auto it = candidates_.begin();
    bool usable = true;
    if (g_->DownLinkCount() > 0) {  // mask-free hot path: no per-link scan
      for (LinkId l : it->links) {
        if (g_->IsLinkDown(l)) {
          usable = false;
          break;
        }
      }
    }
    if (!usable) {
      candidates_.erase(it);
      continue;
    }
    produced_.push_back(store_->Intern(it->links));
    last_deviation_ = it->deviation;
    candidates_.erase(it);
    return true;
  }
  return false;
}

bool KspGenerator::AnyCandidateCrosses(LinkId link) const {
  for (const Candidate& c : candidates_) {
    for (LinkId l : c.links) {
      if (l == link) return true;
    }
  }
  return false;
}

bool KspGenerator::HasProduced(PathId id) const {
  return std::find(produced_.begin(), produced_.end(), id) != produced_.end();
}

size_t KspCache::InvalidateLinks(const std::vector<LinkId>& links) {
  size_t evicted = 0;
  // Produced-path side via the reverse index: cheap, no generator scan.
  // The index lists every path ever interned on a link, including ones only
  // an earlier (already-evicted) generation of the pair produced —
  // HasProduced keeps a rebuilt generator that now avoids the link alive
  // through repeated failures of it. A generator crossing several member
  // links is erased by the first one that finds it — the later members'
  // walks miss it in generators_ and cannot recount it.
  for (LinkId link : links) {
    for (PathId pid : store_.PathsOnLink(link)) {
      LinkSpan span = store_.Links(pid);
      if (span.empty()) continue;
      NodeId src = g_->link(span.front()).src;
      NodeId dst = g_->link(span.back()).dst;
      auto it = generators_.find(Key(src, dst));
      if (it == generators_.end() || !it->second->HasProduced(pid)) continue;
      generators_.erase(it);
      ++evicted;
    }
  }
  // Candidate-queue side: survivors holding a queued spur result that
  // crosses any member link must go too (see the header contract) —
  // candidates are not interned, so this half needs one scan for the whole
  // group.
  for (auto it = generators_.begin(); it != generators_.end();) {
    bool crosses = false;
    for (LinkId link : links) {
      if (it->second->AnyCandidateCrosses(link)) {
        crosses = true;
        break;
      }
    }
    if (crosses) {
      it = generators_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

KspGenerator* KspCache::Get(NodeId src, NodeId dst) {
  uint64_t key = Key(src, dst);
  auto it = generators_.find(key);
  if (it == generators_.end()) {
    it = generators_
             .emplace(key, std::make_unique<KspGenerator>(&store_, src, dst))
             .first;
  }
  return it->second.get();
}

}  // namespace ldr
