#include "graph/path_store.h"

#include <algorithm>

namespace ldr {

uint64_t PathStore::HashLinks(const LinkId* links, size_t n) {
  // FNV-1a over the id words, finished with a SplitMix64 avalanche — link
  // ids are small and dense, so the tail mix is what spreads buckets.
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint32_t>(links[i]);
    h *= 1099511628211ULL;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

bool PathStore::SameLinks(PathId id, const LinkId* links, size_t n) const {
  const Meta& m = meta_[static_cast<size_t>(id)];
  if (m.len != n) return false;
  return std::equal(links, links + n, arena_.data() + m.begin);
}

PathId PathStore::Intern(const LinkId* links, size_t n) {
  uint64_t h = HashLinks(links, n);
  std::vector<PathId>& chain = index_[h];
  for (PathId id : chain) {
    if (SameLinks(id, links, n)) {
      ++hits_;
      return id;
    }
  }

  Meta m;
  m.begin = static_cast<uint32_t>(arena_.size());
  m.len = static_cast<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) m.delay_ms += g_->link(links[i]).delay_ms;
  arena_.insert(arena_.end(), links, links + n);

  PathId id = static_cast<PathId>(meta_.size());
  meta_.push_back(m);
  chain.push_back(id);

  if (on_link_.size() < g_->LinkCount()) on_link_.resize(g_->LinkCount());
  for (size_t i = 0; i < n; ++i) {
    // Simple paths visit each link once; guard the index against non-simple
    // sequences interned by hand anyway.
    if (std::find(links, links + i, links[i]) != links + i) continue;
    on_link_[static_cast<size_t>(links[i])].push_back(id);
  }
  return id;
}

double PathStore::BottleneckGbps(PathId id) const {
  LinkSpan links = Links(id);
  if (links.empty()) return 0;
  double b = 1e300;
  for (LinkId l : links) b = std::min(b, g_->link(l).capacity_gbps);
  return b;
}

std::vector<NodeId> PathStore::Nodes(PathId id) const {
  LinkSpan links = Links(id);
  std::vector<NodeId> nodes;
  if (links.empty()) return nodes;
  nodes.reserve(links.size() + 1);
  nodes.push_back(g_->link(links.front()).src);
  for (LinkId l : links) nodes.push_back(g_->link(l).dst);
  return nodes;
}

bool PathStore::ContainsLink(PathId id, LinkId link) const {
  LinkSpan links = Links(id);
  return std::find(links.begin(), links.end(), link) != links.end();
}

bool PathStore::ContainsNode(PathId id, NodeId node) const {
  LinkSpan links = Links(id);
  if (links.empty()) return false;
  if (g_->link(links.front()).src == node) return true;
  for (LinkId l : links) {
    if (g_->link(l).dst == node) return true;
  }
  return false;
}

std::string PathStore::ToString(PathId id) const {
  LinkSpan links = Links(id);
  if (links.empty()) return "(empty)";
  std::string out = g_->node_name(g_->link(links.front()).src);
  for (LinkId l : links) {
    out += "->";
    out += g_->node_name(g_->link(l).dst);
  }
  return out;
}

}  // namespace ldr
