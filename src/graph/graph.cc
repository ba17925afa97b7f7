#include "graph/graph.h"

#include <algorithm>

namespace ldr {

NodeId Graph::AddNode(std::string name) {
  node_names_.push_back(std::move(name));
  csr_offsets_.push_back(csr_offsets_.back());
  return static_cast<NodeId>(node_names_.size() - 1);
}

LinkId Graph::AddLink(NodeId src, NodeId dst, double delay_ms,
                      double capacity_gbps) {
  Link l;
  l.src = src;
  l.dst = dst;
  l.delay_ms = delay_ms;
  l.capacity_gbps = capacity_gbps;
  links_.push_back(l);
  link_down_.push_back(0);
  LinkId id = static_cast<LinkId>(links_.size() - 1);
  // Splice the id at the end of src's CSR run. O(nodes + links) per add —
  // construction is a cold path; the win is the flat, always-valid adjacency
  // on the (parallel, read-only) hot path.
  size_t s = static_cast<size_t>(src);
  csr_links_.insert(
      csr_links_.begin() + static_cast<ptrdiff_t>(csr_offsets_[s + 1]), id);
  for (size_t v = s + 1; v < csr_offsets_.size(); ++v) ++csr_offsets_[v];
  return id;
}

LinkId Graph::AddBidiLink(NodeId a, NodeId b, double delay_ms,
                          double capacity_gbps) {
  LinkId fwd = AddLink(a, b, delay_ms, capacity_gbps);
  AddLink(b, a, delay_ms, capacity_gbps);
  return fwd;
}

NodeId Graph::FindNode(const std::string& name) const {
  for (size_t i = 0; i < node_names_.size(); ++i) {
    if (node_names_[i] == name) return static_cast<NodeId>(i);
  }
  return kInvalidNode;
}

LinkId Graph::ReverseLink(LinkId id) const {
  // Physical-identity query: a masked-down reverse direction still exists
  // as a cable (scenario code looks it up mid-outage to restore it), so
  // this walks the raw adjacency, not the operational view.
  const Link& l = link(id);
  for (LinkId cand : AllOutLinks(l.dst)) {
    if (link(cand).dst == l.src) return cand;
  }
  return kInvalidLink;
}

std::vector<LinkId> Graph::IncidentLinks(NodeId node) const {
  std::vector<LinkId> out;
  if (node < 0 || static_cast<size_t>(node) >= NodeCount()) return out;
  for (LinkId id : AllOutLinks(node)) out.push_back(id);
  for (size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].dst == node && links_[i].src != node) {
      out.push_back(static_cast<LinkId>(i));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Graph::HasLink(NodeId src, NodeId dst) const {
  // Physical-identity query, like ReverseLink: topology evolution asks it
  // to avoid re-adding an existing cable, down or not.
  for (LinkId cand : AllOutLinks(src)) {
    if (link(cand).dst == dst) return true;
  }
  return false;
}

std::vector<LinkId> CableLinks(const Graph& g, LinkId link) {
  std::vector<LinkId> out;
  if (link < 0 || static_cast<size_t>(link) >= g.LinkCount()) return out;
  out.push_back(link);
  LinkId rev = g.ReverseLink(link);
  if (rev != kInvalidLink && rev != link) out.push_back(rev);
  return out;
}

}  // namespace ldr
