// Directed multigraph model of a WAN backbone.
//
// Nodes are PoPs; links are unidirectional (a physical cable is modelled as
// two directed links, as in the paper's Fig. 5 discussion where the eastbound
// and westbound directions of one cable fill independently). Each link
// carries a propagation delay in milliseconds and a capacity in Gbps.
#ifndef LDR_GRAPH_GRAPH_H_
#define LDR_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace ldr {

using NodeId = int32_t;
using LinkId = int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr LinkId kInvalidLink = -1;

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double delay_ms = 0;
  double capacity_gbps = 0;
};

// Non-owning view of a contiguous LinkId run — the currency of the CSR
// adjacency below and of PathStore spans. Invalidated by mutation of the
// owning container (AddLink / PathStore::Intern); don't hold one across
// mutations.
class LinkSpan {
 public:
  LinkSpan() = default;
  LinkSpan(const LinkId* data, size_t size) : data_(data), size_(size) {}

  const LinkId* begin() const { return data_; }
  const LinkId* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  LinkId operator[](size_t i) const { return data_[i]; }
  LinkId front() const { return data_[0]; }
  LinkId back() const { return data_[size_ - 1]; }

 private:
  const LinkId* data_ = nullptr;
  size_t size_ = 0;
};

// Iteration view over a node's *usable* out-links: the CSR run with any
// administratively-down links (Graph::SetLinkDown) skipped at iteration
// time. When no link in the graph is down the mask pointer is null and the
// iterator degenerates to plain pointer increments, so the masking costs the
// common case nothing and the CSR array is never rebuilt.
class OutLinkRange {
 public:
  class Iterator {
   public:
    Iterator(const LinkId* p, const LinkId* end, const char* down)
        : p_(p), end_(end), down_(down) {
      Skip();
    }
    LinkId operator*() const { return *p_; }
    Iterator& operator++() {
      ++p_;
      Skip();
      return *this;
    }
    bool operator==(const Iterator& o) const { return p_ == o.p_; }
    bool operator!=(const Iterator& o) const { return p_ != o.p_; }

    using iterator_category = std::forward_iterator_tag;
    using value_type = LinkId;
    using difference_type = ptrdiff_t;
    using pointer = const LinkId*;
    using reference = LinkId;

   private:
    void Skip() {
      if (down_ == nullptr) return;
      while (p_ != end_ && down_[static_cast<size_t>(*p_)]) ++p_;
    }
    const LinkId* p_;
    const LinkId* end_;
    const char* down_;  // null when no link in the graph is down
  };

  OutLinkRange(const LinkId* data, size_t size, const char* down)
      : data_(data), size_(size), down_(down) {}

  Iterator begin() const { return Iterator(data_, data_ + size_, down_); }
  Iterator end() const {
    return Iterator(data_ + size_, data_ + size_, down_);
  }
  // Number of usable links in the run. O(1) when nothing is down, O(run)
  // otherwise.
  size_t size() const {
    if (down_ == nullptr) return size_;
    size_t n = 0;
    for (LinkId id : *this) {
      (void)id;
      ++n;
    }
    return n;
  }
  bool empty() const { return begin() == end(); }

 private:
  const LinkId* data_;
  size_t size_;
  const char* down_;
};

class Graph {
 public:
  Graph() = default;

  // Adds a node and returns its id (ids are dense, starting at 0).
  NodeId AddNode(std::string name);

  // Adds a directed link; returns its id (dense, starting at 0).
  LinkId AddLink(NodeId src, NodeId dst, double delay_ms, double capacity_gbps);

  // Adds both directions with identical delay/capacity; returns the id of the
  // forward link (the reverse link has id forward+1).
  LinkId AddBidiLink(NodeId a, NodeId b, double delay_ms, double capacity_gbps);

  size_t NodeCount() const { return node_names_.size(); }
  size_t LinkCount() const { return links_.size(); }

  const Link& link(LinkId id) const { return links_[static_cast<size_t>(id)]; }
  const std::string& node_name(NodeId id) const {
    return node_names_[static_cast<size_t>(id)];
  }
  // Returns kInvalidNode if no node has this name.
  NodeId FindNode(const std::string& name) const;

  // Usable outgoing link ids of `node`, in insertion order, skipping links
  // masked down by SetLinkDown. The adjacency is kept in CSR form (one flat
  // id array + per-node offsets); every AddLink re-establishes the
  // invariant, so the view is always valid and reads are lock-free in the
  // parallel corpus runner. With no links down this is a plain span walk.
  OutLinkRange OutLinks(NodeId node) const {
    size_t v = static_cast<size_t>(node);
    return OutLinkRange(csr_links_.data() + csr_offsets_[v],
                        csr_offsets_[v + 1] - csr_offsets_[v],
                        down_count_ > 0 ? link_down_.data() : nullptr);
  }

  // The raw CSR run including masked links — for code that must see the
  // physical adjacency (serialization, topology evolution) rather than the
  // operational one.
  LinkSpan AllOutLinks(NodeId node) const {
    size_t v = static_cast<size_t>(node);
    return LinkSpan(csr_links_.data() + csr_offsets_[v],
                    csr_offsets_[v + 1] - csr_offsets_[v]);
  }

  // Administrative link masking — the cheap "link fails at t" primitive of
  // the scenario engine. A down link stays in the link table (ids, delays
  // and capacities are untouched; Path/PathStore spans referring to it stay
  // resolvable) but disappears from OutLinks, and with it from Dijkstra, Yen
  // and every routing scheme. No CSR rebuild happens in either direction.
  // Out-of-range ids are a no-op / read as up: scenario events are external
  // input (PR 6 hardening — this used to index link_down_ unchecked).
  void SetLinkDown(LinkId id, bool down) {
    if (id < 0 || static_cast<size_t>(id) >= link_down_.size()) return;
    char& slot = link_down_[static_cast<size_t>(id)];
    if (slot == static_cast<char>(down)) return;
    slot = static_cast<char>(down);
    if (down) {
      ++down_count_;
    } else {
      --down_count_;
    }
  }
  bool IsLinkDown(LinkId id) const {
    return id >= 0 && static_cast<size_t>(id) < link_down_.size() &&
           link_down_[static_cast<size_t>(id)] != 0;
  }
  size_t DownLinkCount() const { return down_count_; }

  // Grouped form of SetLinkDown — the correlated-event primitive (SRLG cut,
  // node failure, maintenance drain): every member link flips before any
  // consumer observes the graph, so a grouped event is one atomic topology
  // delta, never a sequence of partially-applied states.
  void SetLinksDown(const std::vector<LinkId>& ids, bool down) {
    for (LinkId id : ids) SetLinkDown(id, down);
  }

  // The opposite-direction link (same endpoints, swapped), or kInvalidLink.
  // When several exist, the first added is returned. A physical-identity
  // query: sees masked-down links (callers restore cables by id mid-outage).
  LinkId ReverseLink(LinkId id) const;

  // Every link touching `node`, outgoing and incoming, in ascending id order
  // — what a node failure masks. A physical-identity query like ReverseLink:
  // masked links are included (a node can fail while some of its cables are
  // already down). Outgoing links come straight off the CSR run; incoming
  // ones from a link-table scan (node events are a cold path — there is no
  // reverse CSR to maintain on the hot path for them).
  std::vector<LinkId> IncidentLinks(NodeId node) const;

  // True if a link src->dst exists, down or not (physical identity, like
  // ReverseLink — topology evolution must not re-add a masked cable).
  bool HasLink(NodeId src, NodeId dst) const;

  // Mutator used by topology evolution experiments (§8 / Fig. 20).
  void SetCapacity(LinkId id, double capacity_gbps) {
    links_[static_cast<size_t>(id)].capacity_gbps = capacity_gbps;
  }

  const std::vector<Link>& links() const { return links_; }

 private:
  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  // CSR adjacency: csr_links_[csr_offsets_[v] .. csr_offsets_[v+1]) are the
  // out-link ids of node v, in insertion order (shortest-path tie-breaking
  // depends on that order). AddLink splices into the flat array, so there is
  // no separate freeze step a caller could forget before the read-heavy
  // parallel phase.
  std::vector<size_t> csr_offsets_ = {0};  // NodeCount()+1 entries
  std::vector<LinkId> csr_links_;          // LinkCount() entries
  // Administrative mask (SetLinkDown): char, not bool, so OutLinkRange can
  // hold a raw pointer into it. down_count_ keeps the no-mask fast path an
  // integer compare.
  std::vector<char> link_down_;            // LinkCount() entries
  size_t down_count_ = 0;
};

// Both directed links of the physical cable `link` rides: the link itself
// plus its reverse direction when the graph has one, deduplicated (a
// genuinely unidirectional link yields just itself; an invalid id yields
// nothing). The one definition of "a cable failure takes both directions" —
// link-flap construction and SRLG expansion both build on it.
std::vector<LinkId> CableLinks(const Graph& g, LinkId link);

// An explicit path: an ordered list of link ids, where link i's dst is
// link i+1's src. An empty path is valid only as "no path".
class Path {
 public:
  Path() = default;
  explicit Path(std::vector<LinkId> links) : links_(std::move(links)) {}

  const std::vector<LinkId>& links() const { return links_; }
  bool empty() const { return links_.empty(); }
  size_t hop_count() const { return links_.size(); }

  // Sum of link delays.
  double DelayMs(const Graph& g) const;

  // Minimum link capacity along the path (the bottleneck).
  double BottleneckGbps(const Graph& g) const;

  // Node sequence src..dst (hop_count()+1 nodes). Empty for the empty path.
  std::vector<NodeId> Nodes(const Graph& g) const;

  bool ContainsLink(LinkId id) const;
  bool ContainsNode(const Graph& g, NodeId id) const;

  // "A->B->C" using node names; for logs and examples.
  std::string ToString(const Graph& g) const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.links_ == b.links_;
  }

 private:
  std::vector<LinkId> links_;
};

}  // namespace ldr

#endif  // LDR_GRAPH_GRAPH_H_
