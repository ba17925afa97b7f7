#include "routing/b4.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

namespace ldr {

namespace {

// Paths an aggregate considers before it is declared stuck.
constexpr size_t kMaxPathsPerAggregate = 16;

struct AggState {
  size_t path_idx = 0;       // current preferred path (KSP order)
  double remaining = 0;      // unplaced demand, Gbps
  bool stuck = false;        // no usable path remains
  // Gbps placed per path index.
  std::map<size_t, double> placed;
};

}  // namespace

B4Scheme::B4Scheme(const Graph* g, KspCache* cache, double headroom)
    : g_(g), cache_(cache), headroom_(headroom) {
  name_ = headroom_ == 0 ? "B4"
                         : "B4(h=" + std::to_string(headroom_) + ")";
}

RoutingOutcome B4Scheme::Route(const std::vector<Aggregate>& aggregates) {
  auto t0 = std::chrono::steady_clock::now();
  PathStore& store = *cache_->store();
  size_t num_links = g_->LinkCount();
  std::vector<double> load(num_links, 0.0);
  auto scaled_cap = [&](size_t l) {
    return g_->link(static_cast<LinkId>(l)).capacity_gbps *
           (1.0 - headroom_);
  };
  auto true_cap = [&](size_t l) {
    return g_->link(static_cast<LinkId>(l)).capacity_gbps;
  };

  std::vector<AggState> st(aggregates.size());
  std::vector<KspGenerator*> gen(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    st[a].remaining = aggregates[a].demand_gbps;
    gen[a] = cache_->Get(aggregates[a].src, aggregates[a].dst);
    if (gen[a]->GetId(0) == kInvalidPathId) st[a].stuck = true;
  }

  constexpr double kTiny = 1e-9;
  auto path_saturated = [&](PathId p) {
    for (LinkId l : store.Links(p)) {
      if (scaled_cap(static_cast<size_t>(l)) - load[static_cast<size_t>(l)] <=
          kTiny) {
        return true;
      }
    }
    return false;
  };

  // Advance an aggregate past paths containing saturated links.
  auto advance = [&](size_t a) {
    while (!st[a].stuck) {
      PathId p = gen[a]->GetId(st[a].path_idx);
      if (p == kInvalidPathId || st[a].path_idx >= kMaxPathsPerAggregate) {
        st[a].stuck = true;
        return;
      }
      if (!path_saturated(p)) return;
      ++st[a].path_idx;
    }
  };
  for (size_t a = 0; a < aggregates.size(); ++a) advance(a);

  // Progressive waterfill: all active aggregates fill their preferred path
  // at rate 1 Gbps per step unit until a link saturates or a demand is met.
  while (true) {
    // Active rate per link.
    std::vector<double> rate(num_links, 0.0);
    std::vector<size_t> active;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      if (st[a].stuck || st[a].remaining <= kTiny) continue;
      active.push_back(a);
      PathId p = gen[a]->GetId(st[a].path_idx);
      for (LinkId l : store.Links(p)) rate[static_cast<size_t>(l)] += 1.0;
    }
    if (active.empty()) break;

    // Earliest event: a link saturates or an aggregate finishes.
    double t = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < num_links; ++l) {
      if (rate[l] > 0) {
        t = std::min(t, (scaled_cap(l) - load[l]) / rate[l]);
      }
    }
    for (size_t a : active) t = std::min(t, st[a].remaining);
    t = std::max(t, 0.0);

    // Apply the fill.
    for (size_t a : active) {
      PathId p = gen[a]->GetId(st[a].path_idx);
      st[a].placed[st[a].path_idx] += t;
      st[a].remaining -= t;
      for (LinkId l : store.Links(p)) load[static_cast<size_t>(l)] += t;
    }
    // Step unfinished aggregates past any newly saturated link.
    for (size_t a : active) {
      if (st[a].remaining > kTiny) advance(a);
    }
    if (t <= kTiny) {
      // Degenerate zero-length event: ensure progress was made via advance();
      // if every active aggregate is pinned on a saturated path, advance()
      // marked it stuck or moved it, so the loop cannot spin forever. Guard
      // anyway: if nothing changed, bail.
      bool moved = false;
      for (size_t a : active) {
        if (st[a].stuck || st[a].remaining <= kTiny ||
            !path_saturated(gen[a]->GetId(st[a].path_idx))) {
          moved = true;
        }
      }
      if (!moved) break;
    }
  }

  // Second pass: place leftovers into the reserved headroom (true capacity).
  if (headroom_ > 0) {
    for (size_t a = 0; a < aggregates.size(); ++a) {
      if (st[a].remaining <= kTiny) continue;
      for (size_t pi = 0; pi < kMaxPathsPerAggregate; ++pi) {
        PathId p = gen[a]->GetId(pi);
        if (p == kInvalidPathId) break;
        double headroom_left = std::numeric_limits<double>::infinity();
        for (LinkId l : store.Links(p)) {
          headroom_left = std::min(
              headroom_left,
              true_cap(static_cast<size_t>(l)) - load[static_cast<size_t>(l)]);
        }
        double put = std::min(st[a].remaining, std::max(0.0, headroom_left));
        if (put > kTiny) {
          st[a].placed[pi] += put;
          st[a].remaining -= put;
          for (LinkId l : store.Links(p)) load[static_cast<size_t>(l)] += put;
        }
        if (st[a].remaining <= kTiny) break;
      }
    }
  }

  // Final pass: force whatever is left onto the shortest path (congestion).
  bool all_placed = true;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (st[a].remaining <= kTiny) continue;
    PathId p = gen[a]->GetId(0);
    if (p == kInvalidPathId) continue;  // truly unroutable pair
    all_placed = false;
    st[a].placed[0] += st[a].remaining;
    for (LinkId l : store.Links(p)) {
      load[static_cast<size_t>(l)] += st[a].remaining;
    }
    st[a].remaining = 0;
  }

  RoutingOutcome out;
  out.store = &store;
  out.allocations.resize(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    double demand = aggregates[a].demand_gbps;
    if (demand <= 0) continue;
    for (const auto& [pi, gbps] : st[a].placed) {
      if (gbps <= kTiny) continue;
      out.allocations[a].push_back({gen[a]->GetId(pi), gbps / demand});
    }
  }
  out.feasible = all_placed;
  out.solve_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return out;
}

}  // namespace ldr
