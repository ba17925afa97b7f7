// Minimal GraphML reader for Internet Topology Zoo files.
//
// The Zoo distributes networks as GraphML with per-file <key> declarations
// mapping attribute names ("Latitude", "Longitude", "label",
// "LinkSpeedRaw") to data keys. This reader handles exactly that subset —
// it is not a general XML parser (no namespaces, CDATA, or entities beyond
// the five standard ones), but it loads real Zoo files so users can swap
// the synthetic corpus for the actual dataset.
//
// Nodes without coordinates get (0, 0) and a warning count; edges without a
// speed get `default_capacity_gbps`; edge delay always comes from
// coordinates (the Zoo has no delay attribute — the paper used REPETITA's
// computed latencies, which our great-circle delays approximate).
#ifndef LDR_TOPOLOGY_GRAPHML_H_
#define LDR_TOPOLOGY_GRAPHML_H_

#include <optional>
#include <string>

#include "topology/topology.h"

namespace ldr {

// LinkSpeedRaw is bits/s in the Zoo; it is read as Gbps (x 1e-9).
struct GraphmlOptions {
  double default_capacity_gbps = 10;
};

struct GraphmlResult {
  Topology topology;
  size_t nodes_without_coords = 0;
  size_t edges_without_speed = 0;
};

// Returns nullopt and sets *error on malformed input.
std::optional<GraphmlResult> ParseGraphml(const std::string& xml,
                                          const GraphmlOptions& opts = {},
                                          std::string* error = nullptr);

}  // namespace ldr

#endif  // LDR_TOPOLOGY_GRAPHML_H_
