// ldrctl — command-line front end to the library.
//
//   ldrctl llpd <topology-file>            LLPD + APA summary
//   ldrctl dot <topology-file>             Graphviz to stdout
//   ldrctl route <topology-file> [opts]    synthesize traffic and route it
//       --scheme sp|b4|minmax|minmaxk10|ldr   (default ldr)
//       --headroom <frac in [0, 1)>           (default 0)
//       --load <minmax-util > 0>              (default 0.77)
//       --locality <l >= 0>                   (default 1.0)
//       --seed <n >= 0>                       (default 1)
//       --classes <w0,w1,...>   §8 class weights (each > 0); splits each
//                               aggregate evenly across classes with these
//                               delay weights (ldr scheme only)
//       Unknown options, options without a value, out-of-range or
//       non-finite values and options the scheme ignores (--headroom
//       outside b4/ldr, --classes outside ldr) exit 2 with the usage text.
//   ldrctl corpus                          list the built-in synthetic zoo
//
// llpd, dot and corpus take no further arguments; extra ones exit 2 with
// the usage text.
//
// Topology files may be the native text format or Topology Zoo GraphML
// (detected by a leading '<').
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "graph/ksp.h"
#include "graph/shortest_path.h"
#include "metrics/llpd.h"
#include "routing/b4.h"
#include "routing/lp_routing.h"
#include "routing/shortest_path_routing.h"
#include "sim/evaluate.h"
#include "sim/workload.h"
#include "topology/graphml.h"
#include "topology/topology.h"
#include "topology/zoo_corpus.h"
#include "util/stats.h"

using namespace ldr;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ldrctl llpd|dot|route <topology-file> [options]\n"
               "       ldrctl corpus\n"
               "see the header of tools/ldrctl.cc for options\n");
  return 2;
}

std::optional<Topology> LoadTopology(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ldrctl: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  std::string error;
  // GraphML or native text format?
  size_t first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '<') {
    auto parsed = ParseGraphml(text, {}, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "ldrctl: graphml parse error: %s\n",
                   error.c_str());
      return std::nullopt;
    }
    if (parsed->nodes_without_coords > 0) {
      std::fprintf(stderr,
                   "ldrctl: warning: %zu node(s) without coordinates\n",
                   parsed->nodes_without_coords);
    }
    return std::move(parsed->topology);
  }
  auto parsed = ParseTopology(text, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "ldrctl: parse error: %s\n", error.c_str());
  }
  return parsed;
}

int CmdLlpd(const Topology& t) {
  ApaOptions opts;
  std::vector<PairApa> apa = ComputeApa(t.graph, opts);
  std::printf("network:  %s\n", t.name.c_str());
  std::printf("nodes:    %zu\n", t.graph.NodeCount());
  std::printf("links:    %zu (directed)\n", t.graph.LinkCount());
  std::printf("diameter: %.1f ms\n", DiameterMs(t.graph));
  std::printf("LLPD:     %.3f\n", LlpdFromApa(apa, opts.apa_threshold));
  std::vector<double> vals;
  for (const PairApa& p : apa) vals.push_back(p.apa);
  std::printf("APA:      median %.2f  p10 %.2f  p90 %.2f\n", Median(vals),
              Percentile(vals, 10), Percentile(vals, 90));
  return 0;
}

struct RouteOptions {
  std::string scheme_name = "ldr";
  double headroom = 0, load = 0.77, locality = 1.0;
  uint64_t seed = 1;
  std::vector<double> class_weights;
};

// A finite number spanning all of `text`; nullopt otherwise.
std::optional<double> ParseNumber(const char* text) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

// Parses `route` options. Unknown flags, flags without a value, values that
// are not finite numbers, values that would route nonsense (negative
// demand, headroom that leaves no capacity) and flags the chosen scheme
// would ignore all print an error and return nullopt, so the caller exits 2
// with the usage text instead of routing.
std::optional<RouteOptions> ParseRouteOptions(int argc, char** argv) {
  static const char* const kFlags[] = {"--scheme", "--headroom", "--load",
                                       "--locality", "--seed", "--classes"};
  RouteOptions o;
  bool headroom_set = false;
  for (int i = 0; i < argc; i += 2) {
    const char* flag = argv[i];
    if (std::none_of(std::begin(kFlags), std::end(kFlags),
                     [&](const char* f) { return !std::strcmp(f, flag); })) {
      std::fprintf(stderr, "ldrctl: unknown route option %s\n", flag);
      return std::nullopt;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "ldrctl: %s needs a value\n", flag);
      return std::nullopt;
    }
    const char* value = argv[i + 1];
    auto bad = [&](const char* want) {
      std::fprintf(stderr, "ldrctl: %s %s: expected %s\n", flag, value, want);
      return std::nullopt;
    };
    if (!std::strcmp(flag, "--scheme")) {
      o.scheme_name = value;
    } else if (!std::strcmp(flag, "--classes")) {
      o.class_weights.clear();
      std::stringstream ss(value);
      std::string w;
      while (std::getline(ss, w, ',')) {
        std::optional<double> v = ParseNumber(w.c_str());
        if (!v.has_value() || *v <= 0) return bad("positive weights w0,w1,..");
        o.class_weights.push_back(*v);
      }
      if (o.class_weights.empty()) return bad("positive weights w0,w1,..");
    } else if (!std::strcmp(flag, "--seed")) {
      char* end = nullptr;
      errno = 0;
      unsigned long long v = std::strtoull(value, &end, 10);
      if (value[0] == '-' || end == value || *end != '\0' || errno != 0) {
        return bad("a non-negative integer");
      }
      o.seed = static_cast<uint64_t>(v);
    } else if (!std::strcmp(flag, "--headroom")) {
      std::optional<double> v = ParseNumber(value);
      if (!v.has_value() || *v < 0 || *v >= 1) {
        return bad("a fraction in [0, 1)");
      }
      o.headroom = *v;
      headroom_set = true;
    } else if (!std::strcmp(flag, "--load")) {
      std::optional<double> v = ParseNumber(value);
      if (!v.has_value() || *v <= 0) return bad("a positive number");
      o.load = *v;
    } else {  // --locality
      std::optional<double> v = ParseNumber(value);
      if (!v.has_value() || *v < 0) return bad("a non-negative number");
      o.locality = *v;
    }
  }
  const std::string& scheme = o.scheme_name;
  const char* ignored = nullptr;
  if (headroom_set && scheme != "b4" && scheme != "ldr") ignored = "--headroom";
  if (!o.class_weights.empty() && scheme != "ldr") ignored = "--classes";
  if (ignored != nullptr) {
    std::fprintf(stderr, "ldrctl: %s has no effect with --scheme %s\n",
                 ignored, scheme.c_str());
    return std::nullopt;
  }
  return o;
}

int CmdRoute(const Topology& t, const RouteOptions& o) {
  KspCache cache(&t.graph);
  // Built first so an unknown --scheme fails before traffic synthesis.
  std::unique_ptr<RoutingScheme> scheme;
  if (o.scheme_name == "sp") {
    scheme = std::make_unique<ShortestPathScheme>(&t.graph, &cache);
  } else if (o.scheme_name == "b4") {
    scheme = std::make_unique<B4Scheme>(&t.graph, &cache, o.headroom);
  } else if (o.scheme_name == "minmax") {
    scheme = std::make_unique<MinMaxScheme>(&t.graph, &cache);
  } else if (o.scheme_name == "minmaxk10") {
    scheme = std::make_unique<MinMaxScheme>(&t.graph, &cache, 10);
  } else if (o.scheme_name == "ldr") {
    auto ldr_scheme =
        std::make_unique<LatencyOptimalScheme>(&t.graph, &cache, o.headroom);
    if (!o.class_weights.empty()) {
      ldr_scheme->options().lp.class_weights = o.class_weights;
    }
    scheme = std::move(ldr_scheme);
  } else {
    std::fprintf(stderr, "ldrctl: unknown scheme %s\n",
                 o.scheme_name.c_str());
    return Usage();
  }

  WorkloadOptions wopts;
  wopts.num_instances = 1;
  wopts.locality = o.locality;
  wopts.target_utilization = o.load;
  wopts.seed = o.seed;
  std::fprintf(stderr, "synthesizing traffic (load %.2f, locality %.1f)...\n",
               o.load, o.locality);
  std::vector<Aggregate> aggs = MakeScaledWorkloads(t, &cache, wopts)[0];
  if (!o.class_weights.empty()) {
    size_t classes = o.class_weights.size();
    std::vector<double> shares(classes, 1.0 / static_cast<double>(classes));
    aggs = SplitByClass(aggs, shares);
  }

  RoutingOutcome out = scheme->Route(aggs);
  std::vector<double> apsp = AllPairsShortestDelay(t.graph);
  EvalResult eval = Evaluate(t.graph, aggs, out, apsp);
  std::printf("scheme:           %s\n", scheme->name().c_str());
  std::printf("aggregates:       %zu\n", aggs.size());
  std::printf("fits traffic:     %s\n", out.feasible ? "yes" : "NO");
  std::printf("congested pairs:  %.1f%%\n", eval.congested_fraction * 100);
  std::printf("total stretch:    %.4f\n", eval.total_stretch);
  std::printf("max stretch:      %.3f\n", eval.max_stretch);
  std::printf("busiest link:     %.1f%% utilized\n",
              MaxOf(eval.link_utilization) * 100);
  std::printf("solve time:       %.1f ms\n", out.solve_ms);

  // Top-5 multi-path aggregates, as a sample of the placement.
  std::printf("\nsample placements (largest split aggregates):\n");
  std::vector<std::pair<double, size_t>> split;
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (out.allocations[a].size() > 1) {
      split.emplace_back(aggs[a].demand_gbps, a);
    }
  }
  std::sort(split.rbegin(), split.rend());
  for (size_t i = 0; i < std::min<size_t>(5, split.size()); ++i) {
    size_t a = split[i].second;
    std::printf("  %s -> %s (%.2f Gbps, class %d)\n",
                t.graph.node_name(aggs[a].src).c_str(),
                t.graph.node_name(aggs[a].dst).c_str(), aggs[a].demand_gbps,
                aggs[a].traffic_class);
    for (const PathAllocation& pa : out.allocations[a]) {
      std::printf("    %5.1f%%  %.2f ms  %s\n", pa.fraction * 100,
                  out.store->DelayMs(pa.path),
                  out.store->ToString(pa.path).c_str());
    }
  }
  return 0;
}

int CmdCorpus() {
  for (const Topology& t : ZooCorpus()) {
    std::printf("%-18s %4zu nodes %5zu links\n", t.name.c_str(),
                t.graph.NodeCount(), t.graph.LinkCount() / 2);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "corpus") return argc == 2 ? CmdCorpus() : Usage();
  if (argc < 3) return Usage();
  // Options are checked before the topology is read, so a bad flag fails
  // fast whatever the file holds.
  std::optional<RouteOptions> route_opts;
  if (cmd == "route") {
    route_opts = ParseRouteOptions(argc - 3, argv + 3);
    if (!route_opts.has_value()) return Usage();
  } else if ((cmd != "llpd" && cmd != "dot") || argc != 3) {
    return Usage();
  }
  auto topology = LoadTopology(argv[2]);
  if (!topology.has_value()) return 1;
  if (cmd == "llpd") return CmdLlpd(*topology);
  if (cmd == "dot") {
    std::fputs(ToDot(*topology).c_str(), stdout);
    return 0;
  }
  return CmdRoute(*topology, *route_opts);
}
