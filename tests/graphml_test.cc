#include <gtest/gtest.h>

#include "graph/path_store.h"
#include "graph/shortest_path.h"
#include "topology/graphml.h"

namespace ldr {
namespace {

// A minimal but realistic Topology Zoo style document.
constexpr const char* kZooSample = R"(<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="Network" attr.type="string" for="graph" id="d0" />
  <key attr.name="Latitude" attr.type="double" for="node" id="d29" />
  <key attr.name="Longitude" attr.type="double" for="node" id="d32" />
  <key attr.name="label" attr.type="string" for="node" id="d33" />
  <key attr.name="LinkSpeedRaw" attr.type="double" for="edge" id="d38" />
  <graph edgedefault="undirected">
    <data key="d0">SampleNet</data>
    <node id="0">
      <data key="d29">51.5</data>
      <data key="d32">-0.12</data>
      <data key="d33">London</data>
    </node>
    <node id="1">
      <data key="d29">48.85</data>
      <data key="d32">2.35</data>
      <data key="d33">Paris</data>
    </node>
    <node id="2">
      <data key="d29">52.37</data>
      <data key="d32">4.9</data>
      <data key="d33">Amsterdam</data>
    </node>
    <edge source="0" target="1">
      <data key="d38">10000000000.0</data>
    </edge>
    <edge source="1" target="2">
      <data key="d38">40000000000.0</data>
    </edge>
    <edge source="0" target="2" />
  </graph>
</graphml>
)";

TEST(Graphml, ParsesZooSample) {
  std::string error;
  auto r = ParseGraphml(kZooSample, {}, &error);
  ASSERT_TRUE(r.has_value()) << error;
  const Topology& t = r->topology;
  EXPECT_EQ(t.name, "SampleNet");
  EXPECT_EQ(t.graph.NodeCount(), 3u);
  EXPECT_EQ(t.graph.LinkCount(), 6u);  // 3 undirected cables
  EXPECT_NE(t.graph.FindNode("London"), kInvalidNode);
  EXPECT_NE(t.graph.FindNode("Paris"), kInvalidNode);
  EXPECT_EQ(r->nodes_without_coords, 0u);
  EXPECT_EQ(r->edges_without_speed, 1u);  // the speedless London-Amsterdam
}

TEST(Graphml, SpeedsAreScaledToGbps) {
  auto r = ParseGraphml(kZooSample);
  ASSERT_TRUE(r.has_value());
  const Graph& g = r->topology.graph;
  NodeId lon = g.FindNode("London"), par = g.FindNode("Paris");
  bool found = false;
  for (const Link& l : g.links()) {
    if (l.src == lon && l.dst == par) {
      EXPECT_DOUBLE_EQ(l.capacity_gbps, 10.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Graphml, DefaultCapacityForSpeedlessEdges) {
  GraphmlOptions opts;
  opts.default_capacity_gbps = 7;
  auto r = ParseGraphml(kZooSample, opts);
  ASSERT_TRUE(r.has_value());
  const Graph& g = r->topology.graph;
  NodeId lon = g.FindNode("London"), ams = g.FindNode("Amsterdam");
  for (const Link& l : g.links()) {
    if (l.src == lon && l.dst == ams) {
      EXPECT_DOUBLE_EQ(l.capacity_gbps, 7.0);
    }
  }
}

TEST(Graphml, DelaysComeFromCoordinates) {
  auto r = ParseGraphml(kZooSample);
  ASSERT_TRUE(r.has_value());
  const Graph& g = r->topology.graph;
  NodeId lon = g.FindNode("London"), par = g.FindNode("Paris");
  auto sp = ShortestPath(g, lon, par);
  ASSERT_TRUE(sp.has_value());
  PathStore store(&g);
  EXPECT_NEAR(store.DelayMs(store.Intern(*sp)), 344.0 / 200.0,
              0.1);  // ~344 km at 200 km/ms
}

TEST(Graphml, ParsedTopologyIsRoutable) {
  auto r = ParseGraphml(kZooSample);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(IsStronglyConnected(r->topology.graph));
}

TEST(Graphml, MissingCoordinatesCounted) {
  std::string xml = R"(<graphml>
    <key attr.name="Latitude" for="node" id="dA" />
    <key attr.name="Longitude" for="node" id="dB" />
    <graph>
      <node id="n0"><data key="dA">1</data><data key="dB">2</data></node>
      <node id="n1" />
      <edge source="n0" target="n1" />
    </graph></graphml>)";
  auto r = ParseGraphml(xml);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->nodes_without_coords, 1u);
}

TEST(Graphml, ErrorsAreReported) {
  std::string error;
  EXPECT_FALSE(ParseGraphml("<graphml></graphml>", {}, &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      ParseGraphml("<graphml><graph><node id=\"a\"/>"
                   "<edge source=\"a\" target=\"zzz\"/></graph></graphml>",
                   {}, &error)
          .has_value());
  // Duplicate ids.
  EXPECT_FALSE(
      ParseGraphml("<graphml><graph><node id=\"a\"/><node id=\"a\"/>"
                   "<edge source=\"a\" target=\"a\"/></graph></graphml>",
                   {}, &error)
          .has_value());
}

TEST(Graphml, DuplicateLabelsDisambiguated) {
  std::string xml = R"(<graphml>
    <key attr.name="label" for="node" id="dL" />
    <graph>
      <node id="n0"><data key="dL">Springfield</data></node>
      <node id="n1"><data key="dL">Springfield</data></node>
      <edge source="n0" target="n1" />
    </graph></graphml>)";
  auto r = ParseGraphml(xml);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->topology.graph.NodeCount(), 2u);
  EXPECT_NE(r->topology.graph.node_name(0), r->topology.graph.node_name(1));
}

TEST(Graphml, ParallelEdgesDeduplicated) {
  std::string xml = R"(<graphml><graph>
      <node id="a"/><node id="b"/>
      <edge source="a" target="b"/>
      <edge source="a" target="b"/>
    </graph></graphml>)";
  auto r = ParseGraphml(xml);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->topology.graph.LinkCount(), 2u);  // one cable
}

TEST(Graphml, EntityUnescaping) {
  std::string xml = R"(<graphml>
    <key attr.name="label" for="node" id="dL" />
    <graph>
      <node id="n0"><data key="dL">A&amp;B</data></node>
      <node id="n1"/>
      <edge source="n0" target="n1"/>
    </graph></graphml>)";
  auto r = ParseGraphml(xml);
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->topology.graph.FindNode("A&B"), kInvalidNode);
}

}  // namespace
}  // namespace ldr
