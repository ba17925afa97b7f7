#include "topology/graphml.h"

#include <cctype>
#include <map>

namespace ldr {

namespace {

// A tiny forward-only scanner over XML-ish text: finds elements by tag
// name, exposes attributes and inner <data> values. Sufficient for the
// GraphML subset the Topology Zoo uses.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  // Finds the next opening tag with this name at or after pos_; returns
  // false at end of input. On success, attrs/body are filled (body is empty
  // for self-closing tags) and pos_ advances past the element.
  bool Next(const std::string& tag, std::map<std::string, std::string>* attrs,
            std::string* body) {
    while (true) {
      size_t start = text_.find('<', pos_);
      if (start == std::string::npos) return false;
      size_t name_end = start + 1;
      while (name_end < text_.size() && !std::isspace(text_[name_end]) &&
             text_[name_end] != '>' && text_[name_end] != '/') {
        ++name_end;
      }
      std::string name = text_.substr(start + 1, name_end - start - 1);
      size_t tag_close = text_.find('>', start);
      if (tag_close == std::string::npos) return false;
      if (name != tag) {
        pos_ = start + 1;
        continue;
      }
      // Parse attributes in [name_end, tag_close).
      attrs->clear();
      ParseAttrs(text_.substr(name_end, tag_close - name_end), attrs);
      bool self_closing = text_[tag_close - 1] == '/';
      if (self_closing) {
        body->clear();
        pos_ = tag_close + 1;
        return true;
      }
      std::string close = "</" + tag + ">";
      size_t body_end = text_.find(close, tag_close + 1);
      if (body_end == std::string::npos) return false;
      *body = text_.substr(tag_close + 1, body_end - tag_close - 1);
      pos_ = body_end + close.size();
      return true;
    }
  }

  void Reset() { pos_ = 0; }

 private:
  static void ParseAttrs(const std::string& s,
                         std::map<std::string, std::string>* attrs) {
    size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && (std::isspace(s[i]) || s[i] == '/')) ++i;
      size_t eq = s.find('=', i);
      if (eq == std::string::npos) return;
      std::string key = s.substr(i, eq - i);
      // Trim.
      while (!key.empty() && std::isspace(key.back())) key.pop_back();
      size_t q1 = s.find_first_of("\"'", eq);
      if (q1 == std::string::npos) return;
      char quote = s[q1];
      size_t q2 = s.find(quote, q1 + 1);
      if (q2 == std::string::npos) return;
      (*attrs)[key] = s.substr(q1 + 1, q2 - q1 - 1);
      i = q2 + 1;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    if (s.compare(i, 4, "&lt;") == 0) {
      out.push_back('<');
      i += 3;
    } else if (s.compare(i, 4, "&gt;") == 0) {
      out.push_back('>');
      i += 3;
    } else if (s.compare(i, 5, "&amp;") == 0) {
      out.push_back('&');
      i += 4;
    } else if (s.compare(i, 6, "&quot;") == 0) {
      out.push_back('"');
      i += 5;
    } else if (s.compare(i, 6, "&apos;") == 0) {
      out.push_back('\'');
      i += 5;
    } else {
      out.push_back('&');
    }
  }
  return out;
}

// Extracts <data key="...">value</data> pairs from an element body.
std::map<std::string, std::string> DataValues(const std::string& body) {
  std::map<std::string, std::string> out;
  Scanner scan(body);
  std::map<std::string, std::string> attrs;
  std::string inner;
  while (scan.Next("data", &attrs, &inner)) {
    auto it = attrs.find("key");
    if (it != attrs.end()) out[it->second] = Unescape(inner);
  }
  return out;
}

}  // namespace

std::optional<GraphmlResult> ParseGraphml(const std::string& xml,
                                          const GraphmlOptions& opts,
                                          std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<GraphmlResult> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  GraphmlResult result;

  // Pass 1: key declarations -> attribute-name to key-id map.
  std::map<std::string, std::string> key_for;  // attr.name -> id
  {
    Scanner scan(xml);
    std::map<std::string, std::string> attrs;
    std::string body;
    while (scan.Next("key", &attrs, &body)) {
      auto name = attrs.find("attr.name");
      auto id = attrs.find("id");
      if (name != attrs.end() && id != attrs.end()) {
        key_for[name->second] = id->second;
      }
    }
  }
  auto key_of = [&](const char* attr_name) -> std::string {
    auto it = key_for.find(attr_name);
    return it == key_for.end() ? std::string() : it->second;
  };
  std::string k_lat = key_of("Latitude");
  std::string k_lon = key_of("Longitude");
  std::string k_label = key_of("label");
  std::string k_speed = key_of("LinkSpeedRaw");

  // Graph name.
  {
    Scanner scan(xml);
    std::map<std::string, std::string> attrs;
    std::string body;
    std::string k_net = key_of("Network");
    result.topology.name = "graphml";
    if (scan.Next("graph", &attrs, &body)) {
      if (!k_net.empty()) {
        auto data = DataValues(body);
        auto it = data.find(k_net);
        if (it != data.end() && !it->second.empty()) {
          result.topology.name = it->second;
        }
      }
    }
  }

  // Pass 2: nodes.
  std::map<std::string, NodeId> node_ids;
  {
    Scanner scan(xml);
    std::map<std::string, std::string> attrs;
    std::string body;
    while (scan.Next("node", &attrs, &body)) {
      auto id = attrs.find("id");
      if (id == attrs.end()) return fail("node without id");
      if (node_ids.count(id->second) != 0) {
        return fail("duplicate node id " + id->second);
      }
      auto data = DataValues(body);
      double lat = 0, lon = 0;
      bool has_coords = false;
      if (!k_lat.empty() && data.count(k_lat) != 0 && !k_lon.empty() &&
          data.count(k_lon) != 0) {
        lat = std::atof(data[k_lat].c_str());
        lon = std::atof(data[k_lon].c_str());
        has_coords = true;
      }
      if (!has_coords) ++result.nodes_without_coords;
      std::string name = id->second;
      if (!k_label.empty() && data.count(k_label) != 0 &&
          !data[k_label].empty()) {
        name = data[k_label];
      }
      // Node names must be unique; fall back to the id on collision.
      if (result.topology.graph.FindNode(name) != kInvalidNode) {
        name = name + "#" + id->second;
      }
      node_ids[id->second] = result.topology.AddPop(name, lat, lon);
    }
  }
  if (node_ids.empty()) return fail("no nodes");

  // Pass 3: edges.
  {
    Scanner scan(xml);
    std::map<std::string, std::string> attrs;
    std::string body;
    size_t edges = 0;
    while (scan.Next("edge", &attrs, &body)) {
      auto s = attrs.find("source");
      auto t = attrs.find("target");
      if (s == attrs.end() || t == attrs.end()) {
        return fail("edge without source/target");
      }
      auto si = node_ids.find(s->second);
      auto ti = node_ids.find(t->second);
      if (si == node_ids.end() || ti == node_ids.end()) {
        return fail("edge references unknown node");
      }
      if (si->second == ti->second) continue;  // self-loops are meaningless
      double cap = opts.default_capacity_gbps;
      auto data = DataValues(body);
      if (!k_speed.empty() && data.count(k_speed) != 0) {
        double raw = std::atof(data[k_speed].c_str());
        if (raw > 0) {
          cap = raw * 1e-9;  // LinkSpeedRaw is bits/s
        } else {
          ++result.edges_without_speed;
        }
      } else {
        ++result.edges_without_speed;
      }
      // Skip duplicate parallel edges (the Zoo has a few).
      if (!result.topology.graph.HasLink(si->second, ti->second)) {
        result.topology.AddCable(si->second, ti->second, cap);
        ++edges;
      }
    }
    if (edges == 0) return fail("no edges");
  }
  return result;
}

}  // namespace ldr
