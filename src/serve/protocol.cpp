#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace tvnep::serve {

namespace {

[[noreturn]] void fail(const std::string& source, long line,
                       const std::string& message) {
  throw ParseError(source, line, 0, message);
}

double require_number(const JsonValue& obj, const std::string& key,
                      const std::string& source, long line) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number())
    fail(source, line, "missing or non-numeric field \"" + key + "\"");
  if (!std::isfinite(v->as_number()))
    fail(source, line, "field \"" + key + "\" must be finite");
  return v->as_number();
}

int require_index(const JsonValue& value, const std::string& what, int limit,
                  const std::string& source, long line) {
  const std::optional<int> x = json_int(value);
  if (!x || *x < 0 || *x >= limit) fail(source, line, what + " out of range");
  return *x;
}

RequestMessage parse_request(const JsonValue& obj, const std::string& source,
                             long line) {
  RequestMessage out;
  const JsonValue* id = obj.find("id");
  if (id == nullptr || !id->is_string() || id->as_string().empty())
    fail(source, line, "request needs a non-empty string \"id\"");
  out.id = id->as_string();

  const double t_s = require_number(obj, "t_s", source, line);
  const double t_e = require_number(obj, "t_e", source, line);
  const double d = require_number(obj, "d", source, line);
  // The request's own invariants (net::VnetRequest), checked here so a bad
  // line is a protocol error rather than an exception that ends the daemon.
  if (t_s < 0.0) fail(source, line, "t_s must be non-negative");
  if (d <= 0.0) fail(source, line, "duration must be positive");
  if (t_e - t_s < d || t_s + d > t_e + 1e-12)
    fail(source, line, "window [t_s, t_e] shorter than duration");

  const JsonValue* nodes = obj.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->as_array().empty())
    fail(source, line, "request needs a non-empty \"nodes\" demand array");
  net::VnetRequest request(out.id);
  for (const JsonValue& demand : nodes->as_array()) {
    if (!demand.is_number() || demand.as_number() < 0.0)
      fail(source, line, "node demands must be non-negative numbers");
    request.add_node(demand.as_number());
  }

  if (const JsonValue* links = obj.find("links")) {
    if (!links->is_array()) fail(source, line, "\"links\" must be an array");
    for (const JsonValue& link : links->as_array()) {
      if (!link.is_array() || link.as_array().size() != 3)
        fail(source, line, "each link must be [from, to, demand]");
      const auto& triple = link.as_array();
      for (const JsonValue& field : triple)
        if (!field.is_number()) fail(source, line, "link fields must be numbers");
      const int from = require_index(triple[0], "link endpoint",
                                     request.num_nodes(), source, line);
      const int to = require_index(triple[1], "link endpoint",
                                   request.num_nodes(), source, line);
      if (from == to) fail(source, line, "link endpoints must differ");
      if (triple[2].as_number() < 0.0)
        fail(source, line, "link demand must be non-negative");
      request.add_link(from, to, triple[2].as_number());
    }
  }

  request.set_temporal(t_s, t_e, d);
  out.request = std::move(request);

  if (const JsonValue* mapping = obj.find("mapping")) {
    if (!mapping->is_null()) {
      if (!mapping->is_array() ||
          mapping->as_array().size() !=
              static_cast<std::size_t>(out.request.num_nodes()))
        fail(source, line, "\"mapping\" must list one substrate node per "
                           "virtual node");
      std::vector<net::NodeId> nodes_out;
      for (const JsonValue& node : mapping->as_array()) {
        // The substrate size is unknown at parse time (the engine bounds
        // the ids on admission); here only reject what is not a
        // non-negative int.
        const std::optional<int> id = json_int(node);
        if (!id || *id < 0)
          fail(source, line, "mapping entries must be substrate node ids");
        nodes_out.push_back(*id);
      }
      out.mapping = std::move(nodes_out);
    }
  }
  return out;
}

}  // namespace

InMessage parse_message(const std::string& line, const std::string& source,
                        long line_number) {
  const JsonValue root = parse_json(line, source, line_number);
  if (!root.is_object()) fail(source, line_number, "message must be an object");
  const JsonValue* type = root.find("type");
  if (type == nullptr || !type->is_string())
    fail(source, line_number, "message needs a string \"type\"");

  InMessage out;
  const std::string& kind = type->as_string();
  if (kind == "request") {
    out.kind = MessageKind::kRequest;
    out.request = parse_request(root, source, line_number);
  } else if (kind == "stats") {
    out.kind = MessageKind::kStats;
  } else if (kind == "reopt") {
    out.kind = MessageKind::kReopt;
  } else if (kind == "drain") {
    out.kind = MessageKind::kDrain;
  } else {
    fail(source, line_number, "unknown message type \"" + kind + "\"");
  }
  return out;
}

std::string encode_request(const RequestMessage& message) {
  std::ostringstream os;
  os << "{\"type\":\"request\",\"id\":\"" << obs::json_escape(message.id)
     << "\",\"t_s\":" << json_exact_number(message.request.earliest_start())
     << ",\"t_e\":" << json_exact_number(message.request.latest_end())
     << ",\"d\":" << json_exact_number(message.request.duration())
     << ",\"nodes\":[";
  for (int v = 0; v < message.request.num_nodes(); ++v) {
    if (v > 0) os << ',';
    os << json_exact_number(message.request.node_demand(v));
  }
  os << "],\"links\":[";
  for (int e = 0; e < message.request.num_links(); ++e) {
    const net::VirtualLink& link = message.request.link(e);
    if (e > 0) os << ',';
    os << '[' << link.from << ',' << link.to << ','
       << json_exact_number(link.demand) << ']';
  }
  os << ']';
  if (message.mapping.has_value()) {
    os << ",\"mapping\":[";
    for (std::size_t v = 0; v < message.mapping->size(); ++v) {
      if (v > 0) os << ',';
      os << (*message.mapping)[v];
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

std::string encode_decision(const Decision& decision) {
  std::ostringstream os;
  os << "{\"type\":\"decision\",\"id\":\"" << obs::json_escape(decision.id)
     << "\",\"accepted\":" << (decision.accepted ? "true" : "false");
  if (decision.accepted) {
    os << ",\"start\":" << json_exact_number(decision.start)
       << ",\"end\":" << json_exact_number(decision.end);
  } else {
    os << ",\"reason\":\"" << obs::json_escape(decision.reason) << "\"";
  }
  os << ",\"mode\":\"" << obs::json_escape(decision.mode)
     << "\",\"latency_ms\":" << obs::json_number(decision.latency_ms) << '}';
  return os.str();
}

std::string encode_error(const std::string& message) {
  return "{\"type\":\"error\",\"message\":\"" + obs::json_escape(message) +
         "\"}";
}

std::string encode_bye(long decided) {
  return "{\"type\":\"bye\",\"decided\":" + std::to_string(decided) + "}";
}

std::string encode_stats(const std::string& fields) {
  std::string out = "{\"type\":\"stats\"";
  if (!fields.empty()) out += "," + fields;
  out += "}";
  return out;
}

}  // namespace tvnep::serve
