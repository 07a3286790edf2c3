#include "net/substrate.hpp"

#include <deque>

#include "support/check.hpp"

namespace tvnep::net {

NodeId SubstrateNetwork::add_node(double capacity, std::string name) {
  TVNEP_REQUIRE(capacity >= 0.0, "node capacity must be non-negative");
  nodes_.push_back({capacity, std::move(name), {}, {}});
  return num_nodes() - 1;
}

LinkId SubstrateNetwork::add_link(NodeId from, NodeId to, double capacity) {
  TVNEP_REQUIRE(from >= 0 && from < num_nodes(), "link from-node unknown");
  TVNEP_REQUIRE(to >= 0 && to < num_nodes(), "link to-node unknown");
  TVNEP_REQUIRE(from != to, "self-loop links are not allowed");
  TVNEP_REQUIRE(capacity >= 0.0, "link capacity must be non-negative");
  const LinkId id = num_links();
  links_.push_back({from, to, capacity});
  nodes_[static_cast<std::size_t>(from)].out.push_back(id);
  nodes_[static_cast<std::size_t>(to)].in.push_back(id);
  return id;
}

double SubstrateNetwork::node_capacity(NodeId v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes(), "node_capacity: unknown node");
  return nodes_[static_cast<std::size_t>(v)].capacity;
}

const std::string& SubstrateNetwork::node_name(NodeId v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes(), "node_name: unknown node");
  return nodes_[static_cast<std::size_t>(v)].name;
}

const SubstrateLink& SubstrateNetwork::link(LinkId e) const {
  TVNEP_REQUIRE(e >= 0 && e < num_links(), "link: unknown link");
  return links_[static_cast<std::size_t>(e)];
}

const std::vector<LinkId>& SubstrateNetwork::out_links(NodeId v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes(), "out_links: unknown node");
  return nodes_[static_cast<std::size_t>(v)].out;
}

const std::vector<LinkId>& SubstrateNetwork::in_links(NodeId v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_nodes(), "in_links: unknown node");
  return nodes_[static_cast<std::size_t>(v)].in;
}

double SubstrateNetwork::resource_capacity(int r) const {
  TVNEP_REQUIRE(r >= 0 && r < num_resources(), "resource out of range");
  return resource_is_node(r) ? node_capacity(r)
                             : link(r - num_nodes()).capacity;
}

std::string SubstrateNetwork::resource_name(int r) const {
  TVNEP_REQUIRE(r >= 0 && r < num_resources(), "resource out of range");
  if (resource_is_node(r)) return "node:" + std::to_string(r);
  const auto& l = link(r - num_nodes());
  return "link:" + std::to_string(l.from) + "->" + std::to_string(l.to);
}

bool shortest_hop_path(const SubstrateNetwork& substrate, NodeId from,
                       NodeId to, bool reverse,
                       const std::function<bool(LinkId)>& usable,
                       std::vector<LinkId>* path) {
  path->clear();
  if (from == to) return true;
  std::vector<LinkId> via(static_cast<std::size_t>(substrate.num_nodes()), -1);
  std::vector<char> seen(static_cast<std::size_t>(substrate.num_nodes()), 0);
  std::deque<NodeId> frontier{from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!frontier.empty() && !seen[static_cast<std::size_t>(to)]) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (const LinkId e :
         reverse ? substrate.in_links(node) : substrate.out_links(node)) {
      const SubstrateLink& link = substrate.link(e);
      const NodeId next = reverse ? link.from : link.to;
      if (seen[static_cast<std::size_t>(next)] || !usable(e)) continue;
      seen[static_cast<std::size_t>(next)] = 1;
      via[static_cast<std::size_t>(next)] = e;
      frontier.push_back(next);
    }
  }
  if (!seen[static_cast<std::size_t>(to)]) return false;
  for (NodeId node = to; node != from;) {
    const LinkId e = via[static_cast<std::size_t>(node)];
    path->push_back(e);
    node = reverse ? substrate.link(e).to : substrate.link(e).from;
  }
  return true;
}

}  // namespace tvnep::net
