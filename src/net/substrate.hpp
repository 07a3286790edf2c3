// Substrate (physical) network: a directed graph with node and link
// capacities (Table I of the paper).
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace tvnep::net {

using NodeId = int;
using LinkId = int;

/// Directed substrate link with bandwidth capacity.
struct SubstrateLink {
  NodeId from = -1;
  NodeId to = -1;
  double capacity = 0.0;
};

class SubstrateNetwork {
 public:
  /// Adds a node with the given capacity (CPU/memory aggregate); returns id.
  NodeId add_node(double capacity, std::string name = {});

  /// Adds a directed link; both endpoints must exist. Returns the link id.
  LinkId add_link(NodeId from, NodeId to, double capacity);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }

  double node_capacity(NodeId v) const;
  const std::string& node_name(NodeId v) const;
  const SubstrateLink& link(LinkId e) const;

  /// Ids of links leaving / entering node v (δ+ / δ- in the paper).
  const std::vector<LinkId>& out_links(NodeId v) const;
  const std::vector<LinkId>& in_links(NodeId v) const;

  /// Total number of resources (nodes + links); resource r < num_nodes()
  /// is a node, otherwise link r - num_nodes(). Used by the formulations
  /// to iterate uniformly over V_S ∪ E_S.
  int num_resources() const { return num_nodes() + num_links(); }
  bool resource_is_node(int r) const { return r < num_nodes(); }
  double resource_capacity(int r) const;
  std::string resource_name(int r) const;

 private:
  struct NodeData {
    double capacity;
    std::string name;
    std::vector<LinkId> out;
    std::vector<LinkId> in;
  };
  std::vector<NodeData> nodes_;
  std::vector<SubstrateLink> links_;
};

/// Shortest-hop path from `from` to `to` over the links `usable` admits,
/// by BFS in link order. With `reverse` the search follows links
/// backwards, so the path found runs from `to` to `from`. Writes the link
/// ids (empty when from == to) and returns false when `to` is unreachable.
bool shortest_hop_path(const SubstrateNetwork& substrate, NodeId from,
                       NodeId to, bool reverse,
                       const std::function<bool(LinkId)>& usable,
                       std::vector<LinkId>* path);

}  // namespace tvnep::net
