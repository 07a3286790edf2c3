#include "serve/fastpath.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tvnep::serve {

namespace {

constexpr double kCapTol = 1e-9;

/// Minimum residual capacity per substrate resource over [start, end):
/// capacity minus the worst-case load across the event subintervals the
/// active commits induce inside the window. Our own additions are constant
/// over the window, so feasibility checks can subtract scalars from these
/// minima exactly.
struct Residuals {
  std::vector<double> node;  // per substrate node
  std::vector<double> link;  // per substrate link
};

Residuals window_residuals(const net::SubstrateNetwork& substrate,
                           const std::vector<Commit>& active, double start,
                           double end) {
  Residuals out;
  out.node.resize(static_cast<std::size_t>(substrate.num_nodes()));
  out.link.resize(static_cast<std::size_t>(substrate.num_links()));
  for (int v = 0; v < substrate.num_nodes(); ++v)
    out.node[static_cast<std::size_t>(v)] = substrate.node_capacity(v);
  for (int e = 0; e < substrate.num_links(); ++e)
    out.link[static_cast<std::size_t>(e)] = substrate.link(e).capacity;

  // Event points strictly inside the window partition it into intervals of
  // constant load.
  std::vector<double> events = {start};
  for (const Commit& c : active) {
    if (c.start > start && c.start < end) events.push_back(c.start);
    if (c.end > start && c.end < end) events.push_back(c.end);
  }
  std::sort(events.begin(), events.end());

  const int num_links = substrate.num_links();
  std::vector<double> node_load(out.node.size());
  std::vector<double> link_load(out.link.size());
  for (double t : events) {
    std::fill(node_load.begin(), node_load.end(), 0.0);
    std::fill(link_load.begin(), link_load.end(), 0.0);
    for (const Commit& c : active) {
      if (!(c.start <= t && t < c.end)) continue;
      const auto& emb = c.embedding;
      for (int v = 0; v < c.original.num_nodes(); ++v) {
        const int host = emb.node_mapping.empty()
                             ? (c.mapping.has_value() ? (*c.mapping)[v] : -1)
                             : emb.node_mapping[static_cast<std::size_t>(v)];
        if (host >= 0)
          node_load[static_cast<std::size_t>(host)] += c.original.node_demand(v);
      }
      for (int vl = 0; vl < c.original.num_links(); ++vl) {
        const double demand = c.original.link(vl).demand;
        const std::size_t base = static_cast<std::size_t>(vl * num_links);
        for (int e = 0; e < num_links; ++e) {
          const std::size_t idx = base + static_cast<std::size_t>(e);
          if (idx < emb.link_flow.size() && emb.link_flow[idx] > 0.0)
            link_load[static_cast<std::size_t>(e)] +=
                demand * emb.link_flow[idx];
        }
      }
    }
    for (std::size_t v = 0; v < out.node.size(); ++v)
      out.node[v] = std::min(out.node[v],
                             substrate.node_capacity(static_cast<int>(v)) -
                                 node_load[v]);
    for (std::size_t e = 0; e < out.link.size(); ++e)
      out.link[e] = std::min(
          out.link[e],
          substrate.link(static_cast<int>(e)).capacity - link_load[e]);
  }
  return out;
}

/// Greedy placement when no a-priori mapping was supplied: biggest demand
/// first onto the node with the most residual headroom. Multiple virtual
/// nodes may share a substrate node (the formulations allow it); residuals
/// are drawn down as nodes are placed.
bool place_nodes(const net::VnetRequest& request, Residuals* residuals,
                 std::vector<int>* mapping_out) {
  std::vector<int> order(static_cast<std::size_t>(request.num_nodes()));
  for (std::size_t v = 0; v < order.size(); ++v)
    order[v] = static_cast<int>(v);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return request.node_demand(a) > request.node_demand(b);
  });
  mapping_out->assign(static_cast<std::size_t>(request.num_nodes()), -1);
  for (int v : order) {
    int best = -1;
    double best_residual = -std::numeric_limits<double>::infinity();
    for (std::size_t host = 0; host < residuals->node.size(); ++host) {
      if (residuals->node[host] > best_residual) {
        best_residual = residuals->node[host];
        best = static_cast<int>(host);
      }
    }
    if (best < 0 || best_residual + kCapTol < request.node_demand(v))
      return false;
    residuals->node[static_cast<std::size_t>(best)] -= request.node_demand(v);
    (*mapping_out)[static_cast<std::size_t>(v)] = best;
  }
  return true;
}

/// BFS shortest-hop path from `from` to `to` over links with residual
/// capacity for `demand`; draws the demand down along the path and marks
/// the unit flows. Returns false when no such path exists.
bool route_link(const net::SubstrateNetwork& substrate, int from, int to,
                double demand, Residuals* residuals,
                std::vector<double>* flow) {
  if (from == to || demand <= 0.0) return true;  // co-located or zero demand
  std::vector<net::LinkId> path;
  if (!net::shortest_hop_path(
          substrate, from, to, /*reverse=*/false,
          [&](net::LinkId e) {
            return residuals->link[static_cast<std::size_t>(e)] + kCapTol >=
                   demand;
          },
          &path))
    return false;
  for (const net::LinkId e : path) {
    residuals->link[static_cast<std::size_t>(e)] -= demand;
    (*flow)[static_cast<std::size_t>(e)] = 1.0;
  }
  return true;
}

bool try_start(const net::SubstrateNetwork& substrate,
               const std::vector<Commit>& active,
               const net::VnetRequest& request,
               const std::optional<std::vector<net::NodeId>>& mapping,
               double start, FastpathResult* out) {
  const double end = start + request.duration();
  Residuals residuals = window_residuals(substrate, active, start, end);

  std::vector<int> placed;
  if (mapping.has_value()) {
    placed.assign(mapping->begin(), mapping->end());
    for (int v = 0; v < request.num_nodes(); ++v) {
      auto& residual = residuals.node[static_cast<std::size_t>(placed[v])];
      if (residual + kCapTol < request.node_demand(v)) return false;
      residual -= request.node_demand(v);
    }
  } else if (!place_nodes(request, &residuals, &placed)) {
    return false;
  }

  const int num_links = substrate.num_links();
  std::vector<double> flow(
      static_cast<std::size_t>(request.num_links() * num_links), 0.0);
  for (int vl = 0; vl < request.num_links(); ++vl) {
    const net::VirtualLink& link = request.link(vl);
    std::vector<double> path_flow(static_cast<std::size_t>(num_links), 0.0);
    if (!route_link(substrate, placed[static_cast<std::size_t>(link.from)],
                    placed[static_cast<std::size_t>(link.to)], link.demand,
                    &residuals, &path_flow))
      return false;
    std::copy(path_flow.begin(), path_flow.end(),
              flow.begin() + static_cast<std::size_t>(vl * num_links));
  }

  out->accepted = true;
  out->start = start;
  out->end = end;
  out->embedding.accepted = true;
  out->embedding.start = start;
  out->embedding.end = end;
  out->embedding.node_mapping = std::move(placed);
  out->embedding.link_flow = std::move(flow);
  return true;
}

}  // namespace

FastpathResult fastpath_route(
    const net::SubstrateNetwork& substrate, const std::vector<Commit>& active,
    const net::VnetRequest& request,
    const std::optional<std::vector<net::NodeId>>& mapping) {
  FastpathResult result;
  const double latest_start = request.latest_start();
  std::vector<double> candidates = {request.earliest_start()};
  for (const Commit& c : active)
    if (c.end > request.earliest_start() && c.end <= latest_start)
      candidates.push_back(c.end);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (double start : candidates)
    if (try_start(substrate, active, request, mapping, start, &result))
      return result;
  return result;
}

}  // namespace tvnep::serve
