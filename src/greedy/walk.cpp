// The polynomial cΣ_A^G step (Section V): with every node mapping fixed and
// every other schedule pinned, a step only asks at which start the target
// fits first. greedy.hpp states the candidate lemma and the LPs; this file
// implements them, and solve_greedy_step, which takes the walk wherever
// it applies and the cΣ step MIP elsewhere.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "greedy/greedy.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::greedy {

namespace {

// Overlaps shorter than this are rounding slivers, not shared time (the
// validator treats them the same way).
constexpr double kTimeTol = 1e-9;
// Slack on node capacities, matching the simplex feasibility tolerance.
constexpr double kCapTol = 1e-7;
// Arcs carrying less flow than this are empty to the path split.
constexpr double kFlowTol = 1e-9;

/// A request of the step: the target, or a pinned member of the overlap
/// component of the target's window.
struct Member {
  int request = -1;  // index in the working instance
  double start = 0.0;
  double end = 0.0;
  std::vector<double> node_load;  // per substrate node; constant per request
  std::vector<double> stored_load;  // per substrate link, from stored flows
};

/// Virtual links of one member that share a mapped endpoint `host`: their
/// common source host, or their common sink host when `by_sink`. Routed as
/// one single-source (single-sink) flow in bandwidth units.
struct Commodity {
  int member = -1;
  net::NodeId host = -1;
  bool by_sink = false;
  std::vector<int> vlinks;
  double demand = 0.0;
};

using Bits = std::vector<std::uint64_t>;

bool subset_of(const Bits& a, const Bits& b) {
  for (std::size_t w = 0; w < a.size(); ++w)
    if ((a[w] & ~b[w]) != 0) return false;
  return true;
}

class StepWalk {
 public:
  StepWalk(const net::TvnepInstance& working, int target,
           const std::vector<int>& force_accept,
           const std::vector<core::RequestEmbedding>& stored)
      : working_(working),
        substrate_(working.substrate()),
        num_links_(substrate_.num_links()) {
    collect_members(target, force_accept);
    for (std::size_t m = 0; m < members_.size(); ++m)
      group_commodities(static_cast<int>(m));
    for (std::size_t c = 0; c < commodities_.size(); ++c) {
      all_coms_.push_back(c);
      if (commodities_[c].member == target_member_) target_coms_.push_back(c);
    }
    all_flows_ = flow_problem(all_coms_);
    have_stored_ = load_stored(stored);
    if (have_stored_) target_flows_ = flow_problem(target_coms_);
  }

  /// Candidate starts in increasing order: t^s, then every member's end
  /// in (t^s, t^e - d].
  std::vector<double> candidates() const {
    const net::VnetRequest& req = working_.request(target_request());
    std::vector<double> out{req.earliest_start()};
    for (const Member& m : members_) {
      if (m.request == target_request()) continue;
      if (m.end > req.earliest_start() + kTimeTol &&
          m.end <= req.latest_start() + kTimeTol)
        out.push_back(std::min(m.end, req.latest_start()));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end(),
                          [](double a, double b) { return b - a <= kTimeTol; }),
              out.end());
    return out;
  }

  /// Whether some member has a zero-demand virtual link between hosts
  /// that no substrate path joins (no start can fix that).
  bool unroutable() const { return unroutable_; }

  /// Checks the target at start `t`. Node capacity is a constant per
  /// co-active set. For link capacity, the target alone is first routed
  /// in what the stored flows leave free: success there is a joint
  /// embedding that keeps every stored flow. Only when that fails does
  /// one LP re-route the whole component, which decides.
  lp::SolveStatus try_start(double t, const lp::SimplexOptions& options,
                            long* pivots) {
    Member& target = members_[static_cast<std::size_t>(target_member_)];
    target.start = t;
    target.end = t + working_.request(target.request).duration();
    const std::vector<Bits> sets = maximal_coactive_sets();
    for (const Bits& set : sets)
      if (!nodes_fit(set)) return lp::SolveStatus::kInfeasible;

    if (have_stored_) {
      lp::Problem alone = target_flows_;
      add_residual_rows(sets, &alone);
      const lp::SolveStatus status = solve(&alone, options, pivots);
      only_target_ = status == lp::SolveStatus::kOptimal;
      if (only_target_ || status == lp::SolveStatus::kTimeLimit) return status;
    }
    only_target_ = false;
    lp::Problem problem = all_flows_;
    for (const Bits& set : sets) add_capacity_rows(set, &problem);
    return solve(&problem, options, pivots);
  }

  /// The embedding from the last feasible try_start(), written into
  /// `solution`: the target's alone when the stored flows sufficed, else
  /// every member's. Returns the re-embedded request indices.
  std::vector<int> embed(core::TvnepSolution* solution) const {
    std::vector<int> embedded;
    for (const Member& m : members_) {
      if (only_target_ && m.request != target_request()) continue;
      const net::VnetRequest& req = working_.request(m.request);
      core::RequestEmbedding& emb =
          solution->requests[static_cast<std::size_t>(m.request)];
      emb.accepted = true;
      emb.start = m.start;
      emb.end = m.end;
      emb.node_mapping = working_.fixed_mapping(m.request);
      emb.link_flow.assign(
          static_cast<std::size_t>(req.num_links() * num_links_), 0.0);
      embedded.push_back(m.request);
    }
    const std::vector<std::size_t>& coms = only_target_ ? target_coms_
                                                        : all_coms_;
    for (std::size_t i = 0; i < coms.size(); ++i)
      split(coms[i], &flows_[i * static_cast<std::size_t>(num_links_)],
            solution);
    for (const auto& [request, lv, path] : unit_paths_) {
      if (only_target_ && request != target_request()) continue;
      auto& flow = solution->requests[static_cast<std::size_t>(request)].link_flow;
      for (const net::LinkId e : path)
        flow[static_cast<std::size_t>(lv * num_links_ + e)] = 1.0;
    }
    return embedded;
  }

 private:
  int target_request() const {
    return members_[static_cast<std::size_t>(target_member_)].request;
  }

  /// The target plus the transitive closure, over interval overlap, of the
  /// pinned requests its window touches; working-instance order.
  void collect_members(int target, const std::vector<int>& force_accept) {
    const net::VnetRequest& req = working_.request(target);
    std::vector<Member> pinned;
    for (const int r : force_accept) {
      Member m;
      m.request = r;
      m.start = working_.request(r).earliest_start();
      m.end = working_.request(r).latest_end();
      pinned.push_back(std::move(m));
    }
    std::vector<char> in(pinned.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      if (pinned[i].start < req.latest_end() &&
          req.earliest_start() < pinned[i].end) {
        in[i] = 1;
        stack.push_back(i);
      }
    }
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      for (std::size_t j = 0; j < pinned.size(); ++j) {
        if (in[j] || !(pinned[j].start < pinned[i].end &&
                       pinned[i].start < pinned[j].end))
          continue;
        in[j] = 1;
        stack.push_back(j);
      }
    }
    Member t;
    t.request = target;
    pinned.push_back(std::move(t));
    in.push_back(1);
    for (std::size_t i = 0; i < pinned.size(); ++i)
      if (in[i]) members_.push_back(std::move(pinned[i]));
    std::sort(members_.begin(), members_.end(),
              [](const Member& a, const Member& b) {
                return a.request < b.request;
              });
    for (std::size_t m = 0; m < members_.size(); ++m) {
      Member& member = members_[m];
      if (member.request == target) target_member_ = static_cast<int>(m);
      const net::VnetRequest& r = working_.request(member.request);
      const std::vector<net::NodeId>& mapping =
          working_.fixed_mapping(member.request);
      member.node_load.assign(static_cast<std::size_t>(substrate_.num_nodes()),
                              0.0);
      for (int v = 0; v < r.num_nodes(); ++v)
        member.node_load[static_cast<std::size_t>(
            mapping[static_cast<std::size_t>(v)])] += r.node_demand(v);
    }
  }

  /// Groups a member's virtual links by mapped source host, or by mapped
  /// sink host when that gives fewer groups: a star is one commodity.
  /// Links whose ends share a host need no flow; zero-demand links take
  /// any path, since they consume nothing.
  void group_commodities(int member) {
    const int r = members_[static_cast<std::size_t>(member)].request;
    const net::VnetRequest& req = working_.request(r);
    const std::vector<net::NodeId>& mapping = working_.fixed_mapping(r);
    const auto host_of = [&](int v) {
      return mapping[static_cast<std::size_t>(v)];
    };
    std::vector<int> routed;
    std::vector<net::NodeId> sources, sinks;
    for (int lv = 0; lv < req.num_links(); ++lv) {
      const net::VirtualLink& link = req.link(lv);
      if (host_of(link.from) == host_of(link.to)) continue;
      if (link.demand <= 0.0) {
        std::vector<net::LinkId> path;
        if (!net::shortest_hop_path(substrate_, host_of(link.from),
                                    host_of(link.to), /*reverse=*/false,
                                    [](net::LinkId) { return true; }, &path))
          unroutable_ = true;
        unit_paths_.push_back({r, lv, std::move(path)});
        continue;
      }
      routed.push_back(lv);
      sources.push_back(host_of(link.from));
      sinks.push_back(host_of(link.to));
    }
    const auto distinct = [](std::vector<net::NodeId> hosts) {
      std::sort(hosts.begin(), hosts.end());
      return std::unique(hosts.begin(), hosts.end()) - hosts.begin();
    };
    const bool by_sink = distinct(sinks) < distinct(sources);
    const std::size_t first = commodities_.size();
    for (const int lv : routed) {
      const net::VirtualLink& link = req.link(lv);
      const net::NodeId host = by_sink ? host_of(link.to) : host_of(link.from);
      auto it = std::find_if(
          commodities_.begin() + static_cast<std::ptrdiff_t>(first),
          commodities_.end(),
          [&](const Commodity& c) { return c.host == host; });
      if (it == commodities_.end()) {
        Commodity c;
        c.member = member;
        c.host = host;
        c.by_sink = by_sink;
        commodities_.push_back(std::move(c));
        it = commodities_.end() - 1;
      }
      it->vlinks.push_back(lv);
      it->demand += link.demand;
    }
  }

  /// Column of substrate link `e` for the commodity at position `pos` of
  /// the LP's commodity list.
  int column(std::size_t pos, net::LinkId e) const {
    return static_cast<int>(pos) * num_links_ + e;
  }

  /// An LP over the commodities `coms`: one bandwidth-unit flow column per
  /// (commodity, substrate link) at cost 1, so the LP routes on as little
  /// bandwidth as it can, and each commodity's conservation rows, whose
  /// supplies come from its links. The host's own row is implied by the
  /// others and left out.
  lp::Problem flow_problem(const std::vector<std::size_t>& coms) const {
    lp::Problem problem;
    for (const std::size_t c : coms)
      for (net::LinkId e = 0; e < num_links_; ++e)
        problem.add_column(0.0, commodities_[c].demand, 1.0);
    std::vector<double> supply(static_cast<std::size_t>(substrate_.num_nodes()));
    std::vector<std::pair<int, double>> coeffs;
    for (std::size_t pos = 0; pos < coms.size(); ++pos) {
      const Commodity& com = commodities_[coms[pos]];
      const int r = members_[static_cast<std::size_t>(com.member)].request;
      const net::VnetRequest& req = working_.request(r);
      const std::vector<net::NodeId>& mapping = working_.fixed_mapping(r);
      std::fill(supply.begin(), supply.end(), 0.0);
      for (const int lv : com.vlinks) {
        const net::VirtualLink& link = req.link(lv);
        // Outflow minus inflow: +demand at the far source of a sink
        // group, -demand at the far sink of a source group.
        if (com.by_sink)
          supply[static_cast<std::size_t>(
              mapping[static_cast<std::size_t>(link.from)])] += link.demand;
        else
          supply[static_cast<std::size_t>(
              mapping[static_cast<std::size_t>(link.to)])] -= link.demand;
      }
      for (net::NodeId n = 0; n < substrate_.num_nodes(); ++n) {
        if (n == com.host) continue;
        coeffs.clear();
        for (const net::LinkId e : substrate_.out_links(n))
          coeffs.emplace_back(column(pos, e), 1.0);
        for (const net::LinkId e : substrate_.in_links(n))
          coeffs.emplace_back(column(pos, e), -1.0);
        const double b = supply[static_cast<std::size_t>(n)];
        problem.add_row(b, b, coeffs);
      }
    }
    return problem;
  }

  /// Takes each pinned member's link load from its stored embedding;
  /// false (no residual check) unless every one has a usable entry.
  bool load_stored(const std::vector<core::RequestEmbedding>& stored) {
    for (Member& m : members_) {
      if (m.request == target_request()) continue;
      const net::VnetRequest& req = working_.request(m.request);
      if (static_cast<std::size_t>(m.request) >= stored.size()) return false;
      const core::RequestEmbedding& emb =
          stored[static_cast<std::size_t>(m.request)];
      if (!emb.accepted || emb.link_flow.size() !=
                               static_cast<std::size_t>(req.num_links() *
                                                        num_links_))
        return false;
      m.stored_load.assign(static_cast<std::size_t>(num_links_), 0.0);
      for (int lv = 0; lv < req.num_links(); ++lv)
        for (net::LinkId e = 0; e < num_links_; ++e)
          m.stored_load[static_cast<std::size_t>(e)] +=
              req.link(lv).demand *
              emb.link_flow[static_cast<std::size_t>(lv * num_links_ + e)];
    }
    return true;
  }

  /// Solves `problem`, keeping its flows when optimal.
  lp::SolveStatus solve(lp::Problem* problem,
                        const lp::SimplexOptions& options, long* pivots) {
    problem->finalize();
    lp::Simplex simplex(*problem, options);
    const lp::SolveStatus status = simplex.solve();
    *pivots += simplex.total_pivots();
    if (status == lp::SolveStatus::kOptimal) flows_ = simplex.primal_solution();
    return status;
  }

  /// The member sets active together on some elementary interval of the
  /// current schedule, keeping only the maximal ones: a set contained in
  /// another adds no constraint, since flows are nonnegative.
  std::vector<Bits> maximal_coactive_sets() const {
    std::vector<double> times;
    for (const Member& m : members_) {
      times.push_back(m.start);
      times.push_back(m.end);
    }
    std::sort(times.begin(), times.end());
    const std::size_t words = (members_.size() + 63) / 64;
    std::vector<Bits> sets;
    for (std::size_t k = 0; k + 1 < times.size(); ++k) {
      if (times[k + 1] - times[k] <= kTimeTol) continue;
      const double mid = 0.5 * (times[k] + times[k + 1]);
      Bits set(words, 0);
      bool any = false;
      for (std::size_t m = 0; m < members_.size(); ++m) {
        if (members_[m].start < mid && mid < members_[m].end) {
          set[m / 64] |= std::uint64_t{1} << (m % 64);
          any = true;
        }
      }
      if (any) sets.push_back(std::move(set));
    }
    std::vector<Bits> maximal;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < sets.size() && !dominated; ++j) {
        if (i == j || !subset_of(sets[i], sets[j])) continue;
        // Of two equal sets keep the first.
        dominated = !subset_of(sets[j], sets[i]) || j < i;
      }
      if (!dominated) maximal.push_back(sets[i]);
    }
    return maximal;
  }

  static bool contains(const Bits& set, std::size_t m) {
    return (set[m / 64] >> (m % 64)) & 1U;
  }

  bool nodes_fit(const Bits& set) const {
    for (net::NodeId n = 0; n < substrate_.num_nodes(); ++n) {
      double load = 0.0;
      for (std::size_t m = 0; m < members_.size(); ++m)
        if (contains(set, m))
          load += members_[m].node_load[static_cast<std::size_t>(n)];
      if (load > substrate_.node_capacity(n) + kCapTol) return false;
    }
    return true;
  }

  /// Link capacity rows for one co-active set. A link whose capacity
  /// covers the set's whole demand cannot bind (columns are bounded by
  /// their commodity's demand) and gets no row.
  void add_capacity_rows(const Bits& set, lp::Problem* problem) const {
    double demand = 0.0;
    std::vector<std::size_t> in_set;
    for (std::size_t c = 0; c < commodities_.size(); ++c) {
      if (!contains(set, static_cast<std::size_t>(commodities_[c].member)))
        continue;
      in_set.push_back(c);
      demand += commodities_[c].demand;
    }
    std::vector<std::pair<int, double>> coeffs;
    for (net::LinkId e = 0; e < num_links_; ++e) {
      const double capacity = substrate_.link(e).capacity;
      if (demand <= capacity) continue;
      coeffs.clear();
      for (const std::size_t c : in_set) coeffs.emplace_back(column(c, e), 1.0);
      problem->add_row(-lp::kInfinity, capacity, coeffs);
    }
  }

  /// Capacity rows for the target alone: per link, the least capacity the
  /// stored flows leave in any co-active set the target belongs to.
  void add_residual_rows(const std::vector<Bits>& sets,
                         lp::Problem* problem) const {
    const auto target = static_cast<std::size_t>(target_member_);
    double demand = 0.0;
    for (const std::size_t c : target_coms_) demand += commodities_[c].demand;
    std::vector<double> residual(static_cast<std::size_t>(num_links_));
    for (net::LinkId e = 0; e < num_links_; ++e)
      residual[static_cast<std::size_t>(e)] = substrate_.link(e).capacity;
    for (const Bits& set : sets) {
      if (!contains(set, target)) continue;
      for (net::LinkId e = 0; e < num_links_; ++e) {
        double left = substrate_.link(e).capacity;
        for (std::size_t m = 0; m < members_.size(); ++m)
          if (m != target && contains(set, m))
            left -= members_[m].stored_load[static_cast<std::size_t>(e)];
        residual[static_cast<std::size_t>(e)] =
            std::min(residual[static_cast<std::size_t>(e)], left);
      }
    }
    std::vector<std::pair<int, double>> coeffs;
    for (net::LinkId e = 0; e < num_links_; ++e) {
      const double left = residual[static_cast<std::size_t>(e)];
      if (demand <= left) continue;
      coeffs.clear();
      for (std::size_t pos = 0; pos < target_coms_.size(); ++pos)
        coeffs.emplace_back(column(pos, e), 1.0);
      problem->add_row(-lp::kInfinity, std::max(left, 0.0), coeffs);
    }
  }

  /// Splits a commodity's flow into per-virtual-link paths: BFS from the
  /// shared host over arcs with flow left, toward each link's far host,
  /// peeling the bottleneck off each path. A single-source (single-sink)
  /// flow always decomposes this way, so the split is exact.
  void split(std::size_t c, const double* flow,
             core::TvnepSolution* solution) const {
    const Commodity& com = commodities_[c];
    const int r = members_[static_cast<std::size_t>(com.member)].request;
    const net::VnetRequest& req = working_.request(r);
    const std::vector<net::NodeId>& mapping = working_.fixed_mapping(r);
    std::vector<double>& link_flow =
        solution->requests[static_cast<std::size_t>(r)].link_flow;
    std::vector<double> left(static_cast<std::size_t>(num_links_));
    for (net::LinkId e = 0; e < num_links_; ++e)
      left[static_cast<std::size_t>(e)] = std::max(0.0, flow[e]);
    std::vector<net::LinkId> path;
    for (const int lv : com.vlinks) {
      const net::VirtualLink& link = req.link(lv);
      const net::NodeId far = mapping[static_cast<std::size_t>(
          com.by_sink ? link.from : link.to)];
      double need = link.demand;
      while (need > kFlowTol &&
             net::shortest_hop_path(
                 substrate_, com.host, far, com.by_sink,
                 [&](net::LinkId e) {
                   return left[static_cast<std::size_t>(e)] > kFlowTol;
                 },
                 &path)) {
        double push = need;
        for (const net::LinkId e : path)
          push = std::min(push, left[static_cast<std::size_t>(e)]);
        for (const net::LinkId e : path) {
          left[static_cast<std::size_t>(e)] -= push;
          link_flow[static_cast<std::size_t>(lv * num_links_ + e)] +=
              push / link.demand;
        }
        need -= push;
      }
    }
  }

  const net::TvnepInstance& working_;
  const net::SubstrateNetwork& substrate_;
  const int num_links_;
  std::vector<Member> members_;
  int target_member_ = -1;
  std::vector<Commodity> commodities_;
  struct UnitPath {
    int request;
    int vlink;
    std::vector<net::LinkId> path;
  };
  std::vector<UnitPath> unit_paths_;
  bool unroutable_ = false;
  // Every commodity in order, so in all_flows_ a commodity's position is
  // its index; and the target's alone, for target_flows_.
  std::vector<std::size_t> all_coms_;
  std::vector<std::size_t> target_coms_;
  lp::Problem all_flows_;
  lp::Problem target_flows_;
  bool have_stored_ = false;
  bool only_target_ = false;  // the last feasible LP routed the target alone
  std::vector<double> flows_;
};

/// The breakpoint walk over the candidates; requires step_walk_applies().
GreedyStepResult walk_step(const net::TvnepInstance& working, int target,
                           const std::vector<int>& force_accept,
                           const GreedyOptions& options,
                           const std::vector<core::RequestEmbedding>& stored) {
  const Deadline deadline(options.per_iteration_time_limit);
  GreedyStepResult result;
  core::TvnepSolveResult& step = result.step;
  step.solution.requests.resize(static_cast<std::size_t>(working.num_requests()));

  StepWalk walk(working, target, force_accept, stored);
  lp::SimplexOptions lp_options = options.mip.lp;
  if (lp_options.cancel == nullptr) lp_options.cancel = options.mip.cancel;
  step.status = mip::MipStatus::kOptimal;
  if (!walk.unroutable()) {
    for (const double t : walk.candidates()) {
      if (deadline.expired()) {
        step.status = mip::MipStatus::kTimeLimit;
        break;
      }
      // Simplex reads a non-positive limit as "unlimited".
      lp_options.time_limit_seconds =
          deadline.unlimited() ? 0.0 : std::max(deadline.remaining(), 1e-6);
      obs::counter_add("greedy.walk.candidates");
      const lp::SolveStatus status = walk.try_start(t, lp_options,
                                                    &step.lp_pivots);
      if (status == lp::SolveStatus::kInfeasible) continue;
      if (status == lp::SolveStatus::kOptimal) {
        result.accepted = true;
        result.start = t;
        result.end = t + working.request(target).duration();
        result.embedded = walk.embed(&step.solution);
      } else {
        step.status = status == lp::SolveStatus::kTimeLimit
                          ? mip::MipStatus::kTimeLimit
                          : mip::MipStatus::kNumericalFailure;
      }
      break;
    }
  }
  result.decided = step.status == mip::MipStatus::kOptimal;
  if (result.decided) {
    // Eq. 21 at the decision: T·x + (T - t^-), the step MIP's objective.
    const net::VnetRequest& req = working.request(target);
    const double horizon = working.horizon();
    step.objective = result.accepted
                         ? 2.0 * horizon - result.end
                         : horizon - (req.earliest_start() + req.duration());
    step.best_bound = step.objective;
    step.gap = 0.0;
    step.has_solution = result.accepted;
    step.accepted_requests = static_cast<int>(result.embedded.size());
  }
  step.seconds = deadline.elapsed();
  return result;
}

}  // namespace

bool step_walk_applies(const net::TvnepInstance& working, int target,
                       const std::vector<int>& force_accept,
                       const std::vector<int>& force_reject) {
  std::vector<char> decided(static_cast<std::size_t>(working.num_requests()),
                            0);
  for (const int r : force_accept) {
    if (working.request(r).flexibility() > kTimeTol) return false;
    decided[static_cast<std::size_t>(r)] = 1;
  }
  for (const int r : force_reject) decided[static_cast<std::size_t>(r)] = 1;
  decided[static_cast<std::size_t>(target)] = 1;
  for (int r = 0; r < working.num_requests(); ++r)
    if (!decided[static_cast<std::size_t>(r)] || !working.has_fixed_mapping(r))
      return false;
  return true;
}

GreedyStepResult solve_greedy_step(
    const net::TvnepInstance& working, int target,
    const std::vector<int>& force_accept, const std::vector<int>& force_reject,
    const GreedyOptions& options,
    const std::vector<core::RequestEmbedding>& stored) {
  if (step_walk_applies(working, target, force_accept, force_reject))
    return walk_step(working, target, force_accept, options, stored);
  return solve_greedy_step_mip(working, target, force_accept, force_reject,
                               options);
}

}  // namespace tvnep::greedy
