// Greedy algorithm cΣ_A^G (Section V).
//
// Requests are processed in order of their earliest start t^s. Each
// iteration decides one request with every previous admission decision and
// schedule fixed, under the step objective (Eq. 21):
// max T·x_R(L[i]) + (T - t^-_{L[i]}) — embed the new request if at all
// possible, and then finish it as early as possible. Accepted requests have
// their windows pinned to the returned schedule (flexibility collapses to
// zero); link allocations are *not* fixed: as in the paper, a step may
// re-route every accepted request to make room for the new one.
//
// The paper notes that with all-but-one schedule fixed a step is
// polynomial. When every node mapping is fixed (serve, and the paper's own
// evaluation) the step is decided by a *breakpoint walk* rather than a MIP:
//
//  * Candidates. Walk the target's starts in increasing order: t^s, then
//    each pinned request's end in (t^s, t^e - d]. The first feasible one is
//    the Eq. 21 optimum (accept, finishing earliest); none feasible: reject.
//  * Why ends suffice. The target at t must fit, jointly with the pinned
//    requests, in every state (maximal set of co-active requests) that
//    [t, t+d) overlaps. Let t > t^s be feasible and not a pinned end, and
//    slide t left. A request joins the window's overlap only when t drops
//    below its end; between ends, the states newly covered on the left are
//    those at times in (t', t], and each of their requests (none ending
//    there) is still active just after t — so every new state is contained
//    in one the target already shared, and feasibility is kept. Hence t
//    slides to t^s or to a pinned end, and the earliest feasible start is
//    one of those. (A state bounded only by someone's start is dominated
//    by the next state, so starts and "start - d" add no candidate.)
//  * The check. Node loads are constants under fixed mappings, so node
//    capacity is checked directly on each maximal co-active set. For link
//    capacity the target is first routed alone, in what the caller's
//    stored (jointly feasible) flows leave free: success there already is
//    a joint embedding. Otherwise one lp::Simplex solve re-routes the
//    target's whole overlap component and decides, with capacity rows
//    only for maximal co-active sets. The first check passing implies the
//    second would, so the decision never depends on the stored flows. Per
//    request, the virtual links are grouped by mapped source host, or by
//    mapped sink host when that gives fewer groups (a star is one
//    commodity); each group is one bandwidth-unit flow column per
//    substrate link at cost 1, so the LP minimises bandwidth. The group
//    flow is split back into per-virtual-link paths by BFS over positive
//    arcs, which is exact for a single-source (single-sink) flow, and
//    fills RequestEmbedding::link_flow in the validator's format.
//
// A step with an unmapped request keeps the cΣ step MIP, the only path
// that chooses node mappings; the MIP also serves as the walk's test
// oracle. Both paths share the per-iteration time budget.
#pragma once

#include <vector>

#include "mip/branch_and_bound.hpp"
#include "net/instance.hpp"
#include "tvnep/solver.hpp"

namespace tvnep::greedy {

struct GreedyOptions {
  /// Wall-clock budget per iteration, walk or MIP (they normally finish
  /// far below).
  double per_iteration_time_limit = 10.0;
  /// Temporal dependency graph cuts in the per-iteration cΣ models.
  bool dependency_cuts = true;
  /// Step-MIP options; the walk's LPs use `mip.lp` and `mip.cancel`.
  mip::MipOptions mip;
};

struct GreedyResult {
  core::TvnepSolution solution;
  int accepted = 0;
  /// True when every iteration decided its step to optimality.
  bool complete = true;
  std::vector<double> iteration_seconds;
  double total_seconds = 0.0;

  double max_iteration_seconds() const;
};

/// Runs cΣ_A^G on the instance (requests keep their identity/order in the
/// returned solution).
GreedyResult solve_greedy(const net::TvnepInstance& instance,
                          const GreedyOptions& options = {});

/// Outcome of one insertion step (one iteration of the loop above).
struct GreedyStepResult {
  /// The step solve. MIP path: the raw solve. Walk: status kOptimal once
  /// decided (kTimeLimit when the budget ran out), the Eq. 21 objective,
  /// and the solution entries listed in `embedded`.
  core::TvnepSolveResult step;
  /// Accept or reject is settled: always for an optimal walk; for the MIP,
  /// whenever it returned an incumbent.
  bool decided = false;
  bool accepted = false;
  /// Target's schedule when accepted: the earliest feasible completion
  /// under the step objective (Eq. 21), start = end - duration.
  double start = 0.0;
  double end = 0.0;
  /// Requests whose entry in step.solution is a fresh joint embedding, in
  /// ascending order; empty unless accepted. MIP: every request. Walk: the
  /// target alone when the stored flows had room for it, else the target
  /// and the pinned requests of its overlap component. The rest keep their
  /// previous flows, which stay jointly feasible with the fresh ones.
  std::vector<int> embedded;
};

/// Solves one cΣ_A^G insertion step on `working` for `target`, with the
/// admissions in `force_accept` (pinned) / `force_reject` fixed: the
/// breakpoint walk when step_walk_applies(), else the cΣ step MIP. Shared
/// by the batch loop and the online admission engine (src/serve), so an
/// online insertion is the batch iteration by construction. `stored`,
/// indexed like `working`, may carry a jointly feasible embedding of the
/// forced accepts; the walk then tries to keep it (see the file comment).
GreedyStepResult solve_greedy_step(
    const net::TvnepInstance& working, int target,
    const std::vector<int>& force_accept, const std::vector<int>& force_reject,
    const GreedyOptions& options,
    const std::vector<core::RequestEmbedding>& stored = {});

/// Whether the walk can decide the step: every request has a fixed node
/// mapping, every forced accept is pinned (zero flexibility), and every
/// request other than the target is forced one way or the other.
bool step_walk_applies(const net::TvnepInstance& working, int target,
                       const std::vector<int>& force_accept,
                       const std::vector<int>& force_reject);

/// The cΣ step MIP with the greedy objective: the path for steps with
/// unmapped requests, and the walk's test oracle.
GreedyStepResult solve_greedy_step_mip(const net::TvnepInstance& working,
                                       int target,
                                       const std::vector<int>& force_accept,
                                       const std::vector<int>& force_reject,
                                       const GreedyOptions& options);

}  // namespace tvnep::greedy
