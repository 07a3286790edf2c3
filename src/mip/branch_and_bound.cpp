#include "mip/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/tree_log.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::mip {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

const char* to_string(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kUnbounded: return "unbounded";
    case MipStatus::kTimeLimit: return "time-limit";
    case MipStatus::kNodeLimit: return "node-limit";
    case MipStatus::kNumericalLimit: return "numerical-limit";
    case MipStatus::kNumericalFailure: return "numerical-failure";
  }
  return "unknown";
}

double MipResult::gap() const {
  if (!has_solution) return kInf;
  // An aborted solve can report a -inf proven bound (root still open or
  // dropped); the gap is then unknown, not NaN.
  if (!std::isfinite(best_bound)) return kInf;
  const double diff = std::fabs(objective - best_bound);
  if (diff <= 1e-9) return 0.0;
  // Normalize by the larger of the two magnitudes: dividing by |objective|
  // alone explodes when the incumbent is ~0 (e.g. every request rejected
  // under the acceptance objective) even though the bound is informative.
  const double denom =
      std::max({std::fabs(objective), std::fabs(best_bound), 1e-9});
  return diff / denom;
}

namespace {

// Row/bound/integrality check against an already-lowered problem (avoids
// re-running Model::to_lp on every incumbent candidate).
bool check_feasible(const Model& model, const lp::Problem& problem,
                    const std::vector<double>& values, double tol) {
  if (values.size() != static_cast<std::size_t>(model.num_vars())) return false;
  for (int j = 0; j < model.num_vars(); ++j) {
    const Var v{j};
    const double x = values[static_cast<std::size_t>(j)];
    if (x < model.var_lower(v) - tol || x > model.var_upper(v) + tol)
      return false;
    if (model.var_type(v) != VarType::kContinuous &&
        std::fabs(x - std::round(x)) > tol)
      return false;
  }
  const auto& matrix = problem.matrix();
  for (int i = 0; i < problem.num_rows(); ++i) {
    double activity = 0.0;
    double scale = 1.0;
    for (const auto& entry : matrix.row(i)) {
      activity += entry.value * values[static_cast<std::size_t>(entry.index)];
      scale = std::max(scale, std::fabs(entry.value));
    }
    const auto& row = problem.row(i);
    // Scale the tolerance by the row magnitude so big-M rows do not
    // spuriously fail.
    if (activity < row.lower - tol * scale ||
        activity > row.upper + tol * scale)
      return false;
  }
  return true;
}

struct Node {
  // Bound changes relative to the root problem, accumulated along the path.
  std::vector<std::tuple<int, double, double>> bounds;
  double parent_bound = -kInf;  // LP bound of the parent (minimize space)
  int depth = 0;
  long id = 0;
  // Pseudocost bookkeeping: which branch created this node.
  int branch_var = -1;
  bool branch_up = false;
  double branch_frac = 0.0;
  // Times this node has been re-enqueued after its LP failed beyond the
  // in-LP recovery ladder; at most one requeue before the node is dropped.
  int numerical_retries = 0;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.parent_bound != b.parent_bound) return a.parent_bound > b.parent_bound;
    if (a.depth != b.depth) return a.depth < b.depth;  // deeper first → dive
    return a.id < b.id;
  }
};

struct Pseudocost {
  double up_sum = 0.0;
  long up_count = 0;
  double down_sum = 0.0;
  long down_count = 0;

  double up_estimate(double fallback) const {
    return up_count > 0 ? up_sum / static_cast<double>(up_count) : fallback;
  }
  double down_estimate(double fallback) const {
    return down_count > 0 ? down_sum / static_cast<double>(down_count)
                          : fallback;
  }
};

}  // namespace

bool MipSolver::is_feasible(const Model& model,
                            const std::vector<double>& values, double tol) {
  std::vector<bool> is_int;
  const lp::Problem problem = model.to_lp(&is_int);
  return check_feasible(model, problem, values, tol);
}

MipResult MipSolver::solve(
    const Model& model,
    const std::optional<std::vector<double>>& initial_solution) {
  if (!options_.presolve)
    return solve_tree(model, initial_solution, options_.time_limit_seconds);

  Stopwatch watch;
  const presolve::PresolveResult pre =
      presolve::run(model, options_.presolve_options);
  auto attach_telemetry = [&](MipResult& result) {
    result.presolve_rows_removed = pre.stats.rows_removed;
    result.presolve_cols_removed = pre.stats.cols_removed;
    result.presolve_coeffs_tightened = pre.stats.coeffs_tightened;
    result.presolve_bounds_tightened = pre.stats.bounds_tightened;
    result.presolve_infeasible = pre.stats.infeasible;
    result.presolve_seconds = pre.stats.seconds;
  };

  if (pre.stats.infeasible) {
    MipResult result;
    result.status = MipStatus::kInfeasible;
    result.seconds = watch.seconds();
    attach_telemetry(result);
    return result;
  }

  // Translate the caller's warm start into reduced space. Conflicts with
  // presolve fixings simply drop the fixed entries; the incumbent check
  // inside the tree re-validates feasibility either way.
  std::optional<std::vector<double>> warm;
  if (initial_solution) warm = pre.postsolve.reduce(*initial_solution);

  if (pre.reduced.num_vars() == 0) {
    // Presolve fixed everything; the restored point is the only candidate
    // (presolve removed each row only once satisfied for all remaining
    // points, so it is feasible up to tolerances — re-checked here).
    MipResult result;
    result.seconds = watch.seconds();
    attach_telemetry(result);
    const std::vector<double> full = pre.postsolve.restore({});
    if (is_feasible(model, full)) {
      result.status = MipStatus::kOptimal;
      result.has_solution = true;
      result.solution = full;
      result.objective = model.eval_objective(full);
      result.best_bound = result.objective;
    } else {
      result.status = MipStatus::kNumericalFailure;
    }
    return result;
  }

  double remaining = options_.time_limit_seconds;
  if (remaining > 0.0)
    remaining = std::max(remaining - watch.seconds(), 1e-3);
  MipResult result = solve_tree(pre.reduced, warm, remaining);
  if (result.has_solution)
    result.solution = pre.postsolve.restore(result.solution);
  result.seconds = watch.seconds();
  attach_telemetry(result);
  return result;
}

MipResult MipSolver::solve_tree(
    const Model& model,
    const std::optional<std::vector<double>>& initial_solution,
    double time_limit_seconds) {
  Stopwatch watch;
  Deadline deadline(time_limit_seconds);
  MipResult result;

  std::vector<bool> is_int;
  const lp::Problem problem = model.to_lp(&is_int);
  // The MIP-level soft-cancel seam reaches into every node LP so a cancel
  // fired mid-LP takes effect within one polling interval, not one node.
  lp::SimplexOptions lp_options = options_.lp;
  if (options_.cancel != nullptr && lp_options.cancel == nullptr)
    lp_options.cancel = options_.cancel;
  lp::Simplex simplex(problem, lp_options);

  obs::SpanScope tree_span(
      obs::Tracer::active(), "mip.solve_tree", "mip",
      obs::Tracer::active()
          ? "\"vars\":" + std::to_string(model.num_vars()) +
                ",\"rows\":" + std::to_string(problem.num_rows())
          : std::string());

  const double scale = model.objective_scale();
  const double constant = model.objective().constant();
  auto to_model_obj = [&](double lp_obj) { return scale * lp_obj + constant; };
  const char* const sense_name =
      model.sense() == Sense::kMaximize ? "max" : "min";

  std::vector<int> int_vars;
  for (int j = 0; j < model.num_vars(); ++j)
    if (is_int[static_cast<std::size_t>(j)]) int_vars.push_back(j);

  // Accumulates one LP solve's stats into the result — node LPs, the
  // rounding dives and the polish alike, so the iteration counts cover
  // every solve lp_pivots counts. Returns the solve's iterations.
  auto accumulate_lp_stats = [&](const lp::Simplex& lp) -> long {
    const lp::SolveStats& st = lp.stats();
    result.phase1_iterations += st.phase1_iterations;
    result.phase2_iterations += st.phase2_iterations;
    result.dual_iterations += st.dual_iterations;
    result.refactorizations += st.refactorizations;
    result.basis_updates += st.basis_updates;
    result.lp_basis_fill_max =
        std::max(result.lp_basis_fill_max, st.basis_fill_max);
    result.lp_recoveries += st.recoveries();
    if (st.dual_fallback) ++result.dual_fallbacks;
    return st.phase1_iterations + st.phase2_iterations + st.dual_iterations;
  };

  // Incumbent in minimize (LP) space.
  double incumbent_lp_obj = kInf;
  std::vector<double> incumbent;
  bool node_improved_incumbent = false;  // reset per processed node
  auto try_incumbent = [&](const std::vector<double>& values) {
    std::vector<double> snapped = values;
    for (int j : int_vars)
      snapped[static_cast<std::size_t>(j)] =
          std::round(snapped[static_cast<std::size_t>(j)]);
    if (!check_feasible(model, problem, snapped, 1e-5))
      return false;
    const double model_obj = model.eval_objective(snapped);
    const double lp_obj = (model_obj - constant) * scale;  // scale^2 == 1
    if (lp_obj < incumbent_lp_obj - 1e-12) {
      incumbent_lp_obj = lp_obj;
      incumbent = std::move(snapped);
      node_improved_incumbent = true;
      obs::counter_add("mip.incumbents");
      if (obs::Tracer::active())
        obs::instant("mip.incumbent", "mip",
                     "\"objective\":" + obs::json_number(model_obj));
      return true;
    }
    return false;
  };

  if (initial_solution) try_incumbent(*initial_solution);

  // Incumbent/bound convergence under the same normalized formula
  // MipResult::gap() reports, evaluated in model space (the objective
  // constant changes the denominator, so LP-space differences would
  // disagree with what the caller sees). A raw LP-space difference check
  // terminates late on large objectives (relative gap long converged) and
  // the reporting would then disagree with the decision to keep running.
  auto normalized_gap = [&](double inc_lp, double bound_lp) {
    const double inc = to_model_obj(inc_lp);
    const double bnd = to_model_obj(bound_lp);
    const double diff = std::fabs(inc - bnd);
    if (diff <= 1e-9) return 0.0;
    return diff / std::max({std::fabs(inc), std::fabs(bnd), 1e-9});
  };
  bool gap_converged = false;
  double gap_bound_lp = kInf;  // frontier bound proven at convergence

  // Set-partitioning rows (Σ x_j = 1 over binaries with unit coefficients)
  // drive cheap node propagation: a variable fixed to 1 zeroes its row
  // mates, a row with all-but-one mate at 0 forces the survivor to 1.
  std::vector<std::vector<int>> partition_rows;
  for (int i = 0; i < problem.num_rows(); ++i) {
    const auto& row = problem.row(i);
    if (row.lower != 1.0 || row.upper != 1.0) continue;
    bool eligible = true;
    std::vector<int> members;
    for (const auto& entry : problem.matrix().row(i)) {
      if (entry.value != 1.0 ||
          !is_int[static_cast<std::size_t>(entry.index)] ||
          model.var_lower(Var{entry.index}) < -1e-9 ||
          model.var_upper(Var{entry.index}) > 1.0 + 1e-9) {
        eligible = false;
        break;
      }
      members.push_back(entry.index);
    }
    if (eligible && members.size() > 1)
      partition_rows.push_back(std::move(members));
  }

  // Applies a node's bound deltas plus fixpoint propagation over the
  // partition rows; returns false when propagation proves infeasibility.
  auto apply_node_bounds = [&](const Node& node) {
    simplex.reset_bounds();
    for (const auto& [j, lo, hi] : node.bounds) simplex.set_bounds(j, lo, hi);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& members : partition_rows) {
        int fixed_one = -1;
        int open_count = 0;
        int last_open = -1;
        for (const int j : members) {
          const double lo = simplex.working_lower(j);
          const double hi = simplex.working_upper(j);
          if (lo > 0.5) {
            if (fixed_one >= 0) return false;  // two ones in one row
            fixed_one = j;
          } else if (hi > 0.5) {
            ++open_count;
            last_open = j;
          }
        }
        if (fixed_one >= 0) {
          for (const int j : members) {
            if (j == fixed_one) continue;
            if (simplex.working_upper(j) > 0.5) {
              simplex.set_bounds(j, 0.0, 0.0);
              changed = true;
            }
          }
        } else if (open_count == 0) {
          return false;  // nobody can take the 1
        } else if (open_count == 1) {
          simplex.set_bounds(last_open, 1.0, 1.0);
          changed = true;
        }
      }
    }
    return true;
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  long next_id = 0;
  open.push(Node{{}, -kInf, 0, next_id++, -1, false, 0.0});
  std::optional<Node> dive;  // depth-first child processed before the queue

  std::vector<Pseudocost> pseudo(static_cast<std::size_t>(model.num_vars()));

  // Pseudocost credit for a child whose subproblem is infeasible (LP or
  // propagation). Infeasibility is the strongest possible branching
  // outcome, but it yields no LP bound to measure — without an observation
  // the variable would stay "unobserved" forever and keep falling back to
  // the most-fractional bootstrap. Standard solvers credit a degradation
  // that dominates the realized ones: the full distance from the parent
  // bound to the cutoff when both exist, otherwise a multiple of the
  // largest degradation seen so far.
  double max_degradation_seen = 1.0;
  auto credit_infeasible_child = [&](const Node& node) {
    if (node.branch_var < 0) return;
    const double room =
        incumbent_lp_obj < kInf && node.parent_bound > -kInf
            ? std::max(incumbent_lp_obj - node.parent_bound,
                       max_degradation_seen)
            : 10.0 * max_degradation_seen;
    auto& pc = pseudo[static_cast<std::size_t>(node.branch_var)];
    if (node.branch_up) {
      pc.up_sum += room / std::max(1e-6, 1.0 - node.branch_frac);
      ++pc.up_count;
    } else {
      pc.down_sum += room / std::max(1e-6, node.branch_frac);
      ++pc.down_count;
    }
  };

  // Tree log: one record per processed node, emitted at the node's exit
  // site (after children are pushed, so the frontier reflects the node's
  // outcome). The logged global bound is the frontier minimum clamped
  // monotone in LP space — the raw minimum can regress when an improving
  // incumbent would cap it, but the proven bound never weakens.
  obs::TreeLog* tree_log =
      options_.tree_log != nullptr ? options_.tree_log : obs::TreeLog::global();
  double logged_bound_lp = -kInf;
  // Weakest parent bound among subtrees dropped after the recovery ladder
  // and a requeue both failed; the proven global bound can never pass it.
  double dropped_bound_lp = kInf;
  auto emit_node = [&](const Node& node, const char* status, long lp_pivots,
                       int branch_var, double branch_frac, bool subtree_open) {
    if (tree_log == nullptr) return;
    double frontier = dropped_bound_lp;
    if (!open.empty()) frontier = std::min(frontier, open.top().parent_bound);
    if (dive) frontier = std::min(frontier, dive->parent_bound);
    if (subtree_open) frontier = std::min(frontier, node.parent_bound);
    if (frontier == kInf) frontier = incumbent_lp_obj;  // tree exhausted
    logged_bound_lp = std::max(logged_bound_lp, frontier);

    obs::NodeRecord record;
    record.node = node.id;
    record.depth = node.depth;
    record.has_parent_bound = std::isfinite(node.parent_bound);
    if (record.has_parent_bound)
      record.parent_bound = to_model_obj(node.parent_bound);
    record.lp_status = status;
    record.lp_pivots = lp_pivots;
    record.branch_var = branch_var;
    record.branch_frac = branch_frac;
    record.incumbent_updated = node_improved_incumbent;
    record.has_incumbent = !incumbent.empty();
    if (record.has_incumbent)
      record.incumbent = to_model_obj(incumbent_lp_obj);
    record.has_global_bound = std::isfinite(logged_bound_lp);
    if (record.has_global_bound)
      record.global_bound = to_model_obj(logged_bound_lp);
    record.open_nodes = open.size() + (dive ? 1 : 0);
    record.seconds = watch.seconds();
    record.sense = sense_name;
    tree_log->write(record, options_.tree_log_context);
  };

  auto record_metrics = [&]() {
    if (!obs::Metrics::active()) return;
    obs::counter_add("mip.solves");
    obs::counter_add("mip.nodes", static_cast<double>(result.nodes));
    obs::counter_add("mip.lp_pivots", static_cast<double>(result.lp_pivots));
    obs::histogram_observe("mip.nodes_per_solve",
                           static_cast<double>(result.nodes));
    obs::histogram_observe("mip.solve_seconds", result.seconds);
  };

  bool aborted_time = false;
  bool aborted_nodes = false;

  auto fractional = [&](const std::vector<double>& x, int j) {
    const double v = x[static_cast<std::size_t>(j)];
    return std::fabs(v - std::round(v)) > options_.integrality_tol;
  };

  // Fix-and-solve rounding heuristic on the current relaxation.
  auto rounding_heuristic = [&](const std::vector<double>& relaxation,
                                const Node& node) {
    obs::SpanScope span("mip.heuristic_dive", "mip");
    obs::counter_add("mip.heuristic_dives");
    std::vector<double> rounded = relaxation;
    for (int j : int_vars) {
      double v = std::round(rounded[static_cast<std::size_t>(j)]);
      v = std::clamp(v, simplex.working_lower(j), simplex.working_upper(j));
      rounded[static_cast<std::size_t>(j)] = v;
      simplex.set_bounds(j, v, v);
    }
    const lp::SolveStatus st = simplex.solve();
    accumulate_lp_stats(simplex);
    if (st == lp::SolveStatus::kOptimal) try_incumbent(simplex.primal_solution());
    simplex.reset_bounds();
    for (const auto& [j, lo, hi] : node.bounds) simplex.set_bounds(j, lo, hi);
  };

  long nodes_since_heuristic = 0;

  while (dive || !open.empty()) {
    if (deadline.expired() ||
        (options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed))) {
      aborted_time = true;
      break;
    }
    if (options_.max_nodes > 0 && result.nodes >= options_.max_nodes) {
      aborted_nodes = true;
      break;
    }

    // Gap-converged termination: when the weakest remaining bound — open
    // frontier, pending dive child and dropped subtrees alike — is within
    // gap_tolerance of the incumbent under the reporting formula, every
    // further node proves digits the caller never sees. Stop as optimal
    // with the honest frontier bound.
    if (incumbent_lp_obj < kInf) {
      double frontier = dropped_bound_lp;
      if (!open.empty()) frontier = std::min(frontier, open.top().parent_bound);
      if (dive) frontier = std::min(frontier, dive->parent_bound);
      if (std::isfinite(frontier) &&
          normalized_gap(incumbent_lp_obj, frontier) <=
              options_.gap_tolerance) {
        gap_converged = true;
        gap_bound_lp = std::min(frontier, incumbent_lp_obj);
        break;
      }
    }

    Node node;
    if (dive) {
      node = std::move(*dive);
      dive.reset();
    } else {
      node = open.top();
      open.pop();
    }
    node_improved_incumbent = false;

    // Bound-based pruning against the incumbent.
    if (node.parent_bound >= incumbent_lp_obj - 1e-9) continue;

    if (!apply_node_bounds(node)) {
      ++result.nodes;
      credit_infeasible_child(node);
      emit_node(node, "propagation-infeasible", 0, -1, 0.0, false);
      continue;  // propagation proved the node infeasible
    }
    // Clamp to a positive epsilon: between the loop-top expiry check and
    // this call the deadline may slip to zero, and a non-positive limit
    // would make the node LP run unlimited, overrunning the MIP budget.
    simplex.set_time_limit(
        deadline.unlimited() ? 0.0 : std::max(deadline.remaining(), 1e-3));

    // Sample node-LP spans: every Nth processed node gets a span (with the
    // underlying LP phase spans nested inside); the root is node 0 of the
    // sample and is therefore always traced.
    const bool traced_node =
        obs::Tracer::active() && options_.trace_node_sample > 0 &&
        result.nodes % options_.trace_node_sample == 0;
    simplex.set_trace_spans(traced_node);
    // Accumulated after every solve() call on this node (retries included)
    // so recovery and refactorization effort is never dropped from the
    // telemetry (see accumulate_lp_stats above).
    long node_pivots = 0;
    lp::SolveStatus lp_status;
    {
      obs::SpanScope node_span(
          traced_node, node.id == 0 ? "mip.root_lp" : "mip.node_lp", "mip",
          traced_node ? "\"node\":" + std::to_string(node.id) +
                            ",\"depth\":" + std::to_string(node.depth)
                      : std::string());
      lp_status = simplex.solve();
      node_pivots += accumulate_lp_stats(simplex);
      if (lp_status == lp::SolveStatus::kIterationLimit) {
        // Usually a degenerate warm start; one cold retry before the node
        // is treated as numerically failed.
        simplex.invalidate_basis();
        lp_status = simplex.solve();
        node_pivots += accumulate_lp_stats(simplex);
      }
      if (lp_status == lp::SolveStatus::kUnbounded &&
          !(node.depth == 0 && !initial_solution)) {
        // A non-root node's feasible region is a subset of its (bounded)
        // parent relaxation, so an unbounded verdict here is numerical
        // noise, not structure. Route it through recovery (cold restart)
        // instead of silently pruning a possibly optimal subtree.
        obs::counter_add("mip.unbounded_anomalies");
        obs::instant("mip.unbounded_anomaly", "mip",
                     "\"node\":" + std::to_string(node.id));
        simplex.invalidate_basis();
        lp_status = simplex.solve();
        node_pivots += accumulate_lp_stats(simplex);
        if (lp_status == lp::SolveStatus::kUnbounded)
          lp_status = lp::SolveStatus::kNumericalFailure;
      }
    }
    ++result.nodes;
    ++nodes_since_heuristic;

    if (lp_status == lp::SolveStatus::kTimeLimit) {
      aborted_time = true;
      emit_node(node, "time-limit", node_pivots, -1, 0.0, true);
      break;
    }
    if (lp_status == lp::SolveStatus::kInfeasible) {
      credit_infeasible_child(node);
      emit_node(node, "infeasible", node_pivots, -1, 0.0, false);
      continue;
    }
    if (lp_status == lp::SolveStatus::kUnbounded) {
      // Only the genuine case reaches here: the root relaxation with no
      // caller incumbent is unbounded.
      emit_node(node, "unbounded", node_pivots, -1, 0.0, false);
      result.status = MipStatus::kUnbounded;
      result.lp_pivots = simplex.total_pivots();
      result.seconds = watch.seconds();
      record_metrics();
      return result;
    }
    if (lp_status != lp::SolveStatus::kOptimal) {
      // The LP failed beyond the in-LP recovery ladder. Re-enqueue the
      // node once with its parent bound (a later visit warm-starts from a
      // different basis and usually succeeds); a second failure drops the
      // subtree with its bound folded into the final best_bound instead of
      // aborting the whole tree.
      if (node.numerical_retries == 0) {
        Node retry = node;
        retry.numerical_retries = 1;
        retry.id = next_id++;
        obs::counter_add("mip.numerical_requeues");
        obs::instant("mip.node_requeue", "mip",
                     "\"node\":" + std::to_string(node.id));
        open.push(std::move(retry));
        emit_node(node, "numerical-requeue", node_pivots, -1, 0.0, false);
      } else {
        ++result.numerical_drops;
        dropped_bound_lp = std::min(dropped_bound_lp, node.parent_bound);
        obs::counter_add("mip.numerical_drops");
        obs::instant("mip.node_drop", "mip",
                     "\"node\":" + std::to_string(node.id));
        emit_node(node, "numerical-drop", node_pivots, -1, 0.0, false);
      }
      continue;
    }

    const double node_bound = simplex.objective();

    // Pseudocost update from the realized bound degradation.
    if (node.branch_var >= 0 && node.parent_bound > -kInf) {
      const double degradation = std::max(0.0, node_bound - node.parent_bound);
      max_degradation_seen = std::max(max_degradation_seen, degradation);
      auto& pc = pseudo[static_cast<std::size_t>(node.branch_var)];
      if (node.branch_up) {
        pc.up_sum += degradation / std::max(1e-6, 1.0 - node.branch_frac);
        ++pc.up_count;
      } else {
        pc.down_sum += degradation / std::max(1e-6, node.branch_frac);
        ++pc.down_count;
      }
    }

    if (node_bound >= incumbent_lp_obj - 1e-9) {  // pruned by bound
      emit_node(node, "pruned", node_pivots, -1, 0.0, false);
      continue;
    }

    // Reduced-cost fixing: a nonbasic integer variable with reduced cost d
    // degrades the objective by at least d per unit it moves off its
    // resting bound, so in any solution of this subtree improving on the
    // cutoff it can move at most room/d units. Tightening the opposite
    // bound accordingly (often to a fixing) leaves the current LP optimum
    // optimal — no re-solve needed — and the tightenings append to
    // node.bounds so both children inherit them.
    if (options_.rc_fixing && incumbent_lp_obj < kInf) {
      const double room = incumbent_lp_obj - 1e-9 - node_bound;
      for (int j : int_vars) {
        const lp::VarStatus st = simplex.variable_status(j);
        if (st != lp::VarStatus::kAtLower && st != lp::VarStatus::kAtUpper)
          continue;
        const double lo = simplex.working_lower(j);
        const double hi = simplex.working_upper(j);
        if (hi - lo < 0.5) continue;  // already fixed
        const double d = simplex.reduced_cost(j);
        if (st == lp::VarStatus::kAtLower) {
          if (d <= 1e-9) continue;
          const double new_hi =
              lo + std::floor(room / d + options_.integrality_tol);
          if (new_hi < hi - 0.5) {
            simplex.set_bounds(j, lo, new_hi);
            node.bounds.emplace_back(j, lo, new_hi);
            if (new_hi - lo < 0.5) ++result.rc_fixed;
          }
        } else {
          if (d >= -1e-9) continue;
          const double new_lo =
              hi - std::floor(room / (-d) + options_.integrality_tol);
          if (new_lo > lo + 0.5) {
            simplex.set_bounds(j, new_lo, hi);
            node.bounds.emplace_back(j, new_lo, hi);
            if (hi - new_lo < 0.5) ++result.rc_fixed;
          }
        }
      }
    }

    const std::vector<double> x = simplex.primal_solution();

    // Branching variable selection: highest user priority first, then a
    // pseudocost product rule with a most-fractional bootstrap component.
    int branch = -1;
    double branch_frac = 0.0;
    double best_score = -1.0;
    int best_priority = std::numeric_limits<int>::min();
    for (int j : int_vars) {
      if (!fractional(x, j)) continue;
      const int priority = model.branch_priority(Var{j});
      if (priority < best_priority) continue;
      const double v = x[static_cast<std::size_t>(j)];
      const double frac = v - std::floor(v);
      const auto& pc = pseudo[static_cast<std::size_t>(j)];
      const double down = pc.down_estimate(1.0) * frac;
      const double up = pc.up_estimate(1.0) * (1.0 - frac);
      const double score = std::max(down, 1e-8) * std::max(up, 1e-8) +
                           0.01 * std::min(frac, 1.0 - frac);
      if (priority > best_priority || score > best_score) {
        best_priority = priority;
        best_score = score;
        branch = j;
        branch_frac = frac;
      }
    }

    if (branch < 0) {
      try_incumbent(x);  // integral LP solution
      emit_node(node, "integral", node_pivots, -1, 0.0, false);
      continue;
    }

    // Periodic rounding heuristic; aggressive until the first incumbent
    // exists (the gap is infinite without one — the paper's "∞" case).
    const long heuristic_period =
        options_.heuristic_frequency <= 0
            ? 0
            : (incumbent.empty()
                   ? std::min<long>(options_.heuristic_frequency, 25)
                   : options_.heuristic_frequency);
    if (heuristic_period > 0 && nodes_since_heuristic >= heuristic_period) {
      nodes_since_heuristic = 0;
      rounding_heuristic(x, node);
    }

    const double v = x[static_cast<std::size_t>(branch)];
    const double floor_v = std::floor(v);
    const double ceil_v = std::ceil(v);

    Node down = node;
    down.bounds.emplace_back(branch, simplex.working_lower(branch), floor_v);
    down.parent_bound = node_bound;
    down.depth = node.depth + 1;
    down.id = next_id++;
    down.branch_var = branch;
    down.branch_up = false;
    down.branch_frac = branch_frac;

    Node up = node;
    up.bounds.emplace_back(branch, ceil_v, simplex.working_upper(branch));
    up.parent_bound = node_bound;
    up.depth = node.depth + 1;
    up.id = next_id++;
    up.branch_var = branch;
    up.branch_up = true;
    up.branch_frac = branch_frac;

    // Dive into the child the relaxation leans towards, with a bias
    // towards rounding up: in assignment-structured models fixing a
    // variable to 1 completes a partial assignment, fixing to 0 defers
    // the decision.
    if (branch_frac < 0.3) {
      dive = std::move(down);
      open.push(std::move(up));
    } else {
      dive = std::move(up);
      open.push(std::move(down));
    }
    emit_node(node, "branched", node_pivots, branch, branch_frac, false);
  }

  // Polish: re-solve the LP from scratch with the incumbent's integers
  // fixed. An incumbent read off a node LP carries the noise of that
  // node's basis updates on its continuous values — a start time that
  // should sit exactly on a bound comes back as 6 - 2e-14. Downstream
  // consumers compare those values against exact constants (interval
  // overlap tests in the admission engine), so the noise is load-bearing.
  // The fresh solve lands on a clean vertex with the same or a better
  // objective.
  long polish_pivots = 0;
  if (!incumbent.empty() && !deadline.expired()) {
    lp::Simplex polish(problem, lp_options);
    polish.set_time_limit(
        deadline.unlimited() ? 0.0 : std::max(deadline.remaining(), 1e-3));
    for (int j : int_vars)
      polish.set_bounds(j, incumbent[static_cast<std::size_t>(j)],
                        incumbent[static_cast<std::size_t>(j)]);
    const lp::SolveStatus polish_status = polish.solve();
    accumulate_lp_stats(polish);
    if (polish_status == lp::SolveStatus::kOptimal) {
      std::vector<double> x = polish.primal_solution();
      for (int j : int_vars)
        x[static_cast<std::size_t>(j)] =
            incumbent[static_cast<std::size_t>(j)];
      const double model_obj = model.eval_objective(x);
      const double lp_obj = (model_obj - constant) * scale;
      if (lp_obj <= incumbent_lp_obj + 1e-6 &&
          check_feasible(model, problem, x, 1e-5)) {
        incumbent = std::move(x);
        incumbent_lp_obj = std::min(incumbent_lp_obj, lp_obj);
      }
    }
    polish_pivots = polish.total_pivots();
  }

  result.lp_pivots = simplex.total_pivots() + polish_pivots;
  result.seconds = watch.seconds();
  result.has_solution = !incumbent.empty();
  if (result.has_solution) {
    result.solution = incumbent;
    result.objective = to_model_obj(incumbent_lp_obj);
  }

  if (gap_converged) {
    // Converged under the reporting gap formula: optimal within
    // gap_tolerance, with the honest frontier bound (not the incumbent
    // echoed back) so the reported gap states what was actually proven.
    result.status = MipStatus::kOptimal;
    result.best_bound = to_model_obj(gap_bound_lp);
    record_metrics();
    return result;
  }

  const bool exhausted = !dive && open.empty();
  // Dropped subtrees only degrade the result when their bound could still
  // hide an improvement; drops already dominated by the incumbent change
  // nothing that the tree search proved.
  const bool drops_matter = result.numerical_drops > 0 &&
                            dropped_bound_lp < incumbent_lp_obj - 1e-9;
  if (exhausted && !aborted_time && !aborted_nodes && !drops_matter) {
    if (result.has_solution) {
      result.status = MipStatus::kOptimal;
      result.best_bound = result.objective;
    } else {
      result.status = MipStatus::kInfeasible;  // objective/bound stay zero
    }
    record_metrics();
    return result;
  }

  // Aborted or degraded: the proven bound is the weakest among the open
  // frontier, the interrupted dive chain, the dropped subtrees, and the
  // incumbent.
  double final_lp_bound = incumbent_lp_obj;
  if (!open.empty())
    final_lp_bound = std::min(final_lp_bound, open.top().parent_bound);
  if (dive) final_lp_bound = std::min(final_lp_bound, dive->parent_bound);
  final_lp_bound = std::min(final_lp_bound, dropped_bound_lp);
  result.best_bound =
      std::isfinite(final_lp_bound) || result.has_solution
          ? to_model_obj(final_lp_bound)
          : to_model_obj(-kInf);

  // Anytime semantics: with an incumbent in hand, numerical degradation is
  // reported like a time/node limit (valid incumbent, bound and gap), not
  // as a failure. kNumericalFailure is reserved for solves with no usable
  // result at all.
  if (aborted_time) result.status = MipStatus::kTimeLimit;
  else if (aborted_nodes) result.status = MipStatus::kNodeLimit;
  else if (result.has_solution) result.status = MipStatus::kNumericalLimit;
  else result.status = MipStatus::kNumericalFailure;
  record_metrics();
  return result;
}

}  // namespace tvnep::mip
