#include "mip/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::mip {
namespace {

TEST(BranchAndBound, PureLpNoIntegers) {
  Model m;
  const Var x = m.add_continuous(0.0, 4.0, "x");
  const Var y = m.add_continuous(0.0, 4.0, "y");
  m.add_constr(x + y <= 5.0);
  m.set_objective(Sense::kMaximize, 3.0 * x + 2.0 * y);
  MipSolver solver;
  const MipResult r = solver.solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 14.0, 1e-6);  // x=4, y=1
  EXPECT_NEAR(r.gap(), 0.0, 1e-9);
}

TEST(BranchAndBound, SmallKnapsack) {
  // max 10a + 6b + 4c, 5a + 4b + 3c <= 10, binary → a+b (obj 16).
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_constr(5.0 * a + 4.0 * b + 3.0 * c <= 10.0);
  m.set_objective(Sense::kMaximize, 10.0 * a + 6.0 * b + 4.0 * c);
  MipSolver solver;
  const MipResult r = solver.solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 16.0, 1e-6);
  EXPECT_NEAR(r.solution[static_cast<std::size_t>(a.id)], 1.0, 1e-6);
  EXPECT_NEAR(r.solution[static_cast<std::size_t>(b.id)], 1.0, 1e-6);
  EXPECT_NEAR(r.solution[static_cast<std::size_t>(c.id)], 0.0, 1e-6);
}

TEST(BranchAndBound, IntegerRounding) {
  // max x s.t. 2x <= 7, x integer → 3 (LP gives 3.5).
  Model m;
  const Var x = m.add_var(0.0, 100.0, VarType::kInteger, "x");
  m.add_constr(2.0 * x <= 7.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  MipSolver solver;
  const MipResult r = solver.solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(BranchAndBound, MinimizeSense) {
  // min x + y s.t. x + y >= 1.5, binary → 2.
  Model m;
  const Var x = m.add_binary();
  const Var y = m.add_binary();
  m.add_constr(x + y >= 1.5);
  m.set_objective(Sense::kMinimize, x + LinExpr(y));
  MipSolver solver;
  const MipResult r = solver.solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 with x binary: LP feasible, MIP infeasible.
  Model m;
  const Var x = m.add_binary("x");
  m.add_constr(LinExpr(x) >= 0.4);
  m.add_constr(LinExpr(x) <= 0.6);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  MipSolver solver;
  const MipResult r = solver.solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_FALSE(r.has_solution);
}

TEST(BranchAndBound, LpInfeasible) {
  Model m;
  const Var x = m.add_binary();
  m.add_constr(LinExpr(x) >= 2.0);
  m.set_objective(Sense::kMaximize, LinExpr(x));
  MipSolver solver;
  const MipResult r = solver.solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(BranchAndBound, ObjectiveConstantPreserved) {
  Model m;
  const Var x = m.add_binary();
  m.set_objective(Sense::kMaximize, 2.0 * x + 10.0);
  MipSolver solver;
  const MipResult r = solver.solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
}

TEST(BranchAndBound, InitialIncumbentAccepted) {
  Model m;
  const Var a = m.add_binary();
  const Var b = m.add_binary();
  m.add_constr(a + b <= 1.0);
  m.set_objective(Sense::kMaximize, a + 2.0 * b);
  // Feasible warm start: a=1, b=0 (objective 1; optimal is b=1 → 2).
  MipSolver solver;
  const MipResult r = solver.solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleInitialIncumbentIgnored) {
  Model m;
  const Var a = m.add_binary();
  m.add_constr(LinExpr(a) <= 0.0);
  m.set_objective(Sense::kMaximize, LinExpr(a));
  MipSolver solver;
  // a=1 violates the constraint; must be discarded, not believed.
  const MipResult r = solver.solve(m, std::vector<double>{1.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-6);
}

TEST(BranchAndBound, GapIsInfiniteWithoutIncumbent) {
  MipResult r;
  r.has_solution = false;
  EXPECT_TRUE(std::isinf(r.gap()));
  // The bound does not matter: without an incumbent the gap is the
  // paper's "∞" marker regardless of how informative the bound is.
  r.best_bound = 123.0;
  EXPECT_TRUE(std::isinf(r.gap()));
  EXPECT_GT(r.gap(), 0.0);
}

TEST(BranchAndBound, ToStringCoversEveryStatus) {
  EXPECT_STREQ(to_string(MipStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(MipStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(MipStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(MipStatus::kTimeLimit), "time-limit");
  EXPECT_STREQ(to_string(MipStatus::kNodeLimit), "node-limit");
  EXPECT_STREQ(to_string(MipStatus::kNumericalLimit), "numerical-limit");
  EXPECT_STREQ(to_string(MipStatus::kNumericalFailure), "numerical-failure");
}

TEST(BranchAndBound, GapNearZeroObjectiveUsesBoundMagnitude) {
  // Regression: dividing by |objective| alone reported gaps of ~1e8 for
  // instances whose incumbent is ~0 (e.g. every request rejected under the
  // acceptance objective) even when the bound was perfectly informative.
  MipResult r;
  r.has_solution = true;
  r.objective = 0.0;
  r.best_bound = 0.5;
  EXPECT_NEAR(r.gap(), 1.0, 1e-12);
}

TEST(BranchAndBound, GapZeroWhenBoundMatchesNearZeroObjective) {
  MipResult r;
  r.has_solution = true;
  r.objective = 0.0;
  r.best_bound = 0.0;
  EXPECT_EQ(r.gap(), 0.0);
}

TEST(BranchAndBound, GapRegularCase) {
  MipResult r;
  r.has_solution = true;
  r.objective = 90.0;
  r.best_bound = 100.0;
  EXPECT_NEAR(r.gap(), 0.1, 1e-12);
}

TEST(BranchAndBound, NodeLimitReportsBoundAndStatus) {
  // A problem needing some search; with max_nodes=1 we stop early.
  Model m;
  std::vector<Var> xs;
  LinExpr obj;
  LinExpr weight;
  const double w[] = {3, 5, 7, 9, 11, 13};
  const double v[] = {4, 7, 9, 12, 14, 17};
  for (int i = 0; i < 6; ++i) {
    xs.push_back(m.add_binary());
    obj += v[i] * xs.back();
    weight += w[i] * xs.back();
  }
  m.add_constr(weight <= 20.0);
  m.set_objective(Sense::kMaximize, obj);
  MipOptions options;
  options.max_nodes = 1;
  options.heuristic_frequency = 0;
  MipSolver solver(options);
  const MipResult r = solver.solve(m);
  EXPECT_EQ(r.status, MipStatus::kNodeLimit);
  // Bound must be a valid upper bound on the true optimum (27: items 2+4
  // weigh 16 value 23... verified below by exact solve).
  MipSolver exact;
  const MipResult opt = exact.solve(m);
  ASSERT_EQ(opt.status, MipStatus::kOptimal);
  EXPECT_GE(r.best_bound, opt.objective - 1e-6);
}

TEST(BranchAndBound, EqualityConstrainedInteger) {
  // x + y == 5, x,y integer in [0,5], min 3x + y → x=0,y=5 → 5.
  Model m;
  const Var x = m.add_var(0.0, 5.0, VarType::kInteger);
  const Var y = m.add_var(0.0, 5.0, VarType::kInteger);
  m.add_constr(x + y == 5.0);
  m.set_objective(Sense::kMinimize, 3.0 * x + LinExpr(y));
  MipSolver solver;
  const MipResult r = solver.solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(BranchAndBound, IsFeasibleChecksRowsBoundsIntegrality) {
  Model m;
  const Var x = m.add_binary();
  const Var y = m.add_continuous(0.0, 2.0);
  m.add_constr(x + y <= 2.0);
  EXPECT_TRUE(MipSolver::is_feasible(m, {1.0, 1.0}));
  EXPECT_FALSE(MipSolver::is_feasible(m, {0.5, 1.0}));   // fractional binary
  EXPECT_FALSE(MipSolver::is_feasible(m, {1.0, 1.5}));   // row violated
  EXPECT_FALSE(MipSolver::is_feasible(m, {1.0, 3.0}));   // bound violated
  EXPECT_FALSE(MipSolver::is_feasible(m, {1.0}));        // wrong arity
}

TEST(RcFixing, NeverFixesAwayTheOptimum) {
  // Reduced-cost fixing must preserve the optimum and its objective on the
  // randomized grid; rc_fixed is telemetry-only here.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 3;
  params.flexibility = 1.0;
  for (const core::ModelKind kind : {core::ModelKind::kDelta,
                                     core::ModelKind::kSigma,
                                     core::ModelKind::kCSigma}) {
    for (int seed = 1; seed <= 3; ++seed) {
      params.seed = static_cast<unsigned>(seed);
      const net::TvnepInstance instance = workload::generate_workload(params);
      const auto formulation = core::build_formulation(instance, kind, {});
      MipOptions plain;
      plain.rc_fixing = false;
      const MipResult reference =
          MipSolver(plain).solve(formulation->model());

      const MipResult fixed = MipSolver().solve(formulation->model());
      ASSERT_EQ(fixed.status, reference.status)
          << core::to_string(kind) << " seed " << seed;
      if (reference.status != MipStatus::kOptimal) continue;
      EXPECT_NEAR(fixed.objective, reference.objective, 1e-6)
          << core::to_string(kind) << " seed " << seed;
    }
  }
}

TEST(BranchAndBound, IncumbentLandsExactlyOnScheduleBoundaries) {
  // Regression for the incumbent polish: an incumbent read off a node LP
  // carries O(1e-14) noise on its continuous values (the node's basis
  // updates), and the admission engine's strict interval-overlap
  // comparisons turn that noise into phantom conflicts between adjacent
  // commits. The solver must report the clean vertex of a fresh solve:
  // back-to-back schedules meet EXACTLY at their shared boundary, bit for
  // bit.
  net::SubstrateNetwork substrate;
  substrate.add_node(10.0, "A");
  substrate.add_node(10.0, "B");
  substrate.add_node(10.0, "C");
  substrate.add_link(0, 1, 1.0);
  substrate.add_link(1, 2, 1.0);

  auto line_request = [](const std::string& name, double t_s, double t_e,
                         double d, int nodes,
                         std::vector<std::pair<int, int>> links) {
    net::VnetRequest request(name);
    for (int v = 0; v < nodes; ++v) request.add_node(1.0);
    for (const auto& [from, to] : links) request.add_link(from, to, 1.0);
    request.set_temporal(t_s, t_e, d);
    return request;
  };

  // The serve reoptimizer's instance for its swap scenario: C1 is a
  // running commit pinned to [0, 6]; R1 and R2 are movable inside their
  // original windows. Max-earliness packs them back to back on link L1:
  // C1 [0, 6], R2 [6, 9], R1 [9, 11].
  net::TvnepInstance instance(substrate, 0.0);
  instance.add_request(line_request("C1", 0.0, 6.0, 6.0, 2, {{0, 1}}),
                       std::vector<int>{0, 1});
  instance.add_request(
      line_request("R1", 0.2, 20.0, 2.0, 3, {{0, 1}, {1, 2}}),
      std::vector<int>{0, 1, 2});
  instance.add_request(line_request("R2", 0.4, 11.0, 3.0, 2, {{0, 1}}),
                       std::vector<int>{0, 1});
  instance.fit_horizon();

  core::SolveParams params;
  params.build.objective = core::ObjectiveKind::kMaxEarliness;
  const core::TvnepSolveResult solved =
      core::solve(instance, core::ModelKind::kCSigma, params);
  ASSERT_TRUE(solved.has_solution);
  EXPECT_EQ(solved.status, MipStatus::kOptimal);

  const auto& requests = solved.solution.requests;
  ASSERT_EQ(requests.size(), 3u);
  for (const auto& emb : requests) ASSERT_TRUE(emb.accepted);
  // EXPECT_EQ on doubles on purpose: a tolerance would wave the 1e-14
  // noise through, and the downstream comparisons have none.
  EXPECT_EQ(requests[0].start, 0.0);
  EXPECT_EQ(requests[0].end, 6.0);
  EXPECT_EQ(requests[2].start, 6.0);
  EXPECT_EQ(requests[2].end, 9.0);
  EXPECT_EQ(requests[1].start, 9.0);
  EXPECT_EQ(requests[1].end, 11.0);
}

TEST(BranchAndBound, LpIterationsCoverEveryPivotedSolve) {
  // lp_pivots counts every LP solve of the tree, rounding dives and the
  // incumbent polish included; the phase/dual iteration counts must cover
  // the same solves (iterations are pivots plus bound flips), or the two
  // *_cells.csv columns disagree. fig3's cell shape, seed 0, flex 0.
  workload::WorkloadParams params;
  params.num_requests = 4;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  params.node_capacity = 3.5;
  params.link_capacity = 5.0;
  params.seed = 1;
  const net::TvnepInstance instance =
      workload::generate_workload_with_flexibility(params, 0.0);
  for (const core::ModelKind kind :
       {core::ModelKind::kDelta, core::ModelKind::kCSigma}) {
    const core::TvnepSolveResult result = core::solve(instance, kind, {});
    ASSERT_TRUE(result.has_solution) << core::to_string(kind);
    EXPECT_GT(result.lp_pivots, 0) << core::to_string(kind);
    EXPECT_GE(result.lp_iterations, result.lp_pivots) << core::to_string(kind);
  }
}

// B&B termination must evaluate the SAME normalized
// gap as MipResult::gap() reports. A large objective constant makes the
// raw bound difference (0.5) tiny relative to the objective; the solver
// must stop at the root with a within-tolerance gap instead of branching
// to exactness.
TEST(GapTermination, NormalizedGapStopsAtRootUnderLargeConstant) {
  // min 1e7 + x1 + x2, x1 + x2 >= 0.5, binary. LP bound 1e7 + 0.5,
  // incumbent (1, 0) at 1e7 + 1: relative gap 0.5 / (1e7 + 1) ~= 5e-8,
  // within the default 1e-6 tolerance — no branching needed.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  m.add_constr(LinExpr(x1) + 1.0 * x2 >= 0.5);
  m.set_objective(Sense::kMinimize, LinExpr(x1) + 1.0 * x2 + 1e7);

  MipOptions options;
  options.presolve = false;   // coefficient tightening would round the row
  MipSolver solver(options);
  const MipResult r = solver.solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1e7 + 1.0, 1e-5);
  // The root's children were never solved: the loop-top gap check fired.
  EXPECT_LE(r.nodes, 1);
  EXPECT_GT(r.objective - r.best_bound, 1e-9);  // bound NOT raw-converged
  EXPECT_LE(r.gap(), 1e-6);                     // but normalized-converged
}

TEST(GapTermination, BranchesToExactnessUnderSmallConstant) {
  // Same model with a 1e4 constant: relative gap 0.5 / (1e4 + 1) ~= 5e-5
  // exceeds the tolerance, so the solver must branch and prove exactness.
  Model m;
  const Var x1 = m.add_binary("x1");
  const Var x2 = m.add_binary("x2");
  m.add_constr(LinExpr(x1) + 1.0 * x2 >= 0.5);
  m.set_objective(Sense::kMinimize, LinExpr(x1) + 1.0 * x2 + 1e4);

  MipOptions options;
  options.presolve = false;
  MipSolver solver(options);
  const MipResult r = solver.solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1e4 + 1.0, 1e-7);
  EXPECT_GT(r.nodes, 1);
  EXPECT_NEAR(r.best_bound, r.objective, 1e-7);
  EXPECT_NEAR(r.gap(), 0.0, 1e-12);
}

}  // namespace
}  // namespace tvnep::mip
