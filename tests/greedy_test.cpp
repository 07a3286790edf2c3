#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "greedy/greedy.hpp"
#include "net/topology.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::greedy {
namespace {

net::TvnepInstance scheduling_instance(
    const std::vector<std::tuple<double, double, double>>& windows,
    double node_capacity = 1.0) {
  net::SubstrateNetwork s;
  s.add_node(node_capacity);
  s.add_node(node_capacity);
  s.add_link(0, 1, 10.0);
  s.add_link(1, 0, 10.0);
  net::TvnepInstance inst(std::move(s), 1.0);
  for (const auto& [ts, te, d] : windows) {
    net::VnetRequest r("r" + std::to_string(inst.num_requests()));
    r.add_node(1.0);
    r.set_temporal(ts, te, d);
    inst.add_request(r, std::vector<net::NodeId>{0});
  }
  inst.fit_horizon();
  return inst;
}

TEST(Greedy, AcceptsSingleRequest) {
  const auto inst = scheduling_instance({{0.0, 4.0, 2.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.accepted, 1);
  EXPECT_TRUE(r.solution.requests[0].accepted);
  // Started as early as possible (Eq. 21 maximizes T - t^-).
  EXPECT_NEAR(r.solution.requests[0].start, 0.0, 1e-5);
}

TEST(Greedy, ExploitsFlexibility) {
  const auto inst = scheduling_instance({{0.0, 2.0, 1.0}, {0.0, 2.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.accepted, 2);
  const auto vr = core::validate_solution(inst, r.solution);
  EXPECT_TRUE(vr.ok) << (vr.errors.empty() ? "" : vr.errors.front());
}

TEST(Greedy, RejectsWhenNoRoom) {
  const auto inst = scheduling_instance({{0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.accepted, 1);
  const auto vr = core::validate_solution(inst, r.solution);
  EXPECT_TRUE(vr.ok) << (vr.errors.empty() ? "" : vr.errors.front());
}

TEST(Greedy, NeverBeatsOptimal) {
  // Greedy revenue must never exceed the exact cΣ optimum.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.num_requests = 4;
  params.star_leaves = 1;
  params.seed = 3;
  params.flexibility = 1.0;
  const net::TvnepInstance inst = workload::generate_workload(params);

  const GreedyResult g = solve_greedy(inst);
  core::SolveParams p;
  p.time_limit_seconds = 60.0;
  const core::TvnepSolveResult opt =
      core::solve(inst, core::ModelKind::kCSigma, p);
  ASSERT_EQ(opt.status, mip::MipStatus::kOptimal);
  EXPECT_LE(g.solution.revenue(inst), opt.objective + 1e-5);
  const auto vr = core::validate_solution(inst, g.solution);
  EXPECT_TRUE(vr.ok) << (vr.errors.empty() ? "" : vr.errors.front());
}

TEST(Greedy, GreedyIsOptimalOnEasyInstance) {
  // Disjoint windows: everything fits; greedy must accept all.
  const auto inst = scheduling_instance(
      {{0.0, 1.0, 1.0}, {2.0, 3.0, 1.0}, {4.0, 5.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.accepted, 3);
}

TEST(Greedy, ProcessesInEarliestStartOrder) {
  // Later-arriving request processed second: the earlier one claims the
  // slot even though the later one was added to the instance first.
  const auto inst = scheduling_instance({{2.0, 3.0, 1.0}, {0.0, 3.0, 3.0}});
  // Request 1 (t^s = 0, d = 3) is considered first and occupies [0, 3],
  // leaving no room for request 0's window [2, 3].
  const GreedyResult r = solve_greedy(inst);
  EXPECT_TRUE(r.solution.requests[1].accepted);
  EXPECT_FALSE(r.solution.requests[0].accepted);
}

TEST(Greedy, IterationTimesRecorded) {
  const auto inst = scheduling_instance({{0.0, 2.0, 1.0}, {0.0, 2.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  EXPECT_EQ(r.iteration_seconds.size(), 2u);
  EXPECT_GE(r.max_iteration_seconds(), 0.0);
  EXPECT_GE(r.total_seconds, 0.0);
}

TEST(Greedy, RejectedRequestsKeepPinnedTimes) {
  const auto inst = scheduling_instance({{0.0, 1.0, 1.0}, {0.0, 1.0, 1.0}});
  const GreedyResult r = solve_greedy(inst);
  for (int i = 0; i < 2; ++i) {
    const auto& emb = r.solution.requests[static_cast<std::size_t>(i)];
    if (emb.accepted) continue;
    EXPECT_NEAR(emb.start, inst.request(i).earliest_start(), 1e-9);
    EXPECT_NEAR(emb.end, emb.start + inst.request(i).duration(), 1e-9);
  }
}

TEST(Greedy, StepMipAcceptsWithPinnedFractionalTimes) {
  // Regression mirror of ServeReopt.BackgroundReoptStrictlyImprovesAdmission:
  // a greedy-step cΣ model whose pinned commit sits at fractional times and
  // whose candidate window opens at 6.5. The step MIP must accept the
  // candidate at the start of its window.
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

  net::TvnepInstance working(substrate, 0.0);
  std::vector<int> force_accept;
  // The engine's component for the candidate window [6.5, 9] is the single
  // post-reopt commit R2, pinned to its installed schedule.
  net::VnetRequest r2 = line_request("R2", 6.0, 9.0, 3.0, 2, {{0, 1}});
  force_accept.push_back(
      working.add_request(std::move(r2), std::vector<int>{0, 1}));
  // The candidate: window [6.5, 9], duration 2, over L2 only.
  const int target = working.add_request(
      line_request("R3", 6.5, 9.0, 2.0, 2, {{0, 1}}),
      std::vector<int>{1, 2});
  working.fit_horizon();

  const GreedyStepResult step =
      solve_greedy_step_mip(working, target, force_accept, {}, {});
  ASSERT_TRUE(step.step.has_solution);
  EXPECT_EQ(step.step.status, mip::MipStatus::kOptimal);
  EXPECT_TRUE(step.accepted);
  EXPECT_NEAR(step.start, 6.5, 1e-9);
  EXPECT_NEAR(step.end, 8.5, 1e-9);
  // Eq. 21 with horizon T = 9: T·1 for the accept + (T - 8.5) for the end.
  EXPECT_NEAR(step.step.objective, 9.5, 1e-6);
}

}  // namespace
}  // namespace tvnep::greedy
