// Differential oracle for the cΣ_A^G breakpoint walk (greedy.hpp): random
// small steps (4×5 grid, five-node stars, fixed mappings, at most five
// pinned requests in the component) go through both the walk and the cΣ
// step MIP, the MIP with a generous limit and zero gap tolerance.
//  * where the MIP is optimal, both agree on accept and on start;
//  * every walk acceptance passes the independent validator;
//  * whenever the MIP accepts, the walk accepts no later;
//  * the walk decides the same with and without the stored flows of the
//    pinned requests (they only spare it re-routing the component);
//  * steps where the MIP reports infeasible yet the walk finds a validated
//    embedding are counted and printed, not hidden: the target may always
//    be rejected, so an infeasible step MIP is a defect of the model.
// Hand-built steps pin the three kinds of answer (t^s, a pinned end,
// reject) and the flow split's corner cases.
#include <gtest/gtest.h>

#include <iostream>
#include <vector>

#include "greedy/greedy.hpp"
#include "net/topology.hpp"
#include "tvnep/solution.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace tvnep::greedy {
namespace {

constexpr double kTol = 1e-6;
constexpr std::size_t kMaxComponent = 5;

std::string first_error(const core::ValidationResult& v) {
  return v.errors.empty() ? std::string() : v.errors.front();
}

GreedyOptions oracle_options() {
  GreedyOptions options;
  options.per_iteration_time_limit = 120.0;
  options.mip.gap_tolerance = 0.0;
  return options;
}

struct DiffCounts {
  int steps = 0;
  int mip_optimal = 0;
  int mip_accepts = 0;
  int mip_infeasible = 0;
  int mip_infeasible_walk_accepts = 0;
  int walk_accepts = 0;
  int kept_stored = 0;  // accepts that re-embedded the target alone
};

// Feeds a serve-generator trace through steps the way the admission engine
// builds them: the arrival's overlap component, pinned, plus the arrival.
// Arrivals whose component exceeds kMaxComponent are skipped (and so never
// committed), which keeps every step small enough for an exact MIP.
DiffCounts run_differential(std::uint64_t seed, int arrivals) {
  workload::WorkloadParams params;
  params.num_requests = arrivals;
  params.flexibility = 1.5;
  params.seed = seed;
  const workload::ArrivalTrace trace = workload::make_trace(params);
  const net::SubstrateNetwork substrate =
      net::make_grid(params.grid_rows, params.grid_cols, params.node_capacity,
                     params.link_capacity);

  struct Pinned {
    net::VnetRequest request;
    std::vector<net::NodeId> mapping;
    core::RequestEmbedding embedding;  // latest joint embedding
  };
  std::vector<Pinned> committed;
  DiffCounts counts;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const net::VnetRequest& req = trace.requests[i].request;
    const std::vector<net::NodeId>& mapping = *trace.requests[i].mapping;

    std::vector<char> in(committed.size(), 0);
    std::vector<std::size_t> stack;
    const auto overlaps = [](double s1, double e1, double s2, double e2) {
      return s1 < e2 && s2 < e1;
    };
    for (std::size_t c = 0; c < committed.size(); ++c) {
      const net::VnetRequest& p = committed[c].request;
      if (overlaps(p.earliest_start(), p.latest_end(), req.earliest_start(),
                   req.latest_end())) {
        in[c] = 1;
        stack.push_back(c);
      }
    }
    while (!stack.empty()) {
      const net::VnetRequest& a = committed[stack.back()].request;
      stack.pop_back();
      for (std::size_t c = 0; c < committed.size(); ++c) {
        const net::VnetRequest& b = committed[c].request;
        if (in[c] || !overlaps(a.earliest_start(), a.latest_end(),
                               b.earliest_start(), b.latest_end()))
          continue;
        in[c] = 1;
        stack.push_back(c);
      }
    }
    net::TvnepInstance working(substrate, 0.0);
    std::vector<int> force_accept;
    std::vector<std::size_t> component;
    std::vector<core::RequestEmbedding> stored;
    for (std::size_t c = 0; c < committed.size(); ++c) {
      if (!in[c]) continue;
      force_accept.push_back(
          working.add_request(committed[c].request, committed[c].mapping));
      component.push_back(c);
      stored.push_back(committed[c].embedding);
    }
    if (force_accept.size() > kMaxComponent) continue;
    const int target = working.add_request(req, mapping);
    working.fit_horizon();
    ++counts.steps;

    const GreedyStepResult walk = solve_greedy_step(
        working, target, force_accept, {}, GreedyOptions{}, stored);
    const GreedyStepResult fresh =
        solve_greedy_step(working, target, force_accept, {}, GreedyOptions{});
    const GreedyStepResult mip = solve_greedy_step_mip(
        working, target, force_accept, {}, oracle_options());
    const std::string where =
        "seed " + std::to_string(seed) + " arrival " + std::to_string(i);
    EXPECT_TRUE(walk.decided) << where;
    EXPECT_EQ(walk.accepted, fresh.accepted) << where;
    EXPECT_EQ(walk.start, fresh.start) << where;

    // The walk's joint embedding: what it re-embedded, stored flows for
    // the rest.
    core::TvnepSolution joint;
    joint.requests = stored;
    joint.requests.push_back(walk.step.solution.requests.back());
    for (const int k : walk.embedded)
      joint.requests[static_cast<std::size_t>(k)] =
          walk.step.solution.requests[static_cast<std::size_t>(k)];
    if (walk.accepted) {
      ++counts.walk_accepts;
      if (walk.embedded.size() == 1) ++counts.kept_stored;
      const core::ValidationResult valid =
          core::validate_solution(working, joint);
      EXPECT_TRUE(valid.ok) << where << ": " << first_error(valid);
      // Without stored flows the walk re-embeds the whole component.
      EXPECT_EQ(fresh.embedded.size(),
                static_cast<std::size_t>(working.num_requests()))
          << where;
      const core::ValidationResult rerouted =
          core::validate_solution(working, fresh.step.solution);
      EXPECT_TRUE(rerouted.ok) << where << ": " << first_error(rerouted);
    }
    if (mip.step.status == mip::MipStatus::kOptimal) {
      ++counts.mip_optimal;
      EXPECT_EQ(walk.accepted, mip.accepted) << where;
      if (walk.accepted && mip.accepted) {
        EXPECT_NEAR(walk.start, mip.start, kTol) << where;
      }
    }
    if (mip.decided && mip.accepted) {
      ++counts.mip_accepts;
      EXPECT_TRUE(walk.accepted) << where;
      EXPECT_LE(walk.start, mip.start + kTol) << where;
    }
    if (mip.step.status == mip::MipStatus::kInfeasible) {
      ++counts.mip_infeasible;
      if (walk.accepted) ++counts.mip_infeasible_walk_accepts;
    }

    if (walk.accepted) {
      for (std::size_t k = 0; k < component.size(); ++k)
        committed[component[k]].embedding = joint.requests[k];
      Pinned pinned{req, mapping, joint.requests.back()};
      pinned.request.set_temporal(walk.start, walk.end, req.duration());
      committed.push_back(std::move(pinned));
    }
  }
  return counts;
}

class GreedyBreakpointDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyBreakpointDiff, WalkMatchesTheStepMip) {
  const DiffCounts counts = run_differential(GetParam(), 120);
  EXPECT_GT(counts.mip_optimal, counts.steps / 2);
  EXPECT_GT(counts.mip_accepts, 0);
  EXPECT_GT(counts.kept_stored, 0);
  std::cout << "seed " << GetParam() << ": " << counts.steps << " steps, "
            << counts.mip_optimal << " MIP optimal, " << counts.mip_accepts
            << " MIP accepts, " << counts.mip_infeasible
            << " MIP infeasible, of which the walk accepted "
            << counts.mip_infeasible_walk_accepts << " with a validated "
            << "embedding; " << counts.kept_stored << " of "
            << counts.walk_accepts << " walk accepts kept the stored flows\n";
  RecordProperty("steps", counts.steps);
  RecordProperty("mip_infeasible", counts.mip_infeasible);
  RecordProperty("mip_infeasible_walk_accepts",
                 counts.mip_infeasible_walk_accepts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyBreakpointDiff,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---- hand-built steps -----------------------------------------------------

// A - B - C line, both directions, node capacity 2.
net::SubstrateNetwork line_substrate(double link_capacity = 1.0) {
  net::SubstrateNetwork s;
  for (int n = 0; n < 3; ++n) s.add_node(2.0);
  s.add_link(0, 1, link_capacity);
  s.add_link(1, 0, link_capacity);
  s.add_link(1, 2, link_capacity);
  s.add_link(2, 1, link_capacity);
  return s;
}

net::VnetRequest pair_request(const std::string& name, double t_s, double t_e,
                              double d, double link_demand = 1.0) {
  net::VnetRequest r(name);
  r.add_node(1.0);
  r.add_node(1.0);
  r.add_link(0, 1, link_demand);
  r.set_temporal(t_s, t_e, d);
  return r;
}

struct Step {
  net::TvnepInstance working;
  std::vector<int> force_accept;
  int target = -1;
};

// Pinned requests as (request, mapping); the last request is the target.
Step make_step(net::SubstrateNetwork substrate,
               const std::vector<std::pair<net::VnetRequest,
                                           std::vector<net::NodeId>>>& pinned,
               const net::VnetRequest& target,
               const std::vector<net::NodeId>& target_mapping) {
  Step step{net::TvnepInstance(std::move(substrate), 0.0), {}, -1};
  for (const auto& [request, mapping] : pinned)
    step.force_accept.push_back(step.working.add_request(request, mapping));
  step.target = step.working.add_request(target, target_mapping);
  step.working.fit_horizon();
  return step;
}

// Decides the step with the walk, validates an acceptance, and checks the
// answer against the step MIP.
GreedyStepResult decide(const Step& step) {
  const GreedyStepResult walk = solve_greedy_step(
      step.working, step.target, step.force_accept, {}, GreedyOptions{});
  EXPECT_TRUE(walk.decided);
  if (walk.accepted) {
    const core::ValidationResult valid =
        core::validate_solution(step.working, walk.step.solution);
    EXPECT_TRUE(valid.ok) << first_error(valid);
  }
  const GreedyStepResult mip = solve_greedy_step_mip(
      step.working, step.target, step.force_accept, {}, oracle_options());
  EXPECT_EQ(mip.step.status, mip::MipStatus::kOptimal);
  EXPECT_EQ(walk.accepted, mip.accepted);
  if (walk.accepted && mip.accepted) {
    EXPECT_NEAR(walk.start, mip.start, kTol);
  }
  return walk;
}

TEST(GreedyBreakpoint, AcceptsAtEarliestStart) {
  // The pinned request uses A→B; the target needs B→C, which is free.
  const Step step = make_step(line_substrate(),
                              {{pair_request("P", 0.0, 4.0, 4.0), {0, 1}}},
                              pair_request("T", 1.0, 10.0, 2.0), {1, 2});
  const GreedyStepResult r = decide(step);
  ASSERT_TRUE(r.accepted);
  EXPECT_DOUBLE_EQ(r.start, 1.0);
  EXPECT_DOUBLE_EQ(r.end, 3.0);
}

TEST(GreedyBreakpoint, AcceptsAtThePinnedEndThatFreesTheLink) {
  // P1 holds A→B until 4; P2 holds B→C until 3, which frees nothing the
  // target needs. Candidates are 1, 3 and 4: only 4 fits.
  const Step step = make_step(
      line_substrate(),
      {{pair_request("P1", 0.0, 4.0, 4.0), {0, 1}},
       {pair_request("P2", 0.0, 3.0, 3.0), {1, 2}}},
      pair_request("T", 1.0, 10.0, 2.0), {0, 1});
  const GreedyStepResult r = decide(step);
  ASSERT_TRUE(r.accepted);
  EXPECT_DOUBLE_EQ(r.start, 4.0);
  EXPECT_DOUBLE_EQ(r.end, 6.0);
  EXPECT_EQ(r.embedded, (std::vector<int>{0, 1, 2}));
}

TEST(GreedyBreakpoint, RejectsWhenNoCandidateFits) {
  // P holds A→B until 4, but the target must start by 3.
  const Step step = make_step(line_substrate(),
                              {{pair_request("P", 0.0, 4.0, 4.0), {0, 1}}},
                              pair_request("T", 1.0, 5.0, 2.0), {0, 1});
  const GreedyStepResult r = decide(step);
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.embedded.empty());
  EXPECT_EQ(r.step.status, mip::MipStatus::kOptimal);
}

TEST(GreedyBreakpoint, RejectsOnNodeCapacityWithoutAnyLink) {
  // Node loads are constants: two demand-1.5 nodes on one host of
  // capacity 2 never fit together, whatever the links do.
  net::VnetRequest p("P");
  p.add_node(1.5);
  p.set_temporal(0.0, 4.0, 4.0);
  net::VnetRequest t("T");
  t.add_node(1.5);
  t.set_temporal(0.0, 5.0, 2.0);
  const Step step = make_step(line_substrate(), {{p, {0}}}, t, {0});
  EXPECT_FALSE(decide(step).accepted);
}

TEST(GreedyBreakpoint, ReroutesPinnedFlowsToMakeRoom) {
  // Triangle A→C direct or A→B→C, every link capacity 1. The pinned
  // request may hold either route; the target fits only if the two take
  // different ones, so the step must re-embed the pinned flow.
  net::SubstrateNetwork s;
  for (int n = 0; n < 3; ++n) s.add_node(4.0);
  s.add_link(0, 2, 1.0);
  s.add_link(0, 1, 1.0);
  s.add_link(1, 2, 1.0);
  const Step step = make_step(std::move(s),
                              {{pair_request("P", 0.0, 4.0, 4.0), {0, 2}}},
                              pair_request("T", 0.0, 6.0, 2.0), {0, 2});
  const GreedyStepResult r = decide(step);
  ASSERT_TRUE(r.accepted);
  EXPECT_DOUBLE_EQ(r.start, 0.0);
}

TEST(GreedyBreakpoint, SplitsSinkGroupedStarsWithSharedHosts) {
  // A star pointing at its center, two leaves on one host: grouped by
  // sink it is one commodity with two sources of different demand, and
  // the split must hand each virtual link its own unit flow.
  net::SubstrateNetwork s = net::make_grid(2, 3, 10.0, 2.5);
  net::VnetRequest star("S");
  for (int v = 0; v < 4; ++v) star.add_node(1.0);
  star.add_link(1, 0, 1.0);
  star.add_link(2, 0, 1.5);
  star.add_link(3, 0, 2.0);
  star.set_temporal(0.0, 3.0, 2.0);
  const Step step = make_step(std::move(s), {}, star, {5, 0, 0, 2});
  const GreedyStepResult r = decide(step);
  ASSERT_TRUE(r.accepted);
  const core::RequestEmbedding& emb = r.step.solution.requests[0];
  ASSERT_EQ(emb.link_flow.size(), 3u * 14u);
}

TEST(GreedyBreakpoint, RoutesZeroDemandAndColocatedLinks) {
  // A zero-demand link still needs a unit path; a link whose ends share a
  // host needs none. Both must satisfy the validator's conservation.
  net::VnetRequest r("Z");
  for (int v = 0; v < 3; ++v) r.add_node(0.5);
  r.add_link(0, 1, 0.0);
  r.add_link(1, 2, 1.0);
  r.set_temporal(0.0, 2.0, 1.0);
  const Step step = make_step(line_substrate(), {}, r, {0, 2, 2});
  const GreedyStepResult walk = decide(step);
  ASSERT_TRUE(walk.accepted);
}

TEST(GreedyBreakpoint, ExhaustedBudgetLeavesTheStepUndecided) {
  const Step step = make_step(line_substrate(),
                              {{pair_request("P", 0.0, 4.0, 4.0), {0, 1}}},
                              pair_request("T", 1.0, 10.0, 2.0), {0, 1});
  GreedyOptions options;
  options.per_iteration_time_limit = 1e-12;
  const GreedyStepResult r = solve_greedy_step(
      step.working, step.target, step.force_accept, {}, options);
  EXPECT_FALSE(r.decided);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.step.status, mip::MipStatus::kTimeLimit);
}

TEST(GreedyBreakpoint, UnmappedOrFlexibleStepsKeepTheMip) {
  net::TvnepInstance working(line_substrate(), 0.0);
  const int pinned = working.add_request(pair_request("P", 0.0, 4.0, 4.0),
                                         std::vector<net::NodeId>{0, 1});
  const int target = working.add_request(pair_request("T", 1.0, 10.0, 2.0));
  working.fit_horizon();
  EXPECT_FALSE(step_walk_applies(working, target, {pinned}, {}));

  net::TvnepInstance flexible(line_substrate(), 0.0);
  const int open = flexible.add_request(pair_request("P", 0.0, 6.0, 4.0),
                                        std::vector<net::NodeId>{0, 1});
  const int t2 = flexible.add_request(pair_request("T", 1.0, 10.0, 2.0),
                                      std::vector<net::NodeId>{0, 1});
  flexible.fit_horizon();
  EXPECT_FALSE(step_walk_applies(flexible, t2, {open}, {}));
  EXPECT_TRUE(step_walk_applies(flexible, t2, {}, {open}));
}

}  // namespace
}  // namespace tvnep::greedy
