#include "greedy/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "tvnep/solver.hpp"

namespace tvnep::greedy {

double GreedyResult::max_iteration_seconds() const {
  double worst = 0.0;
  for (double s : iteration_seconds) worst = std::max(worst, s);
  return worst;
}

GreedyStepResult solve_greedy_step_mip(const net::TvnepInstance& working,
                                       int target,
                                       const std::vector<int>& force_accept,
                                       const std::vector<int>& force_reject,
                                       const GreedyOptions& options) {
  core::SolveParams params;
  params.build.objective = core::ObjectiveKind::kGreedyStep;
  params.build.greedy_target = target;
  params.build.dependency_cuts = options.dependency_cuts;
  params.build.force_accept = force_accept;
  params.build.force_reject = force_reject;
  params.time_limit_seconds = options.per_iteration_time_limit;
  params.mip = options.mip;

  GreedyStepResult result;
  result.step = core::solve(working, core::ModelKind::kCSigma, params);
  result.decided = result.step.has_solution;
  if (result.step.has_solution) {
    const auto& emb =
        result.step.solution.requests[static_cast<std::size_t>(target)];
    if (emb.accepted) {
      result.embedded.resize(static_cast<std::size_t>(working.num_requests()));
      std::iota(result.embedded.begin(), result.embedded.end(), 0);
    }
    result.accepted = emb.accepted;
    result.start = emb.start;
    result.end = emb.end;
  }
  return result;
}

GreedyResult solve_greedy(const net::TvnepInstance& instance,
                          const GreedyOptions& options) {
  Stopwatch watch;
  GreedyResult result;
  const int num_r = instance.num_requests();

  // L ← R ordered by earliest start t^s.
  std::vector<int> order(static_cast<std::size_t>(num_r));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return instance.request(a).earliest_start() <
           instance.request(b).earliest_start();
  });

  // Working copy: windows of decided requests get pinned as we go.
  // The sub-instance of iteration i holds order[0..i] in processing order.
  net::TvnepInstance working(instance.substrate(), instance.horizon());
  std::vector<int> sub_to_original;  // sub index → original request index

  std::vector<int> accepted_subs, rejected_subs;
  // Latest embedding per sub index: a step re-embeds only what it lists
  // in `embedded`, and everything else keeps flows that share no time
  // with it, so the union stays jointly feasible.
  std::vector<core::RequestEmbedding> current;

  for (std::size_t i = 0; i < order.size(); ++i) {
    // Honor the soft-cancel seam between iterations too: a watchdog-fired
    // flag would otherwise keep launching step solves that each return
    // kTimeLimit immediately, one per remaining request.
    if (options.mip.cancel != nullptr &&
        options.mip.cancel->load(std::memory_order_relaxed)) {
      result.complete = false;
      break;
    }
    const int original = order[i];
    const auto& req = instance.request(original);
    if (instance.has_fixed_mapping(original))
      working.add_request(req, instance.fixed_mapping(original));
    else
      working.add_request(req);
    sub_to_original.push_back(original);
    const int target = static_cast<int>(i);

    Stopwatch iteration_watch;
    const GreedyStepResult step = solve_greedy_step(
        working, target, accepted_subs, rejected_subs, options, current);
    result.iteration_seconds.push_back(iteration_watch.seconds());

    current.resize(static_cast<std::size_t>(target) + 1);
    for (const int sub : step.embedded)
      current[static_cast<std::size_t>(sub)] =
          step.step.solution.requests[static_cast<std::size_t>(sub)];
    if (step.accepted) {
      // Pin the schedule: the request must run at exactly these times in
      // all later iterations (its flexibility collapses).
      working.mutable_request(target).set_temporal(step.start, step.end,
                                                   req.duration());
      accepted_subs.push_back(target);
    } else {
      // Rejected requests still receive fixed times (Definition 2.1):
      // t^+ = t^s, t^- = t^s + d.
      auto& emb = current[static_cast<std::size_t>(target)];
      emb = core::RequestEmbedding{};
      emb.start = req.earliest_start();
      emb.end = req.earliest_start() + req.duration();
      working.mutable_request(target).set_temporal(emb.start, emb.end,
                                                   req.duration());
      rejected_subs.push_back(target);
    }
    if (step.step.status != mip::MipStatus::kOptimal) result.complete = false;
  }

  // Assemble the final solution in original request order.
  result.solution.requests.resize(static_cast<std::size_t>(num_r));
  for (int r = 0; r < num_r; ++r) {
    auto& emb = result.solution.requests[static_cast<std::size_t>(r)];
    emb.accepted = false;
    emb.start = instance.request(r).earliest_start();
    emb.end = emb.start + instance.request(r).duration();
  }
  for (std::size_t sub = 0; sub < current.size(); ++sub)
    result.solution.requests[static_cast<std::size_t>(sub_to_original[sub])] =
        current[sub];
  result.accepted = result.solution.num_accepted();
  result.solution.objective = result.solution.revenue(instance);
  result.total_seconds = watch.seconds();
  return result;
}

}  // namespace tvnep::greedy
