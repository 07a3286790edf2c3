// Backend equivalence harness: the sparse-LU and dense-inverse basis
// backends must be interchangeable — same statuses, same objectives, and
// (the LPs here have deterministic pivot paths) the same primal/dual
// solutions — across random LPs, degenerate/rank-deficient constructions,
// and the LP relaxations of real TVNEP models.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "lp/simplex.hpp"
#include "mip/model.hpp"
#include "support/rng.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"

namespace tvnep::lp {
namespace {

struct BackendRun {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> primal;
  std::vector<double> duals;
};

BackendRun run_with(const Problem& p, BasisBackend backend) {
  SimplexOptions options;
  options.basis = backend;
  Simplex s(p, options);
  BackendRun run;
  run.status = s.solve();
  if (run.status == SolveStatus::kOptimal) {
    run.objective = s.objective();
    run.primal = s.primal_solution();
    for (int i = 0; i < p.matrix().rows(); ++i)
      run.duals.push_back(s.dual_value(i));
  }
  return run;
}

void expect_equivalent(const Problem& p, const char* what) {
  const BackendRun sparse = run_with(p, BasisBackend::kSparseLu);
  const BackendRun dense = run_with(p, BasisBackend::kDenseInverse);
  ASSERT_EQ(sparse.status, dense.status)
      << what << ": sparse=" << to_string(sparse.status)
      << " dense=" << to_string(dense.status);
  if (sparse.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << what;
  ASSERT_EQ(sparse.primal.size(), dense.primal.size()) << what;
  for (std::size_t j = 0; j < sparse.primal.size(); ++j)
    EXPECT_NEAR(sparse.primal[j], dense.primal[j], 1e-6)
        << what << " primal[" << j << "]";
  ASSERT_EQ(sparse.duals.size(), dense.duals.size()) << what;
  for (std::size_t i = 0; i < sparse.duals.size(); ++i)
    EXPECT_NEAR(sparse.duals[i], dense.duals[i], 1e-6)
        << what << " dual[" << i << "]";
}

bool primal_feasible(const Problem& p, const std::vector<double>& x,
                     double tol) {
  for (int j = 0; j < p.num_columns(); ++j) {
    const auto& col = p.column(j);
    if (x[static_cast<std::size_t>(j)] < col.lower - tol) return false;
    if (x[static_cast<std::size_t>(j)] > col.upper + tol) return false;
  }
  for (int i = 0; i < p.matrix().rows(); ++i) {
    double activity = 0.0;
    for (const auto& e : p.matrix().row(i))
      activity += e.value * x[static_cast<std::size_t>(e.index)];
    if (activity < p.row(i).lower - tol) return false;
    if (activity > p.row(i).upper + tol) return false;
  }
  return true;
}

// Degenerate LPs can hold alternate optimal vertices, so the two backends
// may legitimately return different primal points; what must agree is the
// status and objective, and each backend's point must be feasible.
void expect_equivalent_objective(const Problem& p, const char* what) {
  const BackendRun sparse = run_with(p, BasisBackend::kSparseLu);
  const BackendRun dense = run_with(p, BasisBackend::kDenseInverse);
  ASSERT_EQ(sparse.status, dense.status)
      << what << ": sparse=" << to_string(sparse.status)
      << " dense=" << to_string(dense.status);
  if (sparse.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << what;
  EXPECT_TRUE(primal_feasible(p, sparse.primal, 1e-6)) << what;
  EXPECT_TRUE(primal_feasible(p, dense.primal, 1e-6)) << what;
}

Problem random_lp(Rng& rng, int n, int m) {
  Problem p;
  for (int j = 0; j < n; ++j) {
    const double lo = static_cast<double>(rng.uniform_int(-3, 1));
    const double hi = lo + static_cast<double>(rng.uniform_int(0, 4));
    p.add_column(lo, hi, static_cast<double>(rng.uniform_int(-3, 3)));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coeffs;
    for (int j = 0; j < n; ++j) {
      const double c = static_cast<double>(rng.uniform_int(-3, 3));
      if (c != 0.0) coeffs.emplace_back(j, c);
    }
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const double b = static_cast<double>(rng.uniform_int(-4, 6));
    if (kind == 0) p.add_row(-kInfinity, b, coeffs);
    else if (kind == 1) p.add_row(b, kInfinity, coeffs);
    else p.add_row(b, b, coeffs);
  }
  p.finalize();
  return p;
}

TEST(SimplexBackend, RandomLpsAgree) {
  Rng rng(4242);
  int optimal = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    const int m = static_cast<int>(rng.uniform_int(1, 6));
    const Problem p = random_lp(rng, n, m);
    const BackendRun sparse = run_with(p, BasisBackend::kSparseLu);
    if (sparse.status == SolveStatus::kOptimal) ++optimal;
    expect_equivalent(p, "random trial");
    if (::testing::Test::HasFatalFailure()) FAIL() << "trial " << trial;
  }
  EXPECT_GT(optimal, 60);  // the generator must exercise the optimal path
}

TEST(SimplexBackend, DegenerateLpAgrees) {
  // Heavily degenerate: the optimal vertex is over-determined (every row
  // is tight there and duplicated), so the basis walks through many
  // zero-step pivots before terminating.
  Problem p;
  for (int j = 0; j < 4; ++j) p.add_column(0.0, 10.0, -1.0);
  for (int rep = 0; rep < 3; ++rep) {
    p.add_row(-kInfinity, 4.0, {{0, 1.0}, {1, 1.0}});
    p.add_row(-kInfinity, 4.0, {{1, 1.0}, {2, 1.0}});
    p.add_row(-kInfinity, 4.0, {{2, 1.0}, {3, 1.0}});
    p.add_row(-kInfinity, 4.0, {{3, 1.0}, {0, 1.0}});
  }
  p.finalize();
  expect_equivalent(p, "degenerate");
}

TEST(SimplexBackend, RankDeficientRowsAgree) {
  // Row 2 = row 0 + row 1: any basis containing all three constraint
  // slacks' complements is singular, so factorization must steer around
  // the dependency identically in both backends.
  Problem p;
  for (int j = 0; j < 3; ++j) p.add_column(0.0, 5.0, -1.0);
  p.add_row(-kInfinity, 6.0, {{0, 1.0}, {1, 2.0}});
  p.add_row(-kInfinity, 5.0, {{1, -1.0}, {2, 1.0}});
  p.add_row(-kInfinity, 11.0, {{0, 1.0}, {1, 1.0}, {2, 1.0}});
  p.finalize();
  expect_equivalent(p, "rank-deficient");
}

TEST(SimplexBackend, FixedColumnsAgree) {
  // Half the columns fixed (lb == ub), so pricing skips them: both
  // backends must reach the same optimum.
  Problem p;
  for (int j = 0; j < 6; ++j) {
    const bool fixed = j % 2 == 1;
    p.add_column(fixed ? 1.0 : 0.0, fixed ? 1.0 : 4.0, j % 3 == 0 ? -2.0 : 1.0);
  }
  p.add_row(-kInfinity, 9.0,
            {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}, {5, 1.0}});
  p.add_row(2.0, kInfinity, {{0, 1.0}, {2, 1.0}, {4, 1.0}});
  p.finalize();
  expect_equivalent(p, "fixed columns");
}

TEST(SimplexBackend, TvnepRelaxationsAgree) {
  // LP relaxations of real grid/star TVNEP models — the workload the node
  // LPs actually see, big-M time-linking rows included.
  workload::WorkloadParams params;
  params.grid_rows = 2;
  params.grid_cols = 2;
  params.star_leaves = 2;
  params.num_requests = 3;
  params.seed = 5;
  params.flexibility = 1.0;
  const net::TvnepInstance instance = workload::generate_workload(params);
  for (const core::ModelKind kind :
       {core::ModelKind::kDelta, core::ModelKind::kSigma,
        core::ModelKind::kCSigma}) {
    const auto formulation = core::build_formulation(instance, kind, {});
    std::vector<bool> is_integer;
    const Problem p = formulation->model().to_lp(&is_integer);
    expect_equivalent_objective(p, "tvnep relaxation");
    if (::testing::Test::HasFatalFailure())
      FAIL() << "model kind " << static_cast<int>(kind);
  }
}

TEST(SimplexBackend, WarmStartSequencesAgree) {
  // Drive both backends through the same branch-and-bound-style sequence
  // of bound tightenings; the warm-started dual simplex must keep the two
  // in lockstep (statuses and objectives) the whole way.
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 7));
    const int m = static_cast<int>(rng.uniform_int(2, 5));
    const Problem p = random_lp(rng, n, m);
    SimplexOptions sparse_opts, dense_opts;
    sparse_opts.basis = BasisBackend::kSparseLu;
    dense_opts.basis = BasisBackend::kDenseInverse;
    Simplex sparse(p, sparse_opts);
    Simplex dense(p, dense_opts);
    for (int step = 0; step < 12; ++step) {
      const int j = static_cast<int>(rng.uniform_int(0, n - 1));
      const double lo = p.column(j).lower;
      const double hi = p.column(j).upper;
      double a = lo + (hi - lo) * rng.uniform01();
      double b = lo + (hi - lo) * rng.uniform01();
      if (a > b) std::swap(a, b);
      if (rng.uniform01() < 0.25) {
        sparse.reset_bounds();
        dense.reset_bounds();
      } else {
        sparse.set_bounds(j, a, b);
        dense.set_bounds(j, a, b);
      }
      const SolveStatus ss = sparse.solve();
      const SolveStatus ds = dense.solve();
      ASSERT_EQ(ss, ds) << "trial " << trial << " step " << step;
      if (ss == SolveStatus::kOptimal)
        EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-6)
            << "trial " << trial << " step " << step;
    }
  }
}

}  // namespace
}  // namespace tvnep::lp
