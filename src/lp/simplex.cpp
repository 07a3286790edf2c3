#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace tvnep::lp {

namespace {
constexpr double kInf = kInfinity;

bool finite(double v) { return std::isfinite(v); }
}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kTimeLimit: return "time-limit";
    case SolveStatus::kNumericalFailure: return "numerical-failure";
  }
  return "unknown";
}

Simplex::Simplex(const Problem& problem, SimplexOptions options)
    : problem_(&problem), options_(std::move(options)) {
  TVNEP_REQUIRE(problem.finalized(), "Simplex requires a finalized problem");
  if (options_.scaling) build_scaling(problem);
  const int n = num_structural();
  const int m = num_rows();
  lower_.resize(static_cast<std::size_t>(n + m));
  upper_.resize(static_cast<std::size_t>(n + m));
  reset_bounds();
  x_.assign(static_cast<std::size_t>(n + m), 0.0);
  status_.assign(static_cast<std::size_t>(n + m), VarStatus::kAtLower);
  duals_.assign(static_cast<std::size_t>(m), 0.0);
  if (options_.max_iterations <= 0)
    options_.max_iterations = std::max(20000, 60 * (n + m));
  if (options_.max_dual_iterations <= 0)
    options_.max_dual_iterations = std::max(2000, 4 * m);
  switch (options_.basis) {
    case BasisBackend::kDenseInverse:
      factor_ = std::make_unique<linalg::DenseInverseBasis>();
      obs::counter_add("lp.basis.backend.dense_inverse");
      break;
    case BasisBackend::kSparseLu:
      factor_ = std::make_unique<linalg::SparseLuBasis>(
          std::max(1, options_.refactor_interval));
      obs::counter_add("lp.basis.backend.sparse_lu");
      break;
  }
}

// Geometric-mean equilibration of the constraint matrix. Two sweeps of
// row-then-column scale refinement, then every factor is rounded to the
// nearest power of two so applying (and inverting) the scaling is exact in
// floating point. When every rounded factor is 1 the matrix was already
// well scaled and the copy is skipped entirely — clean instances pay only
// the analysis sweep, once per Simplex lifetime.
void Simplex::build_scaling(const Problem& problem) {
  const int m = problem.num_rows();
  const int n = problem.num_columns();
  if (m == 0 || n == 0) return;
  const auto& matrix = problem.matrix();
  std::vector<double> rs(static_cast<std::size_t>(m), 1.0);
  std::vector<double> cs(static_cast<std::size_t>(n), 1.0);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < m; ++i) {
      double lo = kInf, hi = 0.0;
      for (const auto& entry : matrix.row(i)) {
        const double a = std::fabs(entry.value) *
                         rs[static_cast<std::size_t>(i)] *
                         cs[static_cast<std::size_t>(entry.index)];
        if (a == 0.0) continue;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
      if (hi > 0.0) rs[static_cast<std::size_t>(i)] /= std::sqrt(lo * hi);
    }
    for (int j = 0; j < n; ++j) {
      double lo = kInf, hi = 0.0;
      for (const auto& entry : matrix.column(j)) {
        const double a = std::fabs(entry.value) *
                         rs[static_cast<std::size_t>(entry.index)] *
                         cs[static_cast<std::size_t>(j)];
        if (a == 0.0) continue;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
      if (hi > 0.0) cs[static_cast<std::size_t>(j)] /= std::sqrt(lo * hi);
    }
  }
  auto round_pow2 = [](double s) { return std::exp2(std::round(std::log2(s))); };
  bool any = false;
  for (double& s : rs) {
    s = round_pow2(s);
    if (s != 1.0) any = true;
  }
  for (double& s : cs) {
    s = round_pow2(s);
    if (s != 1.0) any = true;
  }
  if (!any) return;

  // Scaled data: A' = R A C and c' = C c, x = C x'. The scaled objective
  // c'^T x' equals the original c^T x exactly (power-of-two factors cancel
  // without rounding). Bounds are converted on the fly by reset_bounds /
  // set_bounds, so only the matrix and cost vector are materialized.
  scaled_matrix_ = matrix;
  scaled_matrix_.scale(rs, cs);
  scaled_cost_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    scaled_cost_[static_cast<std::size_t>(j)] =
        problem.column(j).cost * cs[static_cast<std::size_t>(j)];
  row_scale_ = std::move(rs);
  col_scale_ = std::move(cs);
  scaled_ = true;
  obs::counter_add("lp.scaled_problems");
}

void Simplex::set_bounds(int j, double lo, double hi) {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "set_bounds: bad column");
  TVNEP_REQUIRE(lo <= hi, "set_bounds: crossed bounds");
  const double s = col_scale(j);
  lower_[static_cast<std::size_t>(j)] = lo / s;
  upper_[static_cast<std::size_t>(j)] = hi / s;
}

void Simplex::reset_bounds() {
  const int n = num_structural();
  const int m = num_rows();
  for (int j = 0; j < n; ++j) {
    const double s = col_scale(j);
    lower_[static_cast<std::size_t>(j)] = problem_->column(j).lower / s;
    upper_[static_cast<std::size_t>(j)] = problem_->column(j).upper / s;
  }
  for (int i = 0; i < m; ++i) {
    const double s = row_scale(i);
    lower_[static_cast<std::size_t>(n + i)] = problem_->row(i).lower * s;
    upper_[static_cast<std::size_t>(n + i)] = problem_->row(i).upper * s;
  }
}

double Simplex::working_lower(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "working_lower: bad column");
  return lower_[static_cast<std::size_t>(j)] * col_scale(j);
}

double Simplex::working_upper(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "working_upper: bad column");
  return upper_[static_cast<std::size_t>(j)] * col_scale(j);
}

void Simplex::set_cost(int j, double cost) {
  const_cast<Problem*>(problem_)->set_cost(j, cost);
  if (scaled_)
    scaled_cost_[static_cast<std::size_t>(j)] = cost * col_scale(j);
}

double Simplex::var_cost(int v) const {
  return is_slack(v) ? 0.0 : struct_cost(v);
}

void Simplex::ftran(int v, std::vector<double>& alpha) const {
  const int m = num_rows();
  alpha.assign(static_cast<std::size_t>(m), 0.0);
  if (is_slack(v)) {
    alpha[static_cast<std::size_t>(v - num_structural())] = -1.0;
  } else {
    for (const auto& entry : mat().column(v))
      alpha[static_cast<std::size_t>(entry.index)] = entry.value;
  }
  factor_->ftran(alpha);
}

double Simplex::column_dot(int v, const std::vector<double>& y) const {
  if (is_slack(v)) return -y[static_cast<std::size_t>(v - num_structural())];
  double sum = 0.0;
  for (const auto& entry : mat().column(v))
    sum += entry.value * y[static_cast<std::size_t>(entry.index)];
  return sum;
}

void Simplex::cold_start() {
  const int n = num_structural();
  const int m = num_rows();
  basis_.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    basis_[static_cast<std::size_t>(i)] = n + i;
    status_[static_cast<std::size_t>(n + i)] = VarStatus::kBasic;
  }
  for (int j = 0; j < n; ++j) {
    const double lo = lower(j);
    const double hi = upper(j);
    auto& st = status_[static_cast<std::size_t>(j)];
    if (finite(lo)) {
      st = VarStatus::kAtLower;
      x_[static_cast<std::size_t>(j)] = lo;
    } else if (finite(hi)) {
      st = VarStatus::kAtUpper;
      x_[static_cast<std::size_t>(j)] = hi;
    } else {
      st = VarStatus::kFree;
      x_[static_cast<std::size_t>(j)] = 0.0;
    }
  }
  // B = -I (every slack column is -e_i), which factorizes unconditionally.
  const bool ok = factorize_basis();
  TVNEP_REQUIRE(ok, "cold start: all-slack basis failed to factorize");
  has_basis_ = true;
  degenerate_streak_ = 0;
}

void Simplex::compute_basic_values() {
  const int n = num_structural();
  const int m = num_rows();
  // rhs = b - N x_N with b = 0.
  std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
  for (int v = 0; v < n + m; ++v) {
    if (status_[static_cast<std::size_t>(v)] == VarStatus::kBasic) continue;
    const double xv = x_[static_cast<std::size_t>(v)];
    if (xv == 0.0) continue;
    if (is_slack(v)) {
      rhs[static_cast<std::size_t>(v - n)] += xv;  // -(-1) * x
    } else {
      for (const auto& entry : mat().column(v))
        rhs[static_cast<std::size_t>(entry.index)] -= entry.value * xv;
    }
  }
  factor_->ftran(rhs);
  for (int i = 0; i < m; ++i)
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        rhs[static_cast<std::size_t>(i)];
}

void Simplex::compute_duals_phase2(std::vector<double>& y) const {
  const int m = num_rows();
  // y = B^-T c_B: load the basic costs in basis-position space and BTRAN.
  y.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i)
    y[static_cast<std::size_t>(i)] =
        var_cost(basis_[static_cast<std::size_t>(i)]);
  factor_->btran(y);
}

void Simplex::compute_duals_phase1(std::vector<double>& y) const {
  const int m = num_rows();
  const double tol = options_.feasibility_tol;
  y.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    const int v = basis_[static_cast<std::size_t>(i)];
    const double xv = x_[static_cast<std::size_t>(v)];
    double w = 0.0;
    if (xv < lower(v) - tol) w = -1.0;
    else if (xv > upper(v) + tol) w = 1.0;
    y[static_cast<std::size_t>(i)] = w;
  }
  factor_->btran(y);
}

double Simplex::infeasibility() const {
  double total = 0.0;
  for (int i = 0; i < num_rows(); ++i) {
    const int v = basis_[static_cast<std::size_t>(i)];
    const double xv = x_[static_cast<std::size_t>(v)];
    if (xv < lower(v)) total += lower(v) - xv;
    else if (xv > upper(v)) total += xv - upper(v);
  }
  return total;
}

void Simplex::rebuild_pricing() {
  const int total = num_vars();
  pricing_candidates_.clear();
  pricing_candidates_.reserve(static_cast<std::size_t>(total));
  for (int v = 0; v < total; ++v) {
    // Fixed columns (lb == ub under the working bounds) can never
    // profitably enter; they stay out of the candidate list so pricing
    // never visits them. Presolve substitutes input-fixed columns away
    // before the LP even reaches the solver; the ones excluded here are
    // branch-and-bound fixings applied through set_bounds.
    if (!options_.price_fixed_columns && upper(v) - lower(v) < 1e-14)
      continue;
    pricing_candidates_.push_back(v);
  }
  pricing_cursor_ = 0;
  if (options_.pricing == PricingRule::kDevex)
    devex_weights_.assign(static_cast<std::size_t>(total), 1.0);
}

int Simplex::price(Phase phase, const std::vector<double>& y, bool bland,
                   double* direction) const {
  const double tol = options_.optimality_tol;
  *direction = 0.0;
  const std::size_t count = pricing_candidates_.size();
  if (count == 0) return -1;

  // Admissibility + reduced cost of one candidate. Returns the entering
  // direction (0 when the variable cannot improve).
  auto reduced = [&](int v, double* d_out) -> double {
    const VarStatus st = status_[static_cast<std::size_t>(v)];
    if (st == VarStatus::kBasic) return 0.0;
    if (upper(v) - lower(v) < 1e-14) return 0.0;  // fixed
    const double c = (phase == Phase::kPhase2) ? var_cost(v) : 0.0;
    const double d = c - column_dot(v, y);
    double dir = 0.0;
    if (st == VarStatus::kAtLower && d < -tol) dir = 1.0;
    else if (st == VarStatus::kAtUpper && d > tol) dir = -1.0;
    else if (st == VarStatus::kFree && std::fabs(d) > tol) dir = d > 0 ? -1.0 : 1.0;
    *d_out = d;
    return dir;
  };

  if (bland) {
    // Bland's rule: lowest-index admissible candidate, scanned in index
    // order from the start (the cursor must not influence anti-cycling).
    for (const int v : pricing_candidates_) {
      double d = 0.0;
      const double dir = reduced(v, &d);
      if (dir != 0.0) {
        *direction = dir;
        return v;
      }
    }
    return -1;
  }

  if (options_.pricing == PricingRule::kDevex) {
    int best = -1;
    double best_score = 0.0;
    double best_dir = 0.0;
    for (const int v : pricing_candidates_) {
      double d = 0.0;
      const double dir = reduced(v, &d);
      if (dir == 0.0) continue;
      const double w =
          std::max(devex_weights_[static_cast<std::size_t>(v)], 1e-12);
      const double score = d * d / w;
      if (best < 0 || score > best_score) {
        best_score = score;
        best = v;
        best_dir = dir;
      }
    }
    *direction = best_dir;
    return best;
  }

  // Dantzig scoring. kDantzig scans the whole candidate list; the partial
  // rule scans rotating windows from the cursor and takes the best of the
  // first window containing an admissible candidate, so an iteration
  // typically prices a fraction of the columns. Optimality is only
  // declared after a full-list scan finds nothing.
  const std::size_t window =
      options_.pricing == PricingRule::kDantzig
          ? count
          : std::max<std::size_t>(64, count / 8);
  std::size_t scanned = 0;
  while (scanned < count) {
    const std::size_t chunk = std::min(window, count - scanned);
    int best = -1;
    double best_score = tol;
    double best_dir = 0.0;
    for (std::size_t t = 0; t < chunk; ++t) {
      const int v =
          pricing_candidates_[(pricing_cursor_ + scanned + t) % count];
      double d = 0.0;
      const double dir = reduced(v, &d);
      if (dir == 0.0) continue;
      const double score = std::fabs(d);
      if (score > best_score) {
        best_score = score;
        best = v;
        best_dir = dir;
      }
    }
    scanned += chunk;
    if (best >= 0) {
      pricing_cursor_ = (pricing_cursor_ + scanned) % count;
      *direction = best_dir;
      return best;
    }
  }
  return -1;
}

Simplex::RatioResult Simplex::ratio_test(Phase /*phase*/, int entering,
                                         double direction,
                                         const std::vector<double>& alpha) const {
  const double ftol = options_.feasibility_tol;
  const double ptol = options_.pivot_tol;
  RatioResult best;
  double best_step = kInf;  // tightest block from a basic variable
  double best_pivot_mag = 0.0;

  // Entering variable's own opposite bound (bound flip candidate).
  const double range = upper(entering) - lower(entering);
  const bool own_bound_limits = finite(range);

  for (int i = 0; i < num_rows(); ++i) {
    const double a = alpha[static_cast<std::size_t>(i)];
    if (std::fabs(a) <= ptol) continue;
    const double delta = -a * direction;  // rate of change of basic value
    const int v = basis_[static_cast<std::size_t>(i)];
    const double xv = x_[static_cast<std::size_t>(v)];
    const double lo = lower(v);
    const double hi = upper(v);

    double step = kInf;
    double target = 0.0;
    VarStatus target_status = VarStatus::kAtLower;
    if (xv < lo - ftol) {
      // Infeasible below: blocks only when rising to its lower bound.
      if (delta > 0.0) {
        step = (lo - xv) / delta;
        target = lo;
        target_status = VarStatus::kAtLower;
      }
    } else if (xv > hi + ftol) {
      // Infeasible above: blocks only when falling to its upper bound.
      if (delta < 0.0) {
        step = (hi - xv) / delta;
        target = hi;
        target_status = VarStatus::kAtUpper;
      }
    } else if (delta > 0.0) {
      if (finite(hi)) {
        step = (hi - xv) / delta;
        target = hi;
        target_status = VarStatus::kAtUpper;
      }
    } else {
      if (finite(lo)) {
        step = (lo - xv) / delta;  // delta < 0, lo - xv <= 0 → step >= 0
        target = lo;
        target_status = VarStatus::kAtLower;
      }
    }
    if (!finite(step)) continue;
    step = std::max(step, 0.0);
    const double mag = std::fabs(a);
    if (step < best_step - 1e-12 ||
        (step < best_step + 1e-12 && mag > best_pivot_mag)) {
      best_step = step;
      best_pivot_mag = mag;
      best.leaving_row = i;
      best.leaving_target = target;
      best.leaving_status = target_status;
    }
  }

  if (own_bound_limits && range <= best_step) {
    // The entering variable reaches its opposite bound first: bound flip,
    // no basis change.
    best.blocked = true;
    best.bound_flip = true;
    best.leaving_row = -1;
    best.step = range;
    return best;
  }
  if (!finite(best_step)) return best;  // unbounded direction
  best.blocked = true;
  best.step = best_step;
  return best;
}

void Simplex::apply_bound_flip(int entering, double direction, double step,
                               const std::vector<double>& alpha) {
  for (int i = 0; i < num_rows(); ++i) {
    const double a = alpha[static_cast<std::size_t>(i)];
    if (a == 0.0) continue;
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
        a * direction * step;
  }
  auto& st = status_[static_cast<std::size_t>(entering)];
  if (direction > 0.0) {
    st = VarStatus::kAtUpper;
    x_[static_cast<std::size_t>(entering)] = upper(entering);
  } else {
    st = VarStatus::kAtLower;
    x_[static_cast<std::size_t>(entering)] = lower(entering);
  }
}

void Simplex::update_devex(int entering, int leaving_row,
                           const std::vector<double>& alpha,
                           std::vector<double>& rho) {
  const int m = num_rows();
  const double apiv = alpha[static_cast<std::size_t>(leaving_row)];
  if (std::fabs(apiv) < 1e-12) return;
  const double wq =
      std::max(devex_weights_[static_cast<std::size_t>(entering)], 1.0);
  const double inv_apiv2 = 1.0 / (apiv * apiv);
  // rho = B^-T e_r of the *outgoing* basis gives the pivot row needed for
  // the reference-weight propagation.
  rho.assign(static_cast<std::size_t>(m), 0.0);
  rho[static_cast<std::size_t>(leaving_row)] = 1.0;
  factor_->btran(rho);
  double max_weight = 0.0;
  for (const int v : pricing_candidates_) {
    const auto uv = static_cast<std::size_t>(v);
    if (v == entering || status_[uv] == VarStatus::kBasic) continue;
    const double arj = column_dot(v, rho);
    if (arj != 0.0) {
      const double cand = wq * arj * arj * inv_apiv2;
      if (cand > devex_weights_[uv]) devex_weights_[uv] = cand;
    }
    max_weight = std::max(max_weight, devex_weights_[uv]);
  }
  const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
  devex_weights_[static_cast<std::size_t>(leaving)] =
      std::max(wq * inv_apiv2, 1.0);
  devex_weights_[static_cast<std::size_t>(entering)] = 1.0;
  if (max_weight > 1e7) {
    // Weights have drifted far from the reference framework: restart it.
    std::fill(devex_weights_.begin(), devex_weights_.end(), 1.0);
    obs::counter_add("lp.pricing.devex_resets");
  }
}

bool Simplex::apply_basis_update(int leaving_row,
                                 const std::vector<double>& alpha) {
  if (options_.basis_update_fault_hook &&
      options_.basis_update_fault_hook(total_pivots_)) {
    obs::counter_add("lp.basis.update_faults");
  } else if (factor_->update(leaving_row, alpha)) {
    ++stats_.basis_updates;
    return true;
  }
  // Update refused (eta budget, unsafe pivot, or injected fault): rebuild
  // the factorization from the basis columns instead.
  return refactorize();
}

bool Simplex::pivot(int entering, double direction, const RatioResult& ratio,
                    const std::vector<double>& alpha) {
  const int r = ratio.leaving_row;
  const int leaving = basis_[static_cast<std::size_t>(r)];
  if (options_.pricing == PricingRule::kDevex)
    update_devex(entering, r, alpha, devex_rho_);
  for (int i = 0; i < num_rows(); ++i) {
    const double a = alpha[static_cast<std::size_t>(i)];
    if (a == 0.0) continue;
    x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
        a * direction * ratio.step;
  }
  x_[static_cast<std::size_t>(entering)] += direction * ratio.step;
  x_[static_cast<std::size_t>(leaving)] = ratio.leaving_target;
  status_[static_cast<std::size_t>(leaving)] = ratio.leaving_status;
  status_[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
  basis_[static_cast<std::size_t>(r)] = entering;
  ++total_pivots_;
  return apply_basis_update(r, alpha);
}

SolveStatus Simplex::primal_simplex(Phase phase, const Deadline& deadline) {
  obs::SpanScope span(trace_spans_,
                      phase == Phase::kPhase1 ? "lp.phase1" : "lp.phase2",
                      "lp");
  std::vector<double> y;
  std::vector<double> alpha;
  int iterations = 0;
  int refactor_attempts = 0;
  bool bland_previous = false;
  int& stat_iters = (phase == Phase::kPhase1) ? stats_.phase1_iterations
                                              : stats_.phase2_iterations;
  for (;;) {
    if (phase == Phase::kPhase1 &&
        infeasibility() <= options_.feasibility_tol * 10.0)
      return SolveStatus::kOptimal;  // feasible; caller proceeds to phase 2
    if (iterations >= options_.max_iterations)
      return SolveStatus::kIterationLimit;
    if ((iterations & 63) == 0 && out_of_time(deadline))
      return SolveStatus::kTimeLimit;
    if (fault_injected()) {
      obs::counter_add("lp.faults_injected");
      return SolveStatus::kNumericalFailure;
    }

    if (phase == Phase::kPhase1) compute_duals_phase1(y);
    else compute_duals_phase2(y);

    const bool bland =
        force_bland_ || degenerate_streak_ > options_.degeneracy_threshold;
    if (bland && !bland_previous) {
      obs::counter_add("lp.bland_switches");
      obs::instant("lp.bland_switch", "lp");
    }
    bland_previous = bland;
    double direction = 0.0;
    const int entering = price(phase, y, bland, &direction);
    if (entering < 0) {
      if (phase == Phase::kPhase1) {
        return infeasibility() <= options_.feasibility_tol * 100.0
                   ? SolveStatus::kOptimal
                   : SolveStatus::kInfeasible;
      }
      return SolveStatus::kOptimal;
    }

    ftran(entering, alpha);
    const RatioResult ratio = ratio_test(phase, entering, direction, alpha);
    if (!ratio.blocked) {
      if (phase == Phase::kPhase2) return SolveStatus::kUnbounded;
      // Phase 1 is bounded below by zero infeasibility; an unblocked ray
      // means the basis inverse has drifted. Refactorize and retry once.
      if (refactor_attempts++ < 2 && refactorize()) continue;
      return SolveStatus::kNumericalFailure;
    }

    if (ratio.step < 1e-11) ++degenerate_streak_;
    else degenerate_streak_ = 0;

    if (ratio.bound_flip) {
      apply_bound_flip(entering, direction, ratio.step, alpha);
    } else if (!pivot(entering, direction, ratio, alpha)) {
      return SolveStatus::kNumericalFailure;
    }

    ++iterations;
    ++stat_iters;
    // Periodic accuracy sweep: recompute basic values from the
    // factorization. Keyed on the per-solve iteration counter — bound
    // flips advance it too, so the cadence cannot park on the lifetime
    // pivot count and either re-run every iteration or never fire.
    if (iterations % 512 == 0) {
      compute_basic_values();
      ++stats_.accuracy_sweeps;
    }
  }
}

bool Simplex::dual_simplex(const Deadline& deadline, SolveStatus* status_out) {
  const int m = num_rows();
  const int total = num_vars();
  const double ftol = options_.feasibility_tol;
  const double dtol = options_.optimality_tol * 10.0;
  std::vector<double> y;
  std::vector<double> alpha;
  std::vector<double> rho(static_cast<std::size_t>(m));

  // Reduced costs, maintained incrementally across pivots (recomputing
  // them from scratch is O(m^2) per iteration and dominates runtime).
  std::vector<double> d(static_cast<std::size_t>(total), 0.0);
  auto recompute_reduced_costs = [&] {
    compute_duals_phase2(y);
    for (int v = 0; v < total; ++v) {
      d[static_cast<std::size_t>(v)] =
          status_[static_cast<std::size_t>(v)] == VarStatus::kBasic
              ? 0.0
              : var_cost(v) - column_dot(v, y);
    }
  };
  recompute_reduced_costs();

  // Verify dual feasibility of the warm basis.
  for (int v = 0; v < total; ++v) {
    const VarStatus st = status_[static_cast<std::size_t>(v)];
    if (st == VarStatus::kBasic) continue;
    if (upper(v) - lower(v) < 1e-14) continue;  // fixed: any sign fine
    const double dv = d[static_cast<std::size_t>(v)];
    if (st == VarStatus::kAtLower && dv < -dtol) return false;
    if (st == VarStatus::kAtUpper && dv > dtol) return false;
    if (st == VarStatus::kFree && std::fabs(dv) > dtol) return false;
  }

  std::vector<double> row_alpha(static_cast<std::size_t>(total), 0.0);
  int iterations = 0;
  double last_objective = kInf;  // kInf sentinel: not yet measured
  int stall = 0;
  for (;;) {
    if (iterations >= options_.max_dual_iterations) {
      // Degenerate dual stall: hand over to the primal phases, which carry
      // Bland's-rule anti-cycling.
      return false;
    }
    // Early stall detection: the dual objective is non-decreasing; long
    // flat stretches mean degenerate cycling — bail to the primal phases.
    if ((iterations & 31) == 0) {
      double obj_now = 0.0;
      for (int j = 0; j < num_structural(); ++j)
        obj_now += struct_cost(j) * x_[static_cast<std::size_t>(j)];
      if (last_objective == kInf || obj_now > last_objective + 1e-9) {
        last_objective = obj_now;
        stall = 0;
      } else if (++stall >= 8) {
        return false;
      }
    }
    if ((iterations & 63) == 0 && out_of_time(deadline)) {
      *status_out = SolveStatus::kTimeLimit;
      return true;
    }
    if (fault_injected()) {
      obs::counter_add("lp.faults_injected");
      *status_out = SolveStatus::kNumericalFailure;
      return true;
    }

    // Leaving: the basic variable with the largest bound violation.
    int leaving_row = -1;
    double worst = ftol;
    bool below = false;
    for (int i = 0; i < m; ++i) {
      const int v = basis_[static_cast<std::size_t>(i)];
      const double xv = x_[static_cast<std::size_t>(v)];
      const double viol_lo = lower(v) - xv;
      const double viol_hi = xv - upper(v);
      if (viol_lo > worst) {
        worst = viol_lo;
        leaving_row = i;
        below = true;
      }
      if (viol_hi > worst) {
        worst = viol_hi;
        leaving_row = i;
        below = false;
      }
    }
    if (leaving_row < 0) {
      *status_out = SolveStatus::kOptimal;
      return true;
    }

    // Periodic refresh guards against drift in the incremental updates.
    if (iterations > 0 && (iterations & 255) == 0) recompute_reduced_costs();

    // rho = row r of B^-1, extracted as B^-T e_r.
    std::fill(rho.begin(), rho.end(), 0.0);
    rho[static_cast<std::size_t>(leaving_row)] = 1.0;
    factor_->btran(rho);

    const double e = below ? 1.0 : -1.0;  // desired change sign of x_B(r)

    // Bound-flipping ratio test: collect every admissible breakpoint
    // (nonbasic variable whose reduced cost would change sign at dual
    // price θ = |d_j| / |α_rj|), sort by θ, and let early breakpoints
    // *flip* to their opposite bound as long as their combined capacity
    // cannot yet absorb the leaving variable's infeasibility. One such
    // iteration does the work of dozens of degenerate pivots in models
    // with many box-bounded variables.
    struct Breakpoint {
      int var;
      double arj;
      double ratio;
      double capacity;  // |arj| * (upper - lower); +inf for free vars
    };
    std::vector<Breakpoint> breakpoints;
    for (int v = 0; v < total; ++v) {
      const VarStatus st = status_[static_cast<std::size_t>(v)];
      row_alpha[static_cast<std::size_t>(v)] = 0.0;
      if (st == VarStatus::kBasic) continue;
      const double arj = column_dot(v, rho);
      row_alpha[static_cast<std::size_t>(v)] = arj;
      const double range = upper(v) - lower(v);
      if (range < 1e-14) continue;
      if (std::fabs(arj) <= options_.pivot_tol) continue;
      bool admissible = false;
      // x_B(r) changes by -arj * dx_v; dx_v >= 0 when at lower, <= 0 at upper.
      if (st == VarStatus::kAtLower && -arj * e > 0.0) admissible = true;
      else if (st == VarStatus::kAtUpper && arj * e > 0.0) admissible = true;
      else if (st == VarStatus::kFree) admissible = true;
      if (!admissible) continue;
      const double dv = d[static_cast<std::size_t>(v)];
      const double capacity =
          (st == VarStatus::kFree || !finite(range)) ? kInf
                                                     : range * std::fabs(arj);
      breakpoints.push_back(
          {v, arj, std::fabs(dv) / std::fabs(arj), capacity});
    }
    if (breakpoints.empty()) {
      *status_out = SolveStatus::kInfeasible;
      return true;
    }
    std::sort(breakpoints.begin(), breakpoints.end(),
              [](const Breakpoint& a, const Breakpoint& b) {
                if (a.ratio != b.ratio) return a.ratio < b.ratio;
                return std::fabs(a.arj) > std::fabs(b.arj);
              });

    const int pre_leaving = basis_[static_cast<std::size_t>(leaving_row)];
    double delta_remaining =
        std::fabs(x_[static_cast<std::size_t>(pre_leaving)] -
                  (below ? lower(pre_leaving) : upper(pre_leaving)));
    int entering = -1;
    double entering_arj = 0.0;
    std::vector<int> flips;
    for (const Breakpoint& bp : breakpoints) {
      if (bp.capacity < delta_remaining - 1e-12) {
        flips.push_back(bp.var);
        delta_remaining -= bp.capacity;
        continue;
      }
      entering = bp.var;
      entering_arj = bp.arj;
      break;
    }
    if (entering < 0) {
      // Every admissible variable flipped and the violation persists.
      *status_out = SolveStatus::kInfeasible;
      return true;
    }

    if (!flips.empty()) {
      // Move each flipped variable to its opposite bound and push the
      // aggregate effect through the basis in a single O(m^2) update.
      std::vector<double> aggregate(static_cast<std::size_t>(m), 0.0);
      for (const int v : flips) {
        auto& st = status_[static_cast<std::size_t>(v)];
        const double old_x = x_[static_cast<std::size_t>(v)];
        double new_x;
        if (st == VarStatus::kAtLower) {
          new_x = upper(v);
          st = VarStatus::kAtUpper;
        } else {
          new_x = lower(v);
          st = VarStatus::kAtLower;
        }
        x_[static_cast<std::size_t>(v)] = new_x;
        const double dx = new_x - old_x;
        if (dx == 0.0) continue;
        if (is_slack(v)) {
          aggregate[static_cast<std::size_t>(v - num_structural())] -= dx;
        } else {
          for (const auto& entry : mat().column(v))
            aggregate[static_cast<std::size_t>(entry.index)] += entry.value * dx;
        }
      }
      // x_B -= B^-1 * (A_flips · dx), one FTRAN for the whole batch.
      factor_->ftran(aggregate);
      for (int i = 0; i < m; ++i)
        x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
            aggregate[static_cast<std::size_t>(i)];
    }

    ftran(entering, alpha);
    const double pivot_val = alpha[static_cast<std::size_t>(leaving_row)];
    if (std::fabs(pivot_val) <= options_.pivot_tol ||
        std::fabs(pivot_val - entering_arj) >
            1e-5 * std::max(1.0, std::fabs(pivot_val))) {
      // The row and column views of the pivot disagree → numerical drift.
      if (!refactorize()) {
        *status_out = SolveStatus::kNumericalFailure;
        return true;
      }
      recompute_reduced_costs();
      ++iterations;
      continue;
    }

    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    const double target = below ? lower(leaving) : upper(leaving);
    const double dq =
        (x_[static_cast<std::size_t>(leaving)] - target) / pivot_val;
    for (int i = 0; i < m; ++i) {
      const double a = alpha[static_cast<std::size_t>(i)];
      if (a == 0.0) continue;
      x_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] -=
          a * dq;
    }
    x_[static_cast<std::size_t>(entering)] += dq;
    x_[static_cast<std::size_t>(leaving)] = target;
    status_[static_cast<std::size_t>(leaving)] =
        below ? VarStatus::kAtLower : VarStatus::kAtUpper;
    status_[static_cast<std::size_t>(entering)] = VarStatus::kBasic;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;
    ++total_pivots_;
    if (!apply_basis_update(leaving_row, alpha)) {
      *status_out = SolveStatus::kNumericalFailure;
      return true;
    }
    // Incremental reduced-cost update: d_j -= θ · α_rj with
    // θ = d_q / α_rq; the leaving variable picks up -θ.
    const double theta = d[static_cast<std::size_t>(entering)] / pivot_val;
    if (theta != 0.0) {
      for (int v = 0; v < total; ++v) {
        const double arj = row_alpha[static_cast<std::size_t>(v)];
        if (arj != 0.0) d[static_cast<std::size_t>(v)] -= theta * arj;
      }
    }
    d[static_cast<std::size_t>(entering)] = 0.0;
    d[static_cast<std::size_t>(leaving)] = -theta;
    ++iterations;
    ++stats_.dual_iterations;
  }
}

bool Simplex::refactorize() {
  ++stats_.refactorizations;
  obs::counter_add("lp.refactorizations");
  obs::instant("lp.refactorize", "lp");
  return factorize_basis();
}

bool Simplex::factorize_basis() {
  const int m = num_rows();
  const int n = num_structural();
  linalg::BasisColumns cols(m);
  for (int i = 0; i < m; ++i) {
    cols.begin_column();
    const int v = basis_[static_cast<std::size_t>(i)];
    if (is_slack(v)) {
      cols.add(v - n, -1.0);
    } else {
      for (const auto& entry : mat().column(v))
        cols.add(entry.index, entry.value);
    }
  }
  linalg::LuFailure failure;
  if (!factor_->factorize(cols, &failure)) {
    // Singular basis: surface the breakdown to the obs layer and report
    // failure so the caller's recovery ladder (refactorize → Bland →
    // perturb → cold restart) takes over.
    factor_valid_ = false;
    obs::counter_add("lp.basis.singular");
    obs::instant("lp.basis_singular", "lp",
                 "\"stage\":" + std::to_string(failure.stage) +
                     ",\"pivot\":" + std::to_string(failure.pivot_magnitude) +
                     ",\"threshold\":" + std::to_string(failure.threshold));
    return false;
  }
  factor_valid_ = true;
  const double fill = factor_->fill_ratio();
  stats_.basis_fill_max = std::max(stats_.basis_fill_max, fill);
  obs::histogram_observe("lp.basis.fill", fill);
  compute_basic_values();
  return true;
}

void Simplex::finish_solution() {
  objective_ = 0.0;
  for (int j = 0; j < num_structural(); ++j)
    objective_ += struct_cost(j) * x_[static_cast<std::size_t>(j)];
  std::vector<double> y;
  compute_duals_phase2(y);
  duals_ = std::move(y);
}

SolveStatus Simplex::solve_attempt(const Deadline& deadline) {
  rebuild_pricing();
  // A failed refactorization from a previous attempt leaves factor_
  // unusable; bounds don't change B, so one rebuild restores the warm
  // start. If even that fails the basis is truly singular — start cold.
  if (has_basis_ && !factor_valid_ && !factorize_basis()) has_basis_ = false;
  if (has_basis_) {
    // Reposition nonbasic variables onto the (possibly changed) bounds.
    for (int v = 0; v < num_vars(); ++v) {
      auto& st = status_[static_cast<std::size_t>(v)];
      if (st == VarStatus::kBasic) continue;
      const double lo = lower(v);
      const double hi = upper(v);
      if (st == VarStatus::kAtLower) {
        if (finite(lo)) x_[static_cast<std::size_t>(v)] = lo;
        else if (finite(hi)) { st = VarStatus::kAtUpper; x_[static_cast<std::size_t>(v)] = hi; }
        else { st = VarStatus::kFree; x_[static_cast<std::size_t>(v)] = 0.0; }
      } else if (st == VarStatus::kAtUpper) {
        if (finite(hi)) x_[static_cast<std::size_t>(v)] = hi;
        else if (finite(lo)) { st = VarStatus::kAtLower; x_[static_cast<std::size_t>(v)] = lo; }
        else { st = VarStatus::kFree; x_[static_cast<std::size_t>(v)] = 0.0; }
      }
    }
    compute_basic_values();
    obs::counter_add("lp.warm_starts");
    SolveStatus status = SolveStatus::kNumericalFailure;
    bool dual_finished;
    {
      obs::SpanScope span(trace_spans_, "lp.dual", "lp");
      dual_finished = dual_simplex(deadline, &status);
    }
    if (dual_finished) {
      stats_.warm_started = true;
      if (status == SolveStatus::kOptimal) finish_solution();
      // A numerical failure surfaces to the recovery ladder in solve(),
      // whose refactorize rung beats blindly continuing with the primal
      // phases on a drifted inverse.
      return status;
    }
    // Warm basis is not dual feasible (or the dual stalled): primal phases
    // from the current basis are still a better start than cold.
    stats_.dual_fallback = true;
    obs::counter_add("lp.dual_fallbacks");
    const SolveStatus p1 = primal_simplex(Phase::kPhase1, deadline);
    if (p1 != SolveStatus::kOptimal) return p1;
    const SolveStatus p2 = primal_simplex(Phase::kPhase2, deadline);
    if (p2 == SolveStatus::kOptimal) finish_solution();
    return p2;
  }

  cold_start();
  const SolveStatus p1 = primal_simplex(Phase::kPhase1, deadline);
  if (p1 != SolveStatus::kOptimal) return p1;
  const SolveStatus p2 = primal_simplex(Phase::kPhase2, deadline);
  if (p2 == SolveStatus::kOptimal) finish_solution();
  return p2;
}

// The staged recovery ladder. Each rung is attempted once per solve();
// whichever rung first produces a non-numerical-failure status wins. The
// ladder ordering goes from cheapest (keep the basis, fix the inverse) to
// most disruptive (throw the basis away).
SolveStatus Simplex::recover(const Deadline& deadline) {
  // Rung 1: rebuild the basis inverse and retry from the same basis — the
  // common case is accumulated product-form drift, which replay/LU repair.
  {
    ++stats_.recover_refactorize;
    obs::counter_add("lp.recovery.refactorize");
    obs::instant("lp.recover", "lp", "\"rung\":\"refactorize\"");
    if (has_basis_ && refactorize()) {
      const SolveStatus st = solve_attempt(deadline);
      if (st != SolveStatus::kNumericalFailure) return st;
    }
  }
  // Rung 2: Bland pricing with a tightened pivot tolerance — trades speed
  // for guaranteed-safe pivots when aggressive Dantzig steps keep landing
  // on near-singular pivot elements.
  {
    ++stats_.recover_bland;
    obs::counter_add("lp.recovery.bland");
    obs::instant("lp.recover", "lp", "\"rung\":\"bland\"");
    const double saved_pivot_tol = options_.pivot_tol;
    options_.pivot_tol = std::max(saved_pivot_tol * 100.0, 1e-6);
    force_bland_ = true;
    const SolveStatus st = solve_attempt(deadline);
    force_bland_ = false;
    options_.pivot_tol = saved_pivot_tol;
    if (st != SolveStatus::kNumericalFailure) return st;
  }
  // Rung 3: relax every non-fixed working bound by a deterministic jitter
  // to break ties at degenerate vertices, solve, then re-solve on the
  // exact bounds from the perturbed basis. Fixed bounds (branch-and-bound
  // fixings) are never touched, and the perturbation only ever *relaxes*,
  // so a perturbed infeasibility verdict is valid for the original too.
  {
    ++stats_.recover_perturb;
    obs::counter_add("lp.recovery.perturb");
    obs::instant("lp.recover", "lp", "\"rung\":\"perturb\"");
    std::vector<double> saved_lower = lower_;
    std::vector<double> saved_upper = upper_;
    const double base = std::max(options_.feasibility_tol * 100.0, 1e-7);
    for (int v = 0; v < num_vars(); ++v) {
      double& lo = lower_[static_cast<std::size_t>(v)];
      double& hi = upper_[static_cast<std::size_t>(v)];
      if (hi - lo < 1e-14) continue;  // keep fixings exact
      const double jitter =
          base * (1.0 + static_cast<double>((v * 7919) % 13) / 16.0);
      if (finite(lo)) lo -= jitter * std::max(1.0, std::fabs(lo));
      if (finite(hi)) hi += jitter * std::max(1.0, std::fabs(hi));
    }
    SolveStatus st = solve_attempt(deadline);
    lower_ = std::move(saved_lower);
    upper_ = std::move(saved_upper);
    if (st == SolveStatus::kOptimal) {
      // Clean-up solve on the exact bounds, warm from the perturbed basis.
      st = solve_attempt(deadline);
      if (st != SolveStatus::kNumericalFailure) return st;
    } else if (st != SolveStatus::kNumericalFailure) {
      return st;
    }
  }
  // Rung 4: cold restart from the all-slack basis.
  {
    ++stats_.recover_cold;
    obs::counter_add("lp.recovery.cold_restart");
    obs::instant("lp.recover", "lp", "\"rung\":\"cold_restart\"");
    has_basis_ = false;
    degenerate_streak_ = 0;
    return solve_attempt(deadline);
  }
}

SolveStatus Simplex::solve() {
  stats_ = SolveStats{};
  Deadline deadline(options_.time_limit_seconds);
  obs::counter_add("lp.solves");
  SolveStatus status = solve_attempt(deadline);
  if (status == SolveStatus::kNumericalFailure && options_.recovery)
    status = recover(deadline);
  return status;
}

double Simplex::value(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "value: bad column");
  return x_[static_cast<std::size_t>(j)] * col_scale(j);
}

double Simplex::dual_value(int i) const {
  TVNEP_REQUIRE(i >= 0 && i < num_rows(), "dual_value: bad row");
  return duals_[static_cast<std::size_t>(i)] * row_scale(i);
}

VarStatus Simplex::variable_status(int v) const {
  TVNEP_REQUIRE(v >= 0 && v < num_vars(), "variable_status: bad variable");
  return status_[static_cast<std::size_t>(v)];
}

double Simplex::reduced_cost(int j) const {
  TVNEP_REQUIRE(j >= 0 && j < num_structural(), "reduced_cost: bad column");
  TVNEP_REQUIRE(duals_.size() == static_cast<std::size_t>(num_rows()),
                "reduced_cost: no duals (solve first)");
  // d~_j = c~_j - y~.A~_j in scaled space; x~ = x / C gives d = d~ / C.
  return (struct_cost(j) - column_dot(j, duals_)) / col_scale(j);
}

std::vector<double> Simplex::primal_solution() const {
  std::vector<double> out(x_.begin(), x_.begin() + num_structural());
  if (scaled_)
    for (int j = 0; j < num_structural(); ++j)
      out[static_cast<std::size_t>(j)] *= col_scale(j);
  return out;
}

}  // namespace tvnep::lp
