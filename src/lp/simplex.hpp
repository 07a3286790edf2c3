// Bounded-variable revised simplex over a pluggable basis factorization.
//
// The solver operates on the computational form of lp::Problem. Internally
// one logical (slack) variable is appended per row:
//
//   A x - s = 0,   lo <= x <= up,   rlo <= s <= rup
//
// so the all-slack basis always exists and the right-hand side is zero.
//
// Provided algorithms:
//  * primal simplex with a Phase-I infeasibility minimization (no big-M,
//    no artificial variables), partial Dantzig pricing (full-scan Dantzig
//    and Devex selectable via SimplexOptions::pricing) with a Bland
//    fallback after degeneracy stalls;
//  * dual simplex used to re-optimize after bound changes (branch & bound
//    warm starts); it refuses to run when the current basis is not dual
//    feasible, in which case the caller falls back to the primal.
//
// Basis maintenance goes through linalg::BasisFactorization: the default
// backend is a sparse LU with Markowitz threshold pivoting plus
// product-form eta updates (sub-quadratic per iteration on sparse bases);
// the historical dense explicit inverse remains selectable via
// SimplexOptions::basis for debugging and A/B comparison. When an eta
// update is numerically unsafe or the update budget is exhausted the
// backend refuses it and the simplex refactorizes from the basis columns.
//
// Numerical resilience: the constraint matrix is equilibrated with
// power-of-two geometric-mean row/column scaling before Phase I (the TVNEP
// big-M time-linking rows mix coefficients spanning orders of magnitude),
// and a numerical failure escalates through a staged recovery ladder —
// refactorize, Bland pricing with a tightened pivot tolerance, bound
// perturbation, cold restart — before it is reported to the caller. All
// public values (bounds, solutions, duals, objective) stay in the
// caller's original units.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "linalg/lu.hpp"
#include "lp/problem.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  kNumericalFailure,
};

const char* to_string(SolveStatus status);

/// Variable position relative to the current basis.
enum class VarStatus : unsigned char {
  kAtLower,
  kAtUpper,
  kFree,   // nonbasic free variable resting at zero
  kBasic,
};

/// Which linalg::BasisFactorization backend maintains the basis.
enum class BasisBackend {
  kSparseLu,       // sparse Markowitz LU + eta updates (default)
  kDenseInverse,   // historical explicit dense inverse (debug/reference)
};

/// Entering-variable selection rule for the primal phases. Bland's rule
/// (degeneracy/recovery fallback) overrides whichever rule is configured.
enum class PricingRule {
  kPartialDantzig,  // Dantzig scoring over a rotating candidate window
  kDantzig,         // classic full-scan Dantzig (historical behavior)
  kDevex,           // Devex reference-framework weights, full scan
};

struct SimplexOptions {
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  double pivot_tol = 1e-8;
  int max_iterations = 0;       // 0 → automatic (scales with problem size)
  double time_limit_seconds = 0.0;  // <= 0 → unlimited
  // After this many consecutive degenerate iterations, switch to Bland's
  // rule until progress resumes.
  int degeneracy_threshold = 60;
  // Cap on warm-start dual simplex iterations before falling back to the
  // primal (guards against degenerate dual stalls); 0 → automatic.
  int max_dual_iterations = 0;
  // Geometric-mean row/column equilibration of the constraint matrix,
  // applied once at construction and inverted on every extraction (values,
  // duals, bounds are always exchanged in the original units). Scale
  // factors are rounded to powers of two so scaling introduces no rounding
  // error of its own; a matrix that is already well scaled keeps unit
  // factors and pays nothing.
  bool scaling = true;
  // Staged in-solve recovery ladder on numerical failure: refactorize →
  // Bland pricing with a tightened pivot tolerance → bound perturbation →
  // cold restart. Each rung taken is counted in SolveStats and surfaced as
  // an lp.recovery.* metric plus an lp.recover trace instant.
  bool recovery = true;
  // Basis-maintenance backend (see BasisBackend). The dense inverse is
  // kept selectable so tests and benches can A/B the two implementations.
  BasisBackend basis = BasisBackend::kSparseLu;
  // Primal pricing rule (see PricingRule).
  PricingRule pricing = PricingRule::kPartialDantzig;
  // Eta updates the sparse backend absorbs before it forces a
  // refactorization. Ignored by the dense backend, whose product-form
  // update never degrades capacity.
  int refactor_interval = 64;
  // Debug/bench escape hatch: keep fixed (lb == ub) columns in the pricing
  // candidate list, as the historical full-scan pricing did. They can never
  // profitably enter, so scanning them is pure overhead; micro_solver uses
  // this flag for its before/after pricing pair.
  bool price_fixed_columns = false;
  // Deterministic fault-injection seam (compiled always, null by default):
  // consulted once per simplex iteration with the lifetime pivot count; a
  // true return makes the current solve attempt fail numerically, exactly
  // as a real breakdown would. Tests use it to force failures at chosen
  // pivots and prove every rung of the recovery ladder.
  std::function<bool(long pivot)> fault_hook;
  // Second fault seam targeting basis maintenance: consulted at each
  // post-pivot basis update with the lifetime pivot count; a true return
  // makes the update report failure so the refactorization path (and the
  // recovery ladder behind it) is exercised deterministically.
  std::function<bool(long pivot)> basis_update_fault_hook;
  // Cooperative soft-cancel seam: polled at the same cadence as the
  // deadline (every 64 iterations); a set flag makes the solve return
  // kTimeLimit at the next poll. The pointee must outlive the solve. The
  // sweep watchdog uses this to cut a runaway cell loose without killing
  // its worker thread.
  const std::atomic<bool>* cancel = nullptr;
};

struct SolveStats {
  int phase1_iterations = 0;
  int phase2_iterations = 0;
  int dual_iterations = 0;
  int refactorizations = 0;
  // Incremental basis updates absorbed without a refactorization.
  long basis_updates = 0;
  // Periodic accuracy sweeps (basic-value recomputation) taken.
  int accuracy_sweeps = 0;
  // Worst nnz(factors)/nnz(B) ratio across this solve's factorizations
  // (the dense backend reports m^2/nnz(B)); 0 when none happened.
  double basis_fill_max = 0.0;
  bool warm_started = false;
  // A warm-start basis existed but the dual simplex could not finish the
  // solve (dual-infeasible start, stall, or numerical failure) and the
  // primal phases completed it instead.
  bool dual_fallback = false;
  // Recovery-ladder rungs taken during this solve (each at most once per
  // solve() call; a rung is counted when it is entered, whether or not it
  // ultimately cleared the failure).
  int recover_refactorize = 0;
  int recover_bland = 0;
  int recover_perturb = 0;
  int recover_cold = 0;
  int recoveries() const {
    return recover_refactorize + recover_bland + recover_perturb +
           recover_cold;
  }
};

class Simplex {
 public:
  /// The problem must already be finalized and must outlive the solver.
  Simplex(const Problem& problem, SimplexOptions options = {});

  /// Tightens/relaxes the working bounds of structural column j.
  void set_bounds(int j, double lower, double upper);

  /// Restores all working bounds to the problem's original bounds.
  void reset_bounds();

  double working_lower(int j) const;
  double working_upper(int j) const;

  /// Adjusts the wall-clock budget applied to subsequent solve() calls
  /// (<= 0 → unlimited). Branch & bound passes its remaining deadline here.
  void set_time_limit(double seconds) {
    options_.time_limit_seconds = seconds;
  }

  /// Updates the objective coefficient of structural column j. Invalidate
  /// warm starts where appropriate (dual feasibility may be lost; solve()
  /// handles that automatically).
  void set_cost(int j, double cost);

  /// Solves with the current working bounds. Automatically warm starts from
  /// the previous basis when one exists (dual simplex), otherwise performs
  /// a cold primal solve. A numerical failure is retried through the
  /// recovery ladder (see SimplexOptions::recovery) before it is reported.
  SolveStatus solve();

  /// Objective value of the last solve (valid when status was optimal).
  double objective() const { return objective_; }

  /// Value of structural column j in the last solution.
  double value(int j) const;

  /// Dual value (shadow price) of row i in the last solution.
  double dual_value(int i) const;

  /// All structural values (length = problem.num_columns()).
  std::vector<double> primal_solution() const;

  // --- Basis introspection (reduced-cost fixing) ------------------------
  // The full system appends one slack per row after the structural
  // columns: variable v < num_columns() is structural, otherwise the slack
  // of row v - num_columns(). Results are meaningful only after an optimal
  // solve() while the basis is unchanged.

  /// Status of full-system variable v relative to the current basis.
  VarStatus variable_status(int v) const;

  /// Reduced cost d_j = c_j - y.A_j of structural column j; valid after an
  /// optimal solve (duals of the final basis).
  double reduced_cost(int j) const;

  const SolveStats& stats() const { return stats_; }

  /// Number of pivots performed over the lifetime of this object.
  long total_pivots() const { return total_pivots_; }

  /// Drops the warm-start basis so the next solve() is a cold start.
  void invalidate_basis() { has_basis_ = false; }

  /// Whether solve() emits per-phase trace spans when the global tracer is
  /// active. Branch and bound turns this off for unsampled node LPs so a
  /// deep tree does not flood the trace; counters are unaffected.
  void set_trace_spans(bool enabled) { trace_spans_ = enabled; }

 private:
  enum class Phase { kPhase1, kPhase2 };
  struct RatioResult {
    bool blocked = false;
    bool bound_flip = false;
    int leaving_row = -1;
    double step = 0.0;
    double leaving_target = 0.0;  // bound value the leaving variable hits
    VarStatus leaving_status = VarStatus::kAtLower;
  };

  int num_structural() const { return problem_->num_columns(); }
  int num_rows() const { return problem_->matrix().rows(); }
  int num_vars() const { return num_structural() + num_rows(); }
  bool is_slack(int v) const { return v >= num_structural(); }

  // Equilibration: when scaling is active the pivots run on scaled_matrix_
  // and scaled_cost_ (built once at construction) while problem_ keeps the
  // caller's original data; every public entry/exit point converts with
  // these factors.
  const linalg::SparseMatrix& mat() const {
    return scaled_ ? scaled_matrix_ : problem_->matrix();
  }
  double struct_cost(int j) const {
    return scaled_ ? scaled_cost_[static_cast<std::size_t>(j)]
                   : problem_->column(j).cost;
  }
  double col_scale(int j) const {
    return scaled_ ? col_scale_[static_cast<std::size_t>(j)] : 1.0;
  }
  double row_scale(int i) const {
    return scaled_ ? row_scale_[static_cast<std::size_t>(i)] : 1.0;
  }
  void build_scaling(const Problem& problem);

  double var_cost(int v) const;
  double lower(int v) const { return lower_[static_cast<std::size_t>(v)]; }
  double upper(int v) const { return upper_[static_cast<std::size_t>(v)]; }

  // alpha = B^-1 * a_v (dense output).
  void ftran(int v, std::vector<double>& alpha) const;
  // Dot of a full-system column v with a dense row-space vector y.
  double column_dot(int v, const std::vector<double>& y) const;

  void cold_start();
  void compute_basic_values();
  void compute_duals_phase2(std::vector<double>& y) const;
  void compute_duals_phase1(std::vector<double>& y) const;
  double infeasibility() const;

  // Rebuilds the pricing candidate list (and Devex weights) for a solve
  // attempt: every variable except those fixed by the working bounds
  // (unless options_.price_fixed_columns keeps them for benchmarking).
  void rebuild_pricing();

  // Returns entering variable (or -1) and its reduced cost / direction.
  int price(Phase phase, const std::vector<double>& y, bool bland,
            double* direction) const;

  RatioResult ratio_test(Phase phase, int entering, double direction,
                         const std::vector<double>& alpha) const;

  void apply_bound_flip(int entering, double direction, double step,
                        const std::vector<double>& alpha);
  // Devex reference-weight maintenance; must run before the basis changes
  // (it needs B^-T of the outgoing basis). `rho` is caller-owned scratch.
  void update_devex(int entering, int leaving_row,
                    const std::vector<double>& alpha,
                    std::vector<double>& rho);
  // Performs the basis exchange; returns false when basis maintenance
  // failed beyond repair (update refused and refactorization failed too).
  bool pivot(int entering, double direction, const RatioResult& ratio,
             const std::vector<double>& alpha);
  // Post-pivot eta update with refactorization fallback; false only when
  // the refactorization itself failed.
  bool apply_basis_update(int leaving_row, const std::vector<double>& alpha);

  /// Deadline expiry or external soft-cancel — both end the solve with
  /// kTimeLimit at the next poll.
  bool out_of_time(const Deadline& deadline) const {
    return deadline.expired() ||
           (options_.cancel != nullptr &&
            options_.cancel->load(std::memory_order_relaxed));
  }

  SolveStatus primal_simplex(Phase phase, const Deadline& deadline);
  // Returns true when it ran to completion (status_out set); false when the
  // starting basis was not dual feasible and the caller must go primal.
  bool dual_simplex(const Deadline& deadline, SolveStatus* status_out);

  // Counts a refactorization (stats + obs) and rebuilds the factorization.
  bool refactorize();
  // Factorizes the current basis columns into factor_; on success also
  // recomputes the basic values. Does not touch the refactorization stats
  // (cold starts factorize without counting as a refactorization).
  bool factorize_basis();
  void finish_solution();

  // One end-to-end solve attempt (warm dual → primal fallback, or cold
  // primal phases). solve() wraps this with the recovery ladder.
  SolveStatus solve_attempt(const Deadline& deadline);
  // Escalates through the ladder after `status` came back as a numerical
  // failure; returns the final status.
  SolveStatus recover(const Deadline& deadline);
  // True when the fault hook or a genuine breakdown should abort the
  // current attempt; consulted once per iteration.
  bool fault_injected() const {
    return options_.fault_hook && options_.fault_hook(total_pivots_);
  }

  const Problem* problem_;      // caller's problem, original units
  linalg::SparseMatrix scaled_matrix_;  // R·A·C (when scaled_)
  std::vector<double> scaled_cost_;     // C·c (when scaled_)
  std::vector<double> row_scale_;  // size m (when scaled_)
  std::vector<double> col_scale_;  // size n (when scaled_)
  bool scaled_ = false;
  SimplexOptions options_;
  SolveStats stats_;

  std::vector<double> lower_;   // working bounds, size num_vars()
  std::vector<double> upper_;
  std::vector<double> x_;       // current values, size num_vars()
  std::vector<VarStatus> status_;
  std::vector<int> basis_;      // size m: variable basic in each row
  std::unique_ptr<linalg::BasisFactorization> factor_;
  bool factor_valid_ = false;   // factor_ matches basis_ and is usable
  bool has_basis_ = false;

  // Pricing state, rebuilt per solve attempt: candidate variable indices
  // (ascending, fixed columns excluded), the rotating partial-pricing
  // cursor, and the Devex reference weights.
  std::vector<int> pricing_candidates_;
  mutable std::size_t pricing_cursor_ = 0;
  std::vector<double> devex_weights_;
  std::vector<double> devex_rho_;  // BTRAN scratch for weight updates

  double objective_ = 0.0;
  std::vector<double> duals_;
  long total_pivots_ = 0;
  int degenerate_streak_ = 0;
  bool trace_spans_ = true;
  // Recovery-ladder state: rung 2 forces Bland pricing regardless of the
  // degeneracy streak (with options_.pivot_tol temporarily tightened).
  bool force_bland_ = false;
};

}  // namespace tvnep::lp
