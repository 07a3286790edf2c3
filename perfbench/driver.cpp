// tvbench: the workload driver behind perfbench/run.py (see README.md).
//
//   tvbench exact  --seed N --seconds S --out DIR [--trace 1]
//   tvbench admit  --seed N --seconds S --out DIR [--trace 1]
//   tvbench ingest --seed N --seconds S --out DIR --serve PATH [--trace 1]
//
// Every workload draws its inputs from --seed and sizes its work by
// --seconds (exact_solve: a fixed number of cells per second; admit_exact:
// at least one pass of 1000 arrivals; ingest_wal: 200 requests per
// second), samples its set-up time kSetupSamples times (setup_s is the
// median), checks every output and prints one flat JSON object as its
// last stdout line.
//
// With --trace 1 it instead runs a short untraced pass and then a traced
// pass of the same work: the repository's tracer and metrics registry are
// on (obs::ObsSession in process, --trace/--metrics for the daemon) and
// the driver records its own span around every public call it makes.
// Those spans are kept in memory and written at exit to
// DIR/bench_trace.json in the same trace_event format, on the tracer's
// timebase, so fold.py can nest the program's spans inside them.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mip/branch_and_bound.hpp"
#include "net/topology.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "tvnep/solution.hpp"
#include "tvnep/solver.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

extern char** environ;

using namespace tvnep;

namespace {

// ----- workload constants (README.md says why each was chosen) ---------

// exact_solve: a fixed pool of fig3-family cells, each its own instance
// at one of the flexibilities in turn, solved in order. A run solves
// kExactCellsPerSecond cells per second of --seconds, whatever the host's
// speed, so the cells, and with them attempted and failed, depend only on
// the seed. Distinct instances, rather than one instance at every
// flexibility, keep the seed's draw of hard instances from setting the
// throughput.
constexpr int kExactRequests = 3;
constexpr int kExactCells = 1024;
constexpr double kExactCellsPerSecond = 26.0;  // typical of a 4-core x86-64
constexpr double kExactFlexibilities[] = {0.0, 1.0, 2.0, 3.0};
constexpr double kExactSafetyCap = 60.0;  // seconds per solve

// admit_exact / ingest_wal: the daemon's default admission settings.
constexpr int kAdmitArrivals = 1000;
constexpr double kSloMs = 100.0;
constexpr double kShedFraction = 0.5;
constexpr int kAdmitMaxStep = 64;
constexpr double kIngestRate = 200.0;  // requests per second, open loop
constexpr int kIngestMaxStep = 1;

// setup_s: a timed run takes kSetupSamples samples; each is the mean of
// a batch of set-ups that together last at least kSetupBatchSeconds.
constexpr int kSetupSamples = 16;
constexpr double kSetupBatchSeconds = 0.05;

// ----- small helpers ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = ".";
  std::string serve_path;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: tvbench exact|admit|ingest ...");
  Options options;
  options.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--out") options.out_dir = value;
    else if (key == "--serve") options.serve_path = value;
    else if (key == "--trace") options.trace = value == "1";
    else throw std::runtime_error("unknown flag " + key);
  }
  return options;
}

double q(const std::vector<double>& samples, double quant) {
  return samples.empty() ? 0.0 : quantile(samples, quant);
}

double mean_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : mean(samples);
}

/// The flat result object printed at exit: numbers, plus the check
/// verdict and the failure messages that explain it.
struct Result {
  std::map<std::string, double> values;
  std::vector<std::string> errors;
  long attempted = 0;
  long failed = 0;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (errors.size() < 20) errors.push_back(what);
    else if (errors.size() == 20) errors.push_back("...");
  }

  std::string json() const {
    std::ostringstream out;
    out << "{\"correct\":" << (errors.empty() ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i)
      out << (i ? "," : "") << '"' << obs::json_escape(errors[i]) << '"';
    out << "]";
    for (const auto& [key, value] : values)
      out << ",\"" << key << "\":" << obs::json_number(value);
    out << "}";
    return out.str();
  }
};

/// The driver's own spans: kept in memory, written once at exit in the
/// trace_event format on the repository tracer's timebase.
class BenchSpans {
 public:
  struct Event {
    std::string name;
    std::int64_t ts_us;
    std::int64_t dur_us;
    std::string args;
  };

  class Scope {
   public:
    Scope(BenchSpans* spans, const char* name, std::string args = {})
        : spans_(spans != nullptr && spans->on_ ? spans : nullptr),
          name_(name),
          args_(std::move(args)) {
      if (spans_ != nullptr) start_ = obs::Tracer::instance().now_us();
    }
    ~Scope() {
      if (spans_ != nullptr)
        spans_->events_.push_back(
            {name_, start_, obs::Tracer::instance().now_us() - start_,
             std::move(args_)});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BenchSpans* spans_;
    const char* name_;
    std::string args_;
    std::int64_t start_ = 0;
  };

  void set_on(bool on) { on_ = on; }
  void add(std::string name, std::int64_t ts_us, std::int64_t dur_us,
           std::string args) {
    events_.push_back({std::move(name), ts_us, dur_us, std::move(args)});
  }

  /// Writes {"traceEvents":[...]} with every span on thread `tid`.
  void write(const std::string& path, std::uint32_t tid) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << obs::json_escape(e.name)
          << "\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
          << ",\"args\":{" << e.args << "}}";
    }
    out << "\n]}\n";
  }

 private:
  bool on_ = false;
  std::vector<Event> events_;
};

/// Starts the repository's tracer and metrics registry for a traced pass
/// and finds the tracer shard id of the calling thread, so the driver's
/// own spans land on the same track as the program spans they enclose.
class TracedPass {
 public:
  TracedPass(const std::string& out_dir, BenchSpans* spans)
      : session_(std::make_unique<obs::ObsSession>(obs::ObsConfig{
            out_dir + "/program_trace.json", "",
            out_dir + "/program_metrics.json", ""})),
        spans_(spans) {
    obs::instant("bench.thread", "bench");
    spans_->set_on(true);
  }

  /// Stops tracing and writes the program and driver trace files.
  void finish(const std::string& out_dir) {
    spans_->set_on(false);
    std::uint32_t tid = 0;
    for (const obs::TraceEvent& e : obs::Tracer::instance().snapshot())
      if (std::strcmp(e.name, "bench.thread") == 0) tid = e.tid;
    session_->finish();
    spans_->write(out_dir + "/bench_trace.json", tid);
  }

 private:
  std::unique_ptr<obs::ObsSession> session_;
  BenchSpans* spans_;
};

/// Set-up wall times. One sample is the mean of a batch of set-ups that
/// together last at least kSetupBatchSeconds, so a millisecond set-up is
/// not timed alone. The shared host's speed drifts within seconds, so
/// exact_solve and admit_exact spread their samples over the measured
/// work (due()), and the median sees the machine across the whole run,
/// as the work does. ingest_wal cannot set up a second daemon while one
/// is measured; it takes half its samples before the run, half after.
class SetupTimes {
 public:
  /// Adds one sample. `setup` runs the set-up once and returns the
  /// seconds it took, so that tear-down can stay out of the timing.
  template <typename Fn>
  void sample(Fn&& setup) {
    double total = 0.0;
    int count = 0;
    do {
      total += setup();
      ++count;
    } while (total < kSetupBatchSeconds);
    seconds_.push_back(total / count);
  }

  /// True when the next of kSetupSamples evenly spaced samples is due,
  /// `done` into a run of `total` (seconds, or operations).
  bool due(double done, double total) const {
    const auto taken = static_cast<double>(seconds_.size());
    return taken < kSetupSamples && done >= total * taken / kSetupSamples;
  }

  std::size_t samples() const { return seconds_.size(); }
  double median() const { return tvnep::median(seconds_); }

 private:
  std::vector<double> seconds_;
};

/// Wall seconds of one call of `fn`.
template <typename Fn>
double timed(Fn&& fn) {
  Stopwatch watch;
  fn();
  return watch.seconds();
}

/// Runs `pass` (which returns its own wall time) until the next pass
/// would overrun `seconds`; always at least once.
template <typename Fn>
void run_passes(double seconds, Fn&& pass) {
  Stopwatch total;
  double last = pass();
  while (total.seconds() + last <= seconds) last = pass();
}

// ----- exact_solve ------------------------------------------------------

struct ExactCell {
  std::string id;
  net::TvnepInstance instance;
};

std::vector<ExactCell> make_exact_cells(std::uint64_t seed) {
  workload::WorkloadParams params;
  params.num_requests = kExactRequests;
  params.grid_rows = 2;
  params.grid_cols = 3;
  params.star_leaves = 2;
  constexpr std::size_t kFlexibilities = std::size(kExactFlexibilities);
  std::vector<ExactCell> cells;
  for (int k = 0; k < kExactCells; ++k) {
    params.seed = seed * kExactCells + static_cast<std::uint64_t>(k) + 1;
    const double flex = kExactFlexibilities[static_cast<std::size_t>(k) % kFlexibilities];
    std::ostringstream id;
    id << "s" << params.seed << "/f" << flex;
    cells.push_back(
        {id.str(), workload::generate_workload_with_flexibility(params, flex)});
  }
  return cells;
}

struct ExactTotals {
  std::vector<double> op_ms;  // build + solve of both models, per cell
  std::size_t cells = 0;
  double seconds = 0.0;
  double revenue = 0.0;  // cΣ optimum, summed over distinct cells
  long accepted = 0;
  long requests = 0;
  // Only MipResult has these; the registry counts the rest (run.py).
  long cut_rounds = 0;
  long rc_fixed = 0;
};

/// Solves the pool's first `count` cells in order, each by Σ and by cΣ to
/// proven optimality, one solve at a time; past the end of the pool it
/// starts over. Checks every solve; `objectives` pins each cell's optimum
/// across models and repeats. `between` runs after each cell, outside its
/// time.
void exact_cells(const std::vector<ExactCell>& cells, std::size_t count,
                 bool traced, BenchSpans* spans,
                 std::map<std::string, double>* objectives, Result* result,
                 ExactTotals* totals,
                 const std::function<void()>& between = {}) {
  mip::MipOptions mip_options;
  mip_options.time_limit_seconds = kExactSafetyCap;
  if (traced) mip_options.trace_node_sample = 1;
  Stopwatch watch;
  for (std::size_t n = 0; n < count; ++n) {
    const ExactCell& cell = cells[n % cells.size()];
    const bool first_visit = n < cells.size();
    ++result->attempted;
    bool cell_ok = true;
    double cell_ms = 0.0;
    for (const core::ModelKind kind :
         {core::ModelKind::kSigma, core::ModelKind::kCSigma}) {
      const std::string model = core::to_string(kind);
      BenchSpans::Scope op(spans, "bench.solve",
                           "\"cell\":\"" + cell.id + "\",\"model\":\"" +
                               model + "\"");
      Stopwatch solve_watch;
      std::unique_ptr<core::Formulation> formulation;
      {
        BenchSpans::Scope span(spans, "tvnep.build");
        formulation = core::build_formulation(cell.instance, kind, {});
      }
      mip::MipResult mip;
      {
        BenchSpans::Scope span(spans, "mip.solve");
        mip = mip::MipSolver(mip_options).solve(formulation->model());
      }
      cell_ms += solve_watch.seconds() * 1e3;
      totals->cut_rounds += mip.cut_rounds;
      totals->rc_fixed += mip.rc_fixed;

      const std::string where = cell.id + " " + model;
      if (mip.status != mip::MipStatus::kOptimal || !mip.has_solution) {
        // The solver gave up without an answer: a failed operation,
        // reported and counted against slo_ok_ratio, not a wrong output.
        std::fprintf(stderr, "tvbench: %s: not optimal (%s)\n", where.c_str(),
                     mip::to_string(mip.status));
        cell_ok = false;
        continue;
      }
      const core::TvnepSolution solution = formulation->extract(mip.solution);
      const core::ValidationResult valid =
          core::validate_solution(cell.instance, solution);
      result->check(valid.ok, where + ": schedule fails validation" +
                                  (valid.errors.empty()
                                       ? std::string()
                                       : ": " + valid.errors.front()));
      const double pinned =
          objectives->emplace(cell.id, mip.objective).first->second;
      const bool agree = std::fabs(pinned - mip.objective) <=
                         1e-6 * std::max(1.0, std::fabs(mip.objective));
      result->check(agree, where + ": optimum " +
                               obs::json_number(mip.objective) +
                               " differs from " + obs::json_number(pinned));
      cell_ok = cell_ok && valid.ok && agree;
      if (kind == core::ModelKind::kCSigma && first_visit) {
        totals->revenue += solution.revenue(cell.instance);
        totals->accepted += solution.num_accepted();
        totals->requests += cell.instance.num_requests();
      }
    }
    totals->op_ms.push_back(cell_ms);
    if (!cell_ok) ++result->failed;
    ++totals->cells;
    if (between) between();
  }
  totals->seconds = watch.seconds();
}

void run_exact(const Options& options, Result* result) {
  std::vector<ExactCell> cells;
  SetupTimes setup;
  setup.sample([&] { return timed([&] { cells = make_exact_cells(options.seed); }); });
  const auto set_up_again = [&] {
    return timed([&] { make_exact_cells(options.seed); });
  };
  std::map<std::string, double> objectives;
  auto& v = result->values;
  const auto count = static_cast<std::size_t>(
      std::max(16.0, std::round(options.seconds * kExactCellsPerSecond)));

  if (!options.trace) {
    ExactTotals run;
    exact_cells(cells, count, false, nullptr, &objectives, result, &run, [&] {
      if (setup.due(static_cast<double>(run.cells), static_cast<double>(count)))
        setup.sample(set_up_again);
    });
    while (setup.samples() < kSetupSamples) setup.sample(set_up_again);
    v["setup_s"] = setup.median();
    double op_seconds = 0.0;
    for (const double ms : run.op_ms) op_seconds += ms / 1e3;
    v["per_s"] = static_cast<double>(run.op_ms.size()) / op_seconds;
    v["ms_mean"] = mean_of(run.op_ms);
    v["ms_p50"] = q(run.op_ms, 0.50);
    v["ms_p90"] = q(run.op_ms, 0.90);
    v["ms_p99"] = q(run.op_ms, 0.99);
    v["revenue"] = run.revenue / static_cast<double>(run.requests);
    v["accept_ratio"] =
        static_cast<double>(run.accepted) / static_cast<double>(run.requests);
    // A cell proven optimal by both models below the safety cap meets it.
    v["slo_ok_ratio"] = 1.0 - static_cast<double>(result->failed) /
                                  static_cast<double>(result->attempted);
    v["samples"] = static_cast<double>(run.op_ms.size());
    return;
  }

  // Half the cells untraced, then the same cells traced.
  ExactTotals untraced;
  exact_cells(cells, count / 2, false, nullptr, &objectives, result,
              &untraced);
  BenchSpans spans;
  TracedPass traced_pass(options.out_dir, &spans);
  ExactTotals traced;
  exact_cells(cells, count / 2, true, &spans, &objectives, result, &traced);
  traced_pass.finish(options.out_dir);
  v["mip.cut_rounds"] = static_cast<double>(traced.cut_rounds);
  v["mip.rc_fixed"] = static_cast<double>(traced.rc_fixed);
  v["trace.overhead"] = (traced.seconds - untraced.seconds) / untraced.seconds;
}

// ----- admit_exact ------------------------------------------------------

struct AdmitSetup {
  workload::ArrivalTrace trace;
  net::SubstrateNetwork substrate;
  serve::AdmissionOptions admission;
};

workload::WorkloadParams serve_params(std::uint64_t seed, int requests) {
  workload::WorkloadParams params;  // 4×5 grid, five-node stars
  params.num_requests = requests;
  params.flexibility = 1.5;
  params.seed = seed;
  return params;
}

net::SubstrateNetwork serve_substrate(const workload::WorkloadParams& p) {
  return net::make_grid(p.grid_rows, p.grid_cols, p.node_capacity,
                        p.link_capacity);
}

serve::RequestMessage message_for(const workload::ArrivalTrace& trace,
                                  std::size_t i) {
  serve::RequestMessage message;
  message.id = "R" + std::to_string(i);
  message.request = trace.requests[i].request;
  message.mapping = trace.requests[i].mapping;
  return message;
}

struct AdmitTotals {
  std::vector<double> decision_ms;
  std::vector<double> exact_ms;
  std::vector<double> fastpath_ms;
  double pass_seconds = 0.0;
  double prefix_seconds = 0.0;  // decision time of the first `prefix` arrivals
  double admit_seconds = 0.0;
  double wasted_seconds = 0.0;  // admit() time that ended in a shed
  long accepted = 0;
  long exact_decided = 0;
  long shed_timeout = 0, shed_infeasible = 0, shed_too_large = 0;
  double component_sum = 0.0;
  double revenue = 0.0;
};

/// One closed-loop pass with a single caller over the first `arrivals`
/// arrivals, on a fresh engine. A shed on the solver rung falls back to
/// the fastpath, as the daemon does. `between` runs between arrivals;
/// its time is left out of the pass.
void admit_pass(const AdmitSetup& setup, std::size_t arrivals,
                std::size_t prefix, BenchSpans* spans, Result* result,
                AdmitTotals* totals,
                const std::function<void()>& between = {}) {
  serve::AdmissionEngine engine(setup.substrate, setup.admission);
  const double budget_s = setup.admission.greedy.per_iteration_time_limit;
  Stopwatch pass;
  double between_seconds = 0.0;
  for (std::size_t i = 0; i < arrivals; ++i) {
    if (i > 0 && between) between_seconds += timed(between);
    const serve::RequestMessage message = message_for(setup.trace, i);
    ++result->attempted;
    BenchSpans::Scope op(spans, "bench.arrival", "\"id\":\"" + message.id + "\"");
    Stopwatch decision;
    serve::AdmitResult admitted;
    {
      BenchSpans::Scope span(spans, "admission.admit");
      admitted = engine.admit(message);
    }
    const double admit_s = decision.seconds();
    totals->admit_seconds += admit_s;
    totals->exact_ms.push_back(admit_s * 1e3);
    const bool solver_rung =
        admitted.outcome == serve::AdmitOutcome::kSolverFailed ||
        admitted.outcome == serve::AdmitOutcome::kComponentTooLarge;
    if (solver_rung) {
      totals->wasted_seconds += admit_s;
      if (admitted.outcome == serve::AdmitOutcome::kComponentTooLarge)
        ++totals->shed_too_large;
      else if (admit_s >= 0.9 * budget_s)
        ++totals->shed_timeout;
      else
        ++totals->shed_infeasible;
      Stopwatch fast;
      {
        BenchSpans::Scope span(spans, "admission.fastpath");
        admitted = engine.admit_fastpath(message);
      }
      totals->fastpath_ms.push_back(fast.seconds() * 1e3);
    } else {
      ++totals->exact_decided;
      totals->component_sum += admitted.component_size;
    }
    totals->decision_ms.push_back(decision.seconds() * 1e3);
    if (admitted.outcome == serve::AdmitOutcome::kAccepted) ++totals->accepted;
    if (i + 1 == prefix) totals->prefix_seconds = pass.seconds() - between_seconds;
  }
  totals->pass_seconds = pass.seconds() - between_seconds;

  // The engine counts every call it decides, so a shed arrival counts
  // twice: once for the bailed exact call, once for the fastpath.
  const std::uint64_t calls =
      arrivals + static_cast<std::uint64_t>(totals->exact_ms.size() -
                                            totals->exact_decided);
  result->check(engine.decisions_total() == calls,
                "engine decided " + std::to_string(engine.decisions_total()) +
                    " calls for " + std::to_string(arrivals) +
                    " arrivals and " + std::to_string(calls - arrivals) +
                    " sheds");
  result->check(engine.accepted_total() ==
                    static_cast<std::uint64_t>(totals->accepted),
                "engine accepted_total disagrees with the decisions");
  const serve::AdmissionEngine::Snapshot state = engine.snapshot_full();
  const core::ValidationResult valid =
      serve::validate_commit_state(setup.substrate, state.commits, state.retired);
  result->check(valid.ok, "final engine history fails validate_commit_state" +
                              (valid.errors.empty() ? std::string()
                                                    : ": " + valid.errors.front()));
  for (const serve::Commit& c : engine.history())
    totals->revenue += c.original.duration() * c.original.total_node_demand();
}

void run_admit(const Options& options, Result* result) {
  AdmitSetup setup;
  const auto set_up = [&](AdmitSetup* out) {
    const workload::WorkloadParams params =
        serve_params(options.seed, kAdmitArrivals);
    out->trace = workload::make_trace(params);
    out->substrate = serve_substrate(params);
    out->admission.max_step_requests = kAdmitMaxStep;
    out->admission.greedy.per_iteration_time_limit =
        kShedFraction * kSloMs / 1000.0;
    serve::AdmissionEngine warm(out->substrate, out->admission);
  };
  SetupTimes setup_times;
  setup_times.sample([&] { return timed([&] { set_up(&setup); }); });
  const auto set_up_again = [&] {
    AdmitSetup again;
    return timed([&] { set_up(&again); });
  };
  const std::size_t arrivals = setup.trace.requests.size();
  auto& v = result->values;

  if (!options.trace) {
    std::vector<AdmitTotals> passes;
    const Stopwatch clock;
    const auto between = [&] {
      if (setup_times.due(clock.seconds(), options.seconds))
        setup_times.sample(set_up_again);
    };
    run_passes(options.seconds, [&] {
      admit_pass(setup, arrivals, 0, nullptr, result, &passes.emplace_back(),
                 between);
      return passes.back().pass_seconds;
    });
    while (setup_times.samples() < kSetupSamples)
      setup_times.sample(set_up_again);
    v["setup_s"] = setup_times.median();
    std::vector<double> decision_ms;
    double seconds = 0.0;
    for (const AdmitTotals& pass : passes) {
      decision_ms.insert(decision_ms.end(), pass.decision_ms.begin(),
                         pass.decision_ms.end());
      seconds += pass.pass_seconds;
    }
    // Quality comes from the first pass: later ones repeat its arrivals.
    const AdmitTotals& first = passes.front();
    long within = 0;
    for (const double ms : decision_ms) within += ms <= kSloMs ? 1 : 0;
    const double decisions = static_cast<double>(decision_ms.size());
    v["per_s"] = decisions / seconds;
    v["ms_mean"] = mean_of(decision_ms);
    v["ms_p50"] = q(decision_ms, 0.50);
    v["ms_p90"] = q(decision_ms, 0.90);
    v["ms_p99"] = q(decision_ms, 0.99);
    v["revenue"] = first.revenue / static_cast<double>(arrivals);
    v["accept_ratio"] =
        static_cast<double>(first.accepted) / static_cast<double>(arrivals);
    v["slo_ok_ratio"] = static_cast<double>(within) / decisions;
    v["samples"] = decisions;
    return;
  }

  // Tracing overhead is measured on a prefix, which keeps the traced run
  // within one pass of wall time.
  const std::size_t prefix = std::min<std::size_t>(100, arrivals);
  AdmitTotals untraced;
  admit_pass(setup, prefix, prefix, nullptr, result, &untraced);
  BenchSpans spans;
  TracedPass traced_pass(options.out_dir, &spans);
  AdmitTotals traced;
  admit_pass(setup, arrivals, prefix, &spans, result, &traced);
  traced_pass.finish(options.out_dir);
  v["admission.exact_ms_p50"] = q(traced.exact_ms, 0.50);
  v["admission.exact_ms_p99"] = q(traced.exact_ms, 0.99);
  v["admission.fastpath_ms_p50"] = q(traced.fastpath_ms, 0.50);
  v["admission.shed_timeout"] = static_cast<double>(traced.shed_timeout);
  v["admission.shed_infeasible"] = static_cast<double>(traced.shed_infeasible);
  v["admission.shed_too_large"] = static_cast<double>(traced.shed_too_large);
  v["admission.exact_ratio"] = static_cast<double>(traced.exact_decided) /
                               static_cast<double>(arrivals);
  v["admission.wasted_share"] = traced.wasted_seconds / traced.admit_seconds;
  v["admission.component_mean"] =
      traced.exact_decided > 0
          ? traced.component_sum / static_cast<double>(traced.exact_decided)
          : 0.0;
  v["trace.overhead"] =
      (traced.prefix_seconds - untraced.pass_seconds) / untraced.pass_seconds;
}

// ----- ingest_wal -------------------------------------------------------

/// A tvnep_serve child process on a stdin/stdout pipe pair.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& stderr_path) {
    int in_pipe[2];
    int out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }

  ~DaemonProcess() {
    close_input();
    if (from_child_ >= 0) ::close(from_child_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool write_all(const std::string& data) {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(to_child_, data.data() + done, data.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  void close_input() {
    if (to_child_ >= 0) ::close(to_child_);
    to_child_ = -1;
  }

  /// Next complete output line, or nullopt on EOF or when `timeout_s`
  /// passes; `*read_at` is when the bytes holding the line arrived.
  std::optional<std::string> read_line(double timeout_s, double* read_at,
                                       const Stopwatch& clock) {
    const double deadline = clock.seconds() + timeout_s;
    while (true) {
      const std::size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        std::string line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        *read_at = pending_at_;
        return line;
      }
      const double left = deadline - clock.seconds();
      if (left <= 0.0) return std::nullopt;
      struct pollfd pfd{from_child_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;
      char buffer[65536];
      const ssize_t n = ::read(from_child_, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      pending_.append(buffer, static_cast<std::size_t>(n));
      pending_at_ = clock.seconds();
    }
  }

  /// Waits up to `timeout_s` for a clean exit; returns the exit status or
  /// -1 (the child is killed by the destructor then).
  int wait_exit(double timeout_s) {
    Stopwatch watch;
    while (watch.seconds() < timeout_s) {
      int status = 0;
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string pending_;
  double pending_at_ = 0.0;
};

struct IngestRun {
  std::vector<double> latency_ms;  // due → decision line read, per request
  std::vector<double> late_ms;     // send − due, per request
  long sent = 0;
  long decided = 0;
  long refused = 0;
  long within_slo = 0;  // decided within kSloMs of due, and not refused
  long accepted = 0;
  long bye_decided = -1;
  double revenue = 0.0;
  double span_seconds = 0.0;  // first due → last decision read
  std::set<std::string> acked_accepts;
};

std::string fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

std::vector<std::string> daemon_args(const std::string& state_dir,
                                     const std::string& trace_prefix) {
  std::vector<std::string> args = {"--state-dir", state_dir, "--max-step",
                                   std::to_string(kIngestMaxStep)};
  if (!trace_prefix.empty()) {
    args.insert(args.end(), {"--trace", trace_prefix + "_trace.json",
                             "--metrics", trace_prefix + "_metrics.json"});
  }
  return args;
}

/// Spawns the daemon on an empty state dir and waits for its recovery
/// line. Throws when the daemon does not come up.
std::unique_ptr<DaemonProcess> start_daemon(const Options& options,
                                            const std::string& state_dir,
                                            const std::string& trace_prefix,
                                            const Stopwatch& clock,
                                            Result* result) {
  auto daemon = std::make_unique<DaemonProcess>(
      options.serve_path, daemon_args(fresh_dir(state_dir), trace_prefix),
      options.out_dir + "/daemon.stderr");
  double at = 0.0;
  const std::optional<std::string> line = daemon->read_line(30.0, &at, clock);
  if (!line) throw std::runtime_error("daemon printed no recovery line");
  const serve::JsonValue hello = serve::parse_json(*line, "<daemon>");
  const serve::JsonValue* recovered = hello.find("recovered");
  result->check(recovered != nullptr && recovered->is_bool() &&
                    !recovered->as_bool(),
                "daemon did not start from an empty state: " + *line);
  return daemon;
}

/// `key` of a decoded daemon line when it is a string, else "".
std::string string_field(const serve::JsonValue& msg, const char* key) {
  const serve::JsonValue* value = msg.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : "";
}

/// The paced open loop: request i is due at start + i / rate; a writer
/// thread sends each line at its due time while this thread reads the
/// decisions.
IngestRun ingest_run(const workload::ArrivalTrace& trace,
                     const std::vector<std::string>& lines, std::size_t count,
                     DaemonProcess* daemon, const Stopwatch& clock,
                     BenchSpans* spans, Result* result) {
  IngestRun run;
  std::vector<double> due(count);
  std::vector<double> sent_at(count, -1.0);
  const double start = clock.seconds() + 0.05;
  for (std::size_t i = 0; i < count; ++i)
    due[i] = start + static_cast<double>(i) / kIngestRate;
  std::atomic<bool> writer_ok{true};
  // A jthread joins on every exit path, so an exception below cannot
  // leave the writer running on this frame's data.
  std::jthread writer([&] {
    for (std::size_t i = 0; i < count; ++i) {
      const double wait = due[i] - clock.seconds();
      if (wait > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      sent_at[i] = clock.seconds();
      if (!daemon->write_all(lines[i])) {
        writer_ok = false;
        return;
      }
    }
    if (!daemon->write_all("{\"type\":\"drain\"}\n")) writer_ok = false;
  });

  std::vector<int> decisions(count, 0);
  const double limit = static_cast<double>(count) / kIngestRate + 60.0;
  double last_read = start;
  while (true) {
    double at = 0.0;
    const std::optional<std::string> line = daemon->read_line(
        std::max(1.0, start + limit - clock.seconds()), &at, clock);
    if (!line) break;
    serve::JsonValue msg;
    try {
      msg = serve::parse_json(*line, "<daemon>");
    } catch (const std::exception&) {
      result->check(false, "unparsable daemon line: " + *line);
      continue;
    }
    const std::string kind = string_field(msg, "type");
    const serve::JsonValue* decided = msg.find("decided");
    if (kind == "bye" && decided != nullptr && decided->is_number()) {
      run.bye_decided = static_cast<long>(decided->as_number());
      break;
    }
    const std::string id = string_field(msg, "id");
    std::size_t i = count;
    if (kind == "decision" && id.size() > 1 && id[0] == 'R' &&
        id.find_first_not_of("0123456789", 1) == std::string::npos)
      i = std::stoul(id.substr(1));
    if (i >= count) {
      result->check(false, "unexpected daemon line: " + *line);
      continue;
    }
    ++decisions[i];
    ++run.decided;
    last_read = at;
    const double latency_ms = (at - due[i]) * 1e3;
    run.latency_ms.push_back(latency_ms);
    if (spans != nullptr)
      spans->add("bench.request", static_cast<std::int64_t>(due[i] * 1e6),
                 static_cast<std::int64_t>(latency_ms * 1e3),
                 "\"id\":\"" + id + "\"");
    // The daemon refuses on the door (queue full) at once, and on the
    // worker rung only once a request has aged past the SLO; either way a
    // refusal never meets it.
    if (string_field(msg, "reason") == "overload") ++run.refused;
    else if (latency_ms <= kSloMs) ++run.within_slo;
    const serve::JsonValue* accepted = msg.find("accepted");
    if (accepted != nullptr && accepted->is_bool() && accepted->as_bool()) {
      ++run.accepted;
      run.acked_accepts.insert(id);
      const net::VnetRequest& request = trace.requests[i].request;
      run.revenue += request.duration() * request.total_node_demand();
    }
  }
  writer.join();
  daemon->close_input();
  result->check(daemon->wait_exit(30.0) == 0, "daemon did not exit cleanly");
  run.sent = static_cast<long>(count);
  run.span_seconds = last_read - start;
  for (std::size_t i = 0; i < count; ++i) {
    if (sent_at[i] >= 0.0) run.late_ms.push_back((sent_at[i] - due[i]) * 1e3);
    if (decisions[i] != 1) {
      result->check(false, "request R" + std::to_string(i) + " got " +
                               std::to_string(decisions[i]) + " decisions");
    }
  }
  result->check(writer_ok.load(), "writing to the daemon failed");
  result->check(run.bye_decided == run.sent,
                "bye.decided " + std::to_string(run.bye_decided) +
                    " != sent " + std::to_string(run.sent));
  return run;
}

/// Reopens the state dir after the daemon exited: the recovered ledger
/// must hold every acknowledged accept and pass capacity validation.
/// Returns the wall time of one write_snapshot of the recovered state.
double check_recovered(const std::string& state_dir, const IngestRun& run,
                       Result* result, double* bytes_per_record) {
  const workload::WorkloadParams params = serve_params(1, 1);
  const net::SubstrateNetwork substrate = serve_substrate(params);
  serve::AdmissionOptions admission;
  admission.max_step_requests = kIngestMaxStep;

  *bytes_per_record = 0.0;
  {
    std::ifstream log(state_dir + "/wal.jsonl", std::ios::binary);
    std::string line;
    long records = -1;  // the first line is the header
    double bytes = 0.0;
    while (std::getline(log, line)) {
      if (records >= 0) bytes += static_cast<double>(line.size() + 1);
      ++records;
    }
    if (records > 0) *bytes_per_record = bytes / static_cast<double>(records);
  }

  serve::RecoveredState recovered;
  const std::unique_ptr<serve::Wal> wal = serve::Wal::open(
      state_dir, serve::serve_state_fingerprint(substrate, admission),
      serve::WalOptions{}, &recovered);
  std::set<std::string> ledger;
  for (const serve::Commit& c : recovered.state.commits) ledger.insert(c.id);
  for (const serve::Commit& c : recovered.state.retired) ledger.insert(c.id);
  long missing = 0;
  for (const std::string& id : run.acked_accepts) missing += ledger.count(id) ? 0 : 1;
  result->check(missing == 0, std::to_string(missing) +
                                  " acknowledged accepts missing from the WAL");
  result->check(ledger.size() == run.acked_accepts.size(),
                "WAL ledger holds " + std::to_string(ledger.size()) +
                    " commits, " + std::to_string(run.acked_accepts.size()) +
                    " accepts were acknowledged");
  const core::ValidationResult valid = serve::validate_commit_state(
      substrate, recovered.state.commits, recovered.state.retired);
  result->check(valid.ok, "recovered WAL state fails validate_commit_state");
  Stopwatch snapshot;
  result->check(wal->write_snapshot(recovered.state),
                "write_snapshot of the recovered state failed");
  return snapshot.seconds() * 1e3;
}

void run_ingest(const Options& options, Result* result) {
  if (options.serve_path.empty())
    throw std::runtime_error("ingest needs --serve PATH");
  const Stopwatch clock;
  const std::string state_dir = options.out_dir + "/state";
  // The traced run splits --seconds between an untraced and a traced run.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t count =
      static_cast<std::size_t>(std::max(200.0, kIngestRate * seconds));

  workload::ArrivalTrace trace;
  std::vector<std::string> lines;
  std::unique_ptr<DaemonProcess> daemon;
  // One set-up: trace, request lines, a daemon up on an empty state dir.
  const auto set_up = [&] {
    const Stopwatch watch;
    trace = workload::make_trace(serve_params(options.seed, static_cast<int>(count)));
    lines.clear();
    for (std::size_t i = 0; i < trace.requests.size(); ++i)
      lines.push_back(serve::encode_request(message_for(trace, i)) + "\n");
    daemon = start_daemon(options, state_dir, "", clock, result);
    return watch.seconds();
  };
  // A sampled set-up; its daemon is shut down outside the timing.
  const auto set_up_idle = [&] {
    const double seconds = set_up();
    daemon->close_input();
    result->check(daemon->wait_exit(30.0) == 0, "idle daemon did not exit");
    daemon.reset();
    return seconds;
  };
  SetupTimes setup;
  if (!options.trace)
    while (setup.samples() < kSetupSamples / 2) setup.sample(set_up_idle);
  set_up();  // the daemon the run is measured on
  auto& v = result->values;

  // A refusal is the daemon's load-shedding answer: a valid decision, not
  // a failed operation. How many there are depends on the host's timing
  // (snapshot stalls), so they lower slo_ok_ratio and are printed instead.
  auto account = [&](const IngestRun& run) {
    result->attempted += run.sent;
    v["refused"] += static_cast<double>(run.refused);
  };

  if (!options.trace) {
    const IngestRun run =
        ingest_run(trace, lines, count, daemon.get(), clock, nullptr, result);
    daemon.reset();
    account(run);
    double bytes = 0.0;
    check_recovered(state_dir, run, result, &bytes);
    while (setup.samples() < kSetupSamples) setup.sample(set_up_idle);
    v["setup_s"] = setup.median();
    v["per_s"] = static_cast<double>(run.decided) / run.span_seconds;
    v["ms_mean"] = mean_of(run.latency_ms);
    v["ms_p50"] = q(run.latency_ms, 0.50);
    v["ms_p90"] = q(run.latency_ms, 0.90);
    v["ms_p99"] = q(run.latency_ms, 0.99);
    v["revenue"] = run.revenue / static_cast<double>(run.sent);
    v["accept_ratio"] =
        static_cast<double>(run.accepted) / static_cast<double>(run.sent);
    v["slo_ok_ratio"] =
        static_cast<double>(run.within_slo) / static_cast<double>(run.sent);
    v["samples"] = static_cast<double>(run.latency_ms.size());
    return;
  }

  const IngestRun untraced =
      ingest_run(trace, lines, count, daemon.get(), clock, nullptr, result);
  daemon.reset();
  account(untraced);
  // The traced daemon writes its trace and metrics at exit. The driver's
  // request spans (due time to decision read) live on the driver's own
  // clock, a separate track from the daemon's spans.
  BenchSpans spans;
  spans.set_on(true);
  daemon = start_daemon(options, state_dir, options.out_dir + "/program", clock,
                        result);
  const IngestRun traced =
      ingest_run(trace, lines, count, daemon.get(), clock, &spans, result);
  daemon.reset();
  account(traced);
  spans.write(options.out_dir + "/bench_trace.json", 0);
  double bytes = 0.0;
  v["wal.snapshot_ms"] = check_recovered(state_dir, traced, result, &bytes);
  v["wal.bytes_per_decision"] = bytes;
  v["driver.late_ms_max"] =
      *std::max_element(traced.late_ms.begin(), traced.late_ms.end());
  v["trace.overhead"] =
      (mean_of(traced.latency_ms) - mean_of(untraced.latency_ms)) /
      mean_of(untraced.latency_ms);
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-run must surface as a failed write, not kill
  // the driver.
  ::signal(SIGPIPE, SIG_IGN);
  Result result;
  try {
    const Options options = parse_options(argc, argv);
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "exact") run_exact(options, &result);
    else if (options.workload == "admit") run_admit(options, &result);
    else if (options.workload == "ingest") run_ingest(options, &result);
    else throw std::runtime_error("unknown workload " + options.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvbench: %s\n", e.what());
    result.check(false, std::string("driver error: ") + e.what());
    std::printf("%s\n", result.json().c_str());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  return 0;
}
