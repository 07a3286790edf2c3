// The kill-point matrix (DESIGN.md §16): crash the durability layer at
// every named fault point, at several occurrences of each, then recover
// from the state dir and resume the trace at the recovered decision
// index. The recovered run's decision stream — outcome, start, end, down
// to the last bit of every double — must equal the uninterrupted run's,
// and so must the final engine state. This is the end-to-end statement
// that a crash never forfeits admitted revenue and never double-admits:
// every acknowledged decision survives, every unacknowledged one is
// cleanly dropped.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "serve/wal.hpp"
#include "support/json.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "temp_dir.hpp"

namespace tvnep::serve {
namespace {

workload::WorkloadParams matrix_params() {
  workload::WorkloadParams p;
  p.num_requests = 8;
  p.flexibility = 1.5;
  p.seed = 3;
  return p;
}

/// Sparse arrivals: whole components retire mid-trace, so snapshots have
/// newly retired commits to append to the ledger.
workload::WorkloadParams retiring_params() {
  workload::WorkloadParams p = matrix_params();
  p.num_requests = 12;
  p.interarrival_mean = 12.0;
  return p;
}

RequestMessage to_message(const workload::TraceRequest& tr, std::size_t i) {
  RequestMessage message;
  message.id = tr.request.name().empty() ? "R" + std::to_string(i)
                                         : tr.request.name();
  message.request = tr.request;
  message.mapping = tr.mapping;
  return message;
}

net::SubstrateNetwork paper_grid(const workload::WorkloadParams& p) {
  return net::make_grid(p.grid_rows, p.grid_cols, p.node_capacity,
                        p.link_capacity);
}

/// Byte-exact key of one decision: equality means the recovered engine
/// made the identical call, not merely a similar one.
std::string decision_key(const AdmitResult& r) {
  return std::to_string(static_cast<int>(r.outcome)) + "/" +
         wal_number(r.start) + "/" + wal_number(r.end) + "/" +
         std::to_string(r.component_size);
}

std::string encode_state(const AdmissionEngine::Snapshot& s) {
  std::string out = "v=" + std::to_string(s.version) +
                    ";now=" + wal_number(s.now) +
                    ";next_seq=" + std::to_string(s.next_seq) +
                    ";accepted=" + std::to_string(s.accepted_total) +
                    ";decisions=" + std::to_string(s.decisions) + "\n";
  for (const Commit& c : s.commits) out += "A" + encode_commit(c) + "\n";
  for (const Commit& c : s.retired) out += "R" + encode_commit(c) + "\n";
  return out;
}

struct Reference {
  std::vector<std::string> decisions;  // one key per trace request
  std::string final_state;
};

Reference run_uninterrupted(const workload::WorkloadParams& p,
                            const workload::ArrivalTrace& trace) {
  AdmissionEngine engine(paper_grid(p), {});
  Reference out;
  for (std::size_t i = 0; i < trace.requests.size(); ++i)
    out.decisions.push_back(
        decision_key(engine.admit(to_message(trace.requests[i], i))));
  out.final_state = encode_state(engine.snapshot_full());
  return out;
}

constexpr int kSnapshotEvery = 3;

/// Drives the trace from `begin` the way the daemon worker does: admit,
/// then publish a snapshot under the engine lock when the WAL asks.
void drive(AdmissionEngine* engine, Wal* wal,
           const workload::ArrivalTrace& trace, std::size_t begin,
           std::vector<std::string>* decisions) {
  for (std::size_t i = begin; i < trace.requests.size(); ++i) {
    const AdmitResult result = engine->admit(to_message(trace.requests[i], i));
    if (decisions != nullptr) decisions->push_back(decision_key(result));
    if (!wal->crashed() && wal->wants_snapshot())
      wal->snapshot_engine(*engine);
  }
}

/// One matrix cell: crash at occurrence `occurrence` of `point`, restart
/// from the state dir, resume at the recovered decision index, and demand
/// a byte-identical stream and final state.
void run_matrix_case(const workload::WorkloadParams& p,
                     const workload::ArrivalTrace& trace,
                     const Reference& reference, const char* point,
                     int occurrence) {
  SCOPED_TRACE(std::string(point) + " occurrence " +
               std::to_string(occurrence));
  TempDir dir;
  const net::SubstrateNetwork substrate = paper_grid(p);
  const AdmissionOptions admission;
  const std::uint64_t fp = serve_state_fingerprint(substrate, admission);

  WalOptions faulty;
  faulty.snapshot_every = kSnapshotEvery;
  int hits = 0;
  faulty.fault_hook = [&](const char* at) {
    if (std::strcmp(at, point) == 0 && ++hits == occurrence)
      return WalFault::kCrash;
    return WalFault::kNone;
  };

  // Phase 1: serve until the injected crash freezes the log. The engine
  // keeps going for the rest of the loop iteration (as a dying process
  // might), but nothing past the crash point reaches disk.
  {
    AdmissionEngine engine(substrate, admission);
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
    wal->attach(&engine);
    for (std::size_t i = 0;
         i < trace.requests.size() && !wal->crashed(); ++i) {
      engine.admit(to_message(trace.requests[i], i));
      if (!wal->crashed() && wal->wants_snapshot())
        wal->snapshot_engine(engine);
    }
    ASSERT_TRUE(wal->crashed());  // the dry run said this point fires
    engine.set_state_sink({});
  }

  // Phase 2: restart. Recovery must hand back a capacity-feasible state
  // and a resume index no further than the crash (never a decision the
  // log did not durably record).
  RecoveredState recovered;
  WalOptions clean;
  clean.snapshot_every = kSnapshotEvery;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, clean, &recovered);
  const std::uint64_t resume = recovered.state.decisions;
  ASSERT_LE(resume, trace.requests.size());
  const core::ValidationResult check = validate_commit_state(
      substrate, recovered.state.commits, recovered.state.retired);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);

  AdmissionEngine engine(substrate, admission);
  engine.restore(recovered.state);
  wal->attach(&engine);

  // Phase 3: resume. Every re-made decision must be byte-identical to the
  // uninterrupted run's, and so must the final state.
  std::vector<std::string> resumed;
  drive(&engine, wal.get(), trace, resume, &resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], reference.decisions[resume + i])
        << "request " << (resume + i);
  EXPECT_EQ(encode_state(engine.snapshot_full()), reference.final_state);
  engine.set_state_sink({});
}

/// Dry run: how often each fault point fires on `trace`, so the matrix
/// covers first/middle/last occurrences without guessing.
std::map<std::string, int> count_fault_points(
    const workload::WorkloadParams& p, const workload::ArrivalTrace& trace) {
  std::map<std::string, int> fired;
  TempDir dir;
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  WalOptions counting;
  counting.snapshot_every = kSnapshotEvery;
  counting.fault_hook = [&](const char* at) {
    ++fired[at];
    return WalFault::kNone;
  };
  AdmissionEngine engine(substrate, {});
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, counting, &recovered);
  wal->attach(&engine);
  drive(&engine, wal.get(), trace, 0, nullptr);
  engine.set_state_sink({});
  return fired;
}

TEST(ServeRecovery, KillPointMatrixRecoversByteIdentically) {
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);
  std::map<std::string, int> fired = count_fault_points(p, trace);
  ASSERT_GE(fired["append.before_write"],
            static_cast<int>(trace.requests.size()));
  ASSERT_GE(fired["snapshot.before_write"], 2);

  // The ledger points fire only at snapshots with newly retired commits,
  // which this dense trace never has; they run on a sparse one that does.
  const workload::WorkloadParams sparse = retiring_params();
  const workload::ArrivalTrace sparse_trace = workload::make_trace(sparse);
  const Reference sparse_reference = run_uninterrupted(sparse, sparse_trace);
  std::map<std::string, int> sparse_fired =
      count_fault_points(sparse, sparse_trace);

  for (const char* point :
       {"append.before_write", "append.write", "append.after_write",
        "append.fsync", "append.after_fsync", "snapshot.before_write",
        "snapshot.after_write", "snapshot.after_compact",
        "ledger.before_write", "ledger.write", "ledger.fsync",
        "ledger.after_fsync"}) {
    const bool ledger = std::strncmp(point, "ledger.", 7) == 0;
    const int count = ledger ? sparse_fired[point] : fired[point];
    ASSERT_GT(count, 0) << point;
    std::vector<int> occurrences = {1};
    if (count >= 3) occurrences.push_back((count + 1) / 2);
    if (count >= 2) occurrences.push_back(count);
    for (const int occurrence : occurrences) {
      if (ledger)
        run_matrix_case(sparse, sparse_trace, sparse_reference, point,
                        occurrence);
      else
        run_matrix_case(p, trace, reference, point, occurrence);
    }
  }
}

TEST(ServeRecovery, LedgerCrashBeforePublishKeepsEachRetiredCommitOnce) {
  // Crash after the ledger fsync and before the snapshot publish: the
  // ledger then holds lines no snapshot counts, whose retirements are
  // still in the log. Recovery must cut them and replay the log, so after
  // the next snapshot the ledger holds every retired commit exactly once,
  // in retirement order.
  const workload::WorkloadParams p = retiring_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;
  const auto ledger_lines = [&] {
    std::vector<std::string> lines;
    std::ifstream in(dir.file("ledger.jsonl"));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };

  // The second ledger append crashes, so the newest snapshot counts the
  // first append's lines and recovery has lines past them to cut.
  WalOptions faulty;
  faulty.snapshot_every = kSnapshotEvery;
  int appends = 0;
  faulty.fault_hook = [&](const char* at) {
    return std::strcmp(at, "ledger.after_fsync") == 0 && ++appends == 2
               ? WalFault::kCrash
               : WalFault::kNone;
  };
  std::size_t retired_at_crash = 0;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
    wal->attach(&engine);
    for (std::size_t i = 0;
         i < trace.requests.size() && !wal->crashed(); ++i) {
      engine.admit(to_message(trace.requests[i], i));
      if (wal->wants_snapshot()) wal->snapshot_engine(engine);
    }
    ASSERT_TRUE(wal->crashed());
    retired_at_crash = engine.retired_commits();
    engine.set_state_sink({});
  }
  ASSERT_EQ(ledger_lines().size(), 1 + retired_at_crash);
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) newest = name;
  }
  std::ifstream snapshot(dir.file(newest));
  std::string header;
  std::getline(snapshot, header);
  const JsonValue* counted = parse_json(header, newest).find("ledger");
  ASSERT_NE(counted, nullptr);
  ASSERT_GT(counted->as_number(), 0.0);
  ASSERT_LT(counted->as_number(), static_cast<double>(retired_at_crash));

  RecoveredState recovered;
  WalOptions clean;
  clean.snapshot_every = kSnapshotEvery;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, clean, &recovered);
  EXPECT_EQ(recovered.state.retired.size(), retired_at_crash);
  AdmissionEngine engine(substrate, {});
  engine.restore(recovered.state);
  wal->attach(&engine);
  std::vector<std::string> resumed;
  drive(&engine, wal.get(), trace, recovered.state.decisions, &resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], reference.decisions[recovered.state.decisions + i]);
  ASSERT_TRUE(wal->snapshot_engine(engine));
  engine.set_state_sink({});

  const AdmissionEngine::Snapshot final_state = engine.snapshot_full();
  EXPECT_EQ(encode_state(final_state), reference.final_state);
  const std::vector<std::string> lines = ledger_lines();
  ASSERT_EQ(lines.size(), 1 + final_state.retired.size());
  for (std::size_t i = 0; i < final_state.retired.size(); ++i)
    EXPECT_EQ(lines[i + 1], encode_commit(final_state.retired[i]))
        << "ledger line " << (i + 2);
}

TEST(ServeRecovery, ShortWriteMatrixDropsOnlyTheTornDecision) {
  // The torn-tail variant of the matrix: crash mid-write at each record,
  // so recovery must also repair the log before resuming.
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});

  for (const int occurrence : {1, 4, 8}) {
    SCOPED_TRACE("short write at record " + std::to_string(occurrence));
    TempDir dir;
    WalOptions faulty;
    faulty.snapshot_every = 0;
    int hits = 0;
    faulty.fault_hook = [&](const char* at) {
      if (std::strcmp(at, "append.write") == 0 && ++hits == occurrence)
        return WalFault::kShortWrite;
      return WalFault::kNone;
    };
    {
      AdmissionEngine engine(substrate, {});
      RecoveredState recovered;
      std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
      wal->attach(&engine);
      for (std::size_t i = 0;
           i < trace.requests.size() && !wal->crashed(); ++i)
        engine.admit(to_message(trace.requests[i], i));
      ASSERT_TRUE(wal->crashed());
      engine.set_state_sink({});
    }
    RecoveredState recovered;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
    EXPECT_EQ(wal->stats().torn_repaired, 1);
    EXPECT_EQ(recovered.state.decisions,
              static_cast<std::uint64_t>(occurrence - 1));
    AdmissionEngine engine(substrate, {});
    engine.restore(recovered.state);
    wal->attach(&engine);
    std::vector<std::string> resumed;
    drive(&engine, wal.get(), trace, recovered.state.decisions, &resumed);
    for (std::size_t i = 0; i < resumed.size(); ++i)
      EXPECT_EQ(resumed[i],
                reference.decisions[recovered.state.decisions + i]);
    EXPECT_EQ(encode_state(engine.snapshot_full()), reference.final_state);
    engine.set_state_sink({});
  }
}

TEST(ServeRecovery, RecoversAcrossComponentRetirement) {
  // Sparse arrivals retire whole components mid-trace; the retirement
  // records must replay so the recovered GC state (and the retired
  // ledger the validator re-checks) matches the live engine's.
  workload::WorkloadParams p = matrix_params();
  p.num_requests = 12;
  p.interarrival_mean = 12.0;
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const Reference reference = run_uninterrupted(p, trace);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;

  std::size_t live_retired = 0;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    WalOptions faulty;
    faulty.snapshot_every = kSnapshotEvery;
    int hits = 0;
    faulty.fault_hook = [&](const char* at) {
      if (std::strcmp(at, "append.after_fsync") == 0 && ++hits == 7)
        return WalFault::kCrash;
      return WalFault::kNone;
    };
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, faulty, &recovered);
    wal->attach(&engine);
    for (std::size_t i = 0;
         i < trace.requests.size() && !wal->crashed(); ++i) {
      engine.admit(to_message(trace.requests[i], i));
      if (!wal->crashed() && wal->wants_snapshot())
        wal->snapshot_engine(engine);
    }
    ASSERT_TRUE(wal->crashed());
    live_retired = engine.retired_commits();
    engine.set_state_sink({});
  }
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  // The crash fired after the 7th durable record, so all 7 decisions —
  // including any retirement they carried — recovered.
  EXPECT_EQ(recovered.state.decisions, 7u);
  EXPECT_GT(live_retired, 0u);
  EXPECT_EQ(recovered.state.retired.size(), live_retired);
  AdmissionEngine engine(substrate, {});
  engine.restore(recovered.state);
  wal->attach(&engine);
  std::vector<std::string> resumed;
  drive(&engine, wal.get(), trace, 7, &resumed);
  for (std::size_t i = 0; i < resumed.size(); ++i)
    EXPECT_EQ(resumed[i], reference.decisions[7 + i]) << "request " << (7 + i);
  EXPECT_EQ(encode_state(engine.snapshot_full()), reference.final_state);
  engine.set_state_sink({});
}

TEST(ServeRecovery, ReplaysReoptimizerInstallRecords) {
  // A version-checked install is a state transition like any other: it
  // must be logged and must replay, or recovery would resurrect the
  // pre-install schedules the reoptimizer already moved.
  const workload::WorkloadParams p = matrix_params();
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = paper_grid(p);
  const std::uint64_t fp = serve_state_fingerprint(substrate, {});
  TempDir dir;

  std::string live_state;
  {
    AdmissionEngine engine(substrate, {});
    RecoveredState recovered;
    WalOptions options;
    options.snapshot_every = 0;
    std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, options, &recovered);
    wal->attach(&engine);
    drive(&engine, wal.get(), trace, 0, nullptr);
    // Identity install: reschedule one not-yet-started commit onto its
    // current window (try_install refuses to move one that already
    // started) and re-assert every stored embedding — exercises both
    // record arrays.
    const AdmissionEngine::Snapshot snap = engine.snapshot();
    ASSERT_FALSE(snap.commits.empty());
    std::vector<AdmissionEngine::NewSchedule> reschedules;
    std::vector<AdmissionEngine::NewSchedule> embeddings;
    for (const Commit& c : snap.commits) {
      AdmissionEngine::NewSchedule schedule;
      schedule.seq = c.seq;
      schedule.start = c.start;
      schedule.end = c.end;
      schedule.embedding = c.embedding;
      if (reschedules.empty() && c.start > snap.now + 1e-6)
        reschedules.push_back(schedule);
      embeddings.push_back(std::move(schedule));
    }
    ASSERT_TRUE(engine.try_install(snap.version, reschedules, embeddings));
    live_state = encode_state(engine.snapshot_full());
    engine.set_state_sink({});
  }
  RecoveredState recovered;
  std::unique_ptr<Wal> wal = Wal::open(dir.path, fp, {}, &recovered);
  EXPECT_EQ(encode_state(recovered.state), live_state);
}

}  // namespace
}  // namespace tvnep::serve
