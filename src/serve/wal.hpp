// Durable admission state for the serve daemon (DESIGN.md §16): a
// write-ahead commit log plus periodic atomic snapshots, so a crash or
// restart never forfeits admitted revenue.
//
// Contract. Every engine state transition — a decision (commit accepted,
// with its event-anchored schedule, mapping and refreshed component
// flows; or a reject that advanced the virtual clock / retired a GC'd
// component), and a version-checked reoptimizer install — is appended to
// `<state-dir>/wal.jsonl` and made durable *before* the triggering call
// returns, hence before any acknowledgement reaches the wire. A record
// is durable iff it is newline-terminated and parseable; the fsync mode
// picks the power-loss window (`every` = fsync per record, `batch` =
// fsync every `batch_records`; a SIGKILL loses nothing in either mode
// because written bytes survive process death in the page cache).
//
// Recovery. `Wal::open` loads the newest valid snapshot
// (`snapshot-<txid>.state`, written through support/atomic_file with the
// %.17g round-trip-exact codec), replays the WAL tail in txid order
// (records at or below the snapshot txid are skipped, so a crash between
// snapshot publish and log compaction is idempotent), drops a torn final
// record and repairs it on disk, and refuses — via ParseError — a log or
// snapshot whose FNV-1a config fingerprint does not match the serving
// configuration. Header, line reader and torn-tail rule are
// support/journal's, shared with the sweep checkpoint journal. The caller then restores the engine from the recovered
// state and re-validates capacity feasibility (validate_commit_state)
// before serving; replaying the remaining trace through the recovered
// engine yields decisions byte-identical to an uninterrupted run.
//
// Fault seam. WalOptions::fault_hook mirrors SimplexOptions::fault_hook:
// a deterministic hook called at named kill points (before/after write,
// fsync, snapshot publish, compaction) that can crash the log in place
// (kCrash freezes the file exactly as a dying process would), tear a
// record (kShortWrite) or fail an I/O (kEio) — what the kill-point
// matrix test drives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "support/json.hpp"
#include "tvnep/solution.hpp"

namespace tvnep::serve {

/// Injected fault at a named WAL point. kCrash stops all further bytes
/// from reaching disk (the in-process analogue of dying at that instant);
/// kShortWrite writes a torn prefix of the record then crashes; kEio
/// fails the operation (counted, survivable — durability degrades,
/// service does not).
enum class WalFault { kNone, kCrash, kShortWrite, kEio };

struct WalOptions {
  enum class Fsync { kEvery, kBatch };
  /// every: fsync per record (power-loss window: none). batch: fsync
  /// every batch_records appends (power-loss window: up to one batch; a
  /// SIGKILL still loses nothing in either mode).
  Fsync fsync = Fsync::kEvery;
  int batch_records = 16;
  /// Decision records between automatic snapshots (log compaction); the
  /// daemon polls wants_snapshot() after each decision. 0 disables.
  int snapshot_every = 256;
  /// Snapshot generations kept on disk (the newest valid one loads).
  int snapshots_kept = 2;
  /// Deterministic crash/fault seam; called at the named kill points
  /// "append.before_write", "append.write", "append.after_write",
  /// "append.fsync", "append.after_fsync", "snapshot.before_write",
  /// "snapshot.after_write", "snapshot.after_compact". Compiled always,
  /// like SimplexOptions::fault_hook.
  std::function<WalFault(const char* point)> fault_hook;
};

struct WalStats {
  long appends = 0;        // records durably appended
  long fsyncs = 0;
  long io_errors = 0;      // failed appends/fsyncs (EIO, short write)
  long snapshots = 0;      // snapshots written by this instance
  long replayed = 0;       // records replayed at open
  long torn_repaired = 0;  // torn final records dropped and repaired
  bool recovered_snapshot = false;  // open() loaded a snapshot
};

/// Parse-and-validate outcome of recovery, handed to the daemon so it can
/// restore the engine and report what it found.
struct RecoveredState {
  AdmissionEngine::Snapshot state;
  /// True when the state dir held any prior state (snapshot or records).
  bool had_state = false;
};

class Wal {
 public:
  /// Opens the durability layer rooted at `dir` (created if missing):
  /// recovers snapshot + log tail into `recovered`, repairs a torn final
  /// record on disk, and leaves the appender positioned for new records
  /// (compacting into a fresh snapshot when anything was replayed).
  /// Throws ParseError on fingerprint mismatch or mid-log corruption.
  static std::unique_ptr<Wal> open(const std::string& dir,
                                   std::uint64_t fingerprint,
                                   WalOptions options,
                                   RecoveredState* recovered);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Wires the engine's state sink to this log: every transition is
  /// appended (and fsync'd per the mode) before the engine call returns.
  void attach(AdmissionEngine* engine);

  /// Appends one transition record. Returns false when the record is not
  /// durable (crashed log or injected/real I/O error).
  bool on_transition(const StateTransition& txn);

  /// True once `snapshot_every` decision records accumulated since the
  /// last snapshot — the caller should then publish a fresh snapshot via
  /// engine.with_snapshot_full([&](const auto& s) { wal.write_snapshot(s); })
  /// so that no install record can slip between reading the state and the
  /// log compaction (lock order engine → wal, same as the sink path).
  bool wants_snapshot() const;

  /// Publishes `state` as the newest snapshot (atomic temp + rename),
  /// compacts the log to a bare header, and prunes old generations.
  bool write_snapshot(const AdmissionEngine::Snapshot& state);

  /// The fault seam killed the log: no further bytes reach disk.
  bool crashed() const;

  WalStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  Wal() = default;

  /// Appends and (per the fsync mode) syncs one line. Returns durability;
  /// `*bytes_on_disk` reports whether the line's bytes reached the file
  /// even when not durable (fsync failure, post-write crash) — the caller
  /// must then still burn the txid the line was written with.
  bool append_line_locked(const std::string& line, bool* bytes_on_disk);
  bool sync_locked(const char* point);
  bool write_snapshot_locked(const AdmissionEngine::Snapshot& state);
  WalFault fault_at(const char* point);

  std::string dir_;
  std::string log_path_;
  std::uint64_t fingerprint_ = 0;
  WalOptions options_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  bool dead_ = false;
  std::uint64_t next_txid_ = 1;
  int unsynced_records_ = 0;
  int decisions_since_snapshot_ = 0;
  WalStats stats_;
};

// ----- codec + recovery helpers (exposed for tests and --dump-state) -----

/// The WAL's number codec, support/json's exact writer: re-reads to the
/// identical double, so recovered schedules and flows compare byte-exact
/// against the uninterrupted run.
inline std::string wal_number(double value) { return json_exact_number(value); }

/// One commit as a JSON object (schedule, original request, mapping,
/// stored embedding) — the record payload shared by WAL and snapshots.
std::string encode_commit(const Commit& commit);
Commit decode_commit(const JsonValue& value, const std::string& source,
                     long line);

/// FNV-1a over everything that defines decision identity for a serving
/// configuration: the substrate topology and capacities, the step cap and
/// GC mode, and the WAL format version. Latency/SLO knobs are excluded —
/// they shape shed timing, not engine decisions.
std::uint64_t serve_state_fingerprint(const net::SubstrateNetwork& substrate,
                                      const AdmissionOptions& options);

/// Re-validates capacity feasibility of a recovered commit set with the
/// independent continuous-time validator (Definition 2.1): every commit —
/// active and retired — is added to a fresh instance at its original
/// window and checked against its stored embedding.
core::ValidationResult validate_commit_state(
    const net::SubstrateNetwork& substrate, const std::vector<Commit>& active,
    const std::vector<Commit>& retired);

}  // namespace tvnep::serve
