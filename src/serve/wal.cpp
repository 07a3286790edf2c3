#include "serve/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "net/instance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/atomic_file.hpp"
#include "support/check.hpp"
#include "support/journal.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"
#include "support/stopwatch.hpp"

namespace tvnep::serve {

namespace {

constexpr int kWalVersion = 1;
constexpr JournalFormat kLogFormat{"wal", "tvnep-serve", kWalVersion};
constexpr JournalFormat kSnapshotFormat{"snapshot", "tvnep-serve", kWalVersion};
constexpr JournalFormat kLedgerFormat{"ledger", "tvnep-serve", kWalVersion};
constexpr const char* kLogName = "wal.jsonl";
constexpr const char* kLedgerName = "ledger.jsonl";
// Space reserved for each log that compaction starts (fallocate, size
// kept): a snapshot interval of records lands in one extent, so freeing
// the log at the next compaction is one cheap release instead of one per
// fsync'd append.
constexpr off_t kLogReserveBytes = 1 << 20;

std::string snapshot_name(std::uint64_t tag) {
  return "snapshot-" + fingerprint_hex(tag) + ".state";
}

// The snapshot generations in `dir`, newest first: fixed-width hex tags
// make the lexicographic sort the txid sort.
std::vector<std::string> snapshot_names(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > std::string("snapshot-.state").size() &&
        name.rfind("snapshot-", 0) == 0 &&
        name.compare(name.size() - 6, 6, ".state") == 0)
      names.push_back(name);
  }
  std::sort(names.rbegin(), names.rend());
  return names;
}

const char* outcome_name(AdmitOutcome outcome) {
  switch (outcome) {
    case AdmitOutcome::kAccepted: return "accepted";
    case AdmitOutcome::kRejected: return "rejected";
    case AdmitOutcome::kWindowClosed: return "window_closed";
    case AdmitOutcome::kComponentTooLarge: return "component_too_large";
    case AdmitOutcome::kSolverFailed: return "solver_failed";
    case AdmitOutcome::kInvalidMapping: return "invalid_mapping";
  }
  return "rejected";
}

// ----- strict member accessors (every failure is a located ParseError) --

const JsonValue& member(const JsonValue& value, const char* key,
                        const std::string& source, long line) {
  const JsonValue* m = value.find(key);
  if (m == nullptr)
    throw ParseError(source, line, 0,
                     std::string("missing key \"") + key + "\"");
  return *m;
}

double number_member(const JsonValue& value, const char* key,
                     const std::string& source, long line) {
  const JsonValue& m = member(value, key, source, line);
  if (!m.is_number())
    throw ParseError(source, line, 0,
                     std::string("key \"") + key + "\" is not a number");
  return m.as_number();
}

// Range-checked casts: a double outside the target type's range makes
// the cast undefined, and recovery reads crash-damaged bytes.
std::uint64_t to_uint(const JsonValue& value, const char* what,
                      const std::string& source, long line) {
  const double raw = value.is_number() ? value.as_number() : -1.0;
  if (!(raw >= 0.0 && raw < 18446744073709551616.0))
    throw ParseError(source, line, 0,
                     std::string(what) + " is not a non-negative integer");
  return static_cast<std::uint64_t>(raw);
}

int to_int(const JsonValue& value, const char* what, const std::string& source,
           long line) {
  const std::optional<int> x = json_int(value);
  if (!x) throw ParseError(source, line, 0, std::string(what) + " is not an int");
  return *x;
}

std::uint64_t uint_member(const JsonValue& value, const char* key,
                          const std::string& source, long line) {
  return to_uint(member(value, key, source, line), key, source, line);
}

const std::string& string_member(const JsonValue& value, const char* key,
                                 const std::string& source, long line) {
  const JsonValue& m = member(value, key, source, line);
  if (!m.is_string())
    throw ParseError(source, line, 0,
                     std::string("key \"") + key + "\" is not a string");
  return m.as_string();
}

bool bool_member(const JsonValue& value, const char* key,
                 const std::string& source, long line) {
  const JsonValue& m = member(value, key, source, line);
  if (!m.is_bool())
    throw ParseError(source, line, 0,
                     std::string("key \"") + key + "\" is not a bool");
  return m.as_bool();
}

const std::vector<JsonValue>& array_member(const JsonValue& value,
                                           const char* key,
                                           const std::string& source,
                                           long line) {
  const JsonValue& m = member(value, key, source, line);
  if (!m.is_array())
    throw ParseError(source, line, 0,
                     std::string("key \"") + key + "\" is not an array");
  return m.as_array();
}

// ----- embedding codec -----

std::string encode_embedding(const core::RequestEmbedding& embedding) {
  std::string out = "{\"start\":" + wal_number(embedding.start) +
                    ",\"end\":" + wal_number(embedding.end) + ",\"nm\":[";
  for (std::size_t i = 0; i < embedding.node_mapping.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(embedding.node_mapping[i]);
  }
  out += "],\"flow\":[";
  for (std::size_t i = 0; i < embedding.link_flow.size(); ++i) {
    if (i != 0) out += ',';
    out += wal_number(embedding.link_flow[i]);
  }
  out += "]}";
  return out;
}

core::RequestEmbedding decode_embedding(const JsonValue& value,
                                        const std::string& source, long line) {
  core::RequestEmbedding embedding;
  embedding.accepted = true;  // only accepted commits are ever persisted
  embedding.start = number_member(value, "start", source, line);
  embedding.end = number_member(value, "end", source, line);
  for (const JsonValue& node : array_member(value, "nm", source, line))
    embedding.node_mapping.push_back(
        to_int(node, "node mapping entry", source, line));
  for (const JsonValue& flow : array_member(value, "flow", source, line)) {
    if (!flow.is_number())
      throw ParseError(source, line, 0, "flow entry is not a number");
    embedding.link_flow.push_back(flow.as_number());
  }
  return embedding;
}

std::string encode_seq_embedding(std::uint64_t seq,
                                 const core::RequestEmbedding& embedding) {
  return "{\"seq\":" + std::to_string(seq) +
         ",\"embed\":" + encode_embedding(embedding) + "}";
}

// ----- record codec -----

std::string encode_decision(const StateTransition& txn, std::uint64_t txid) {
  std::string out = "{\"txid\":" + std::to_string(txid) +
                    ",\"t\":\"d\",\"id\":" + json_quote(txn.request_id) +
                    ",\"outcome\":\"" + outcome_name(txn.outcome) +
                    "\",\"fp\":" + (txn.fastpath ? "true" : "false") +
                    ",\"now\":" + wal_number(txn.now) +
                    ",\"version\":" + std::to_string(txn.version) +
                    ",\"next_seq\":" + std::to_string(txn.next_seq) +
                    ",\"accepted\":" + std::to_string(txn.accepted_total) +
                    ",\"decisions\":" + std::to_string(txn.decisions) +
                    ",\"retired\":[";
  for (std::size_t i = 0; i < txn.retired.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(txn.retired[i]);
  }
  out += "],\"embeds\":[";
  for (std::size_t i = 0; i < txn.refreshed.size(); ++i) {
    if (i != 0) out += ',';
    out += encode_seq_embedding(txn.refreshed[i]->seq,
                                txn.refreshed[i]->embedding);
  }
  out += "]";
  if (txn.commit != nullptr) out += ",\"commit\":" + encode_commit(*txn.commit);
  out += "}";
  return out;
}

std::string encode_install(const StateTransition& txn, std::uint64_t txid) {
  std::string out = "{\"txid\":" + std::to_string(txid) +
                    ",\"t\":\"i\",\"now\":" + wal_number(txn.now) +
                    ",\"version\":" + std::to_string(txn.version) +
                    ",\"next_seq\":" + std::to_string(txn.next_seq) +
                    ",\"accepted\":" + std::to_string(txn.accepted_total) +
                    ",\"decisions\":" + std::to_string(txn.decisions) +
                    ",\"resched\":[";
  const auto& reschedules = *txn.reschedules;
  for (std::size_t i = 0; i < reschedules.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"seq\":" + std::to_string(reschedules[i].seq) +
           ",\"start\":" + wal_number(reschedules[i].start) +
           ",\"end\":" + wal_number(reschedules[i].end) +
           ",\"embed\":" + encode_embedding(reschedules[i].embedding) + "}";
  }
  out += "],\"embeds\":[";
  const auto& embeddings = *txn.embeddings;
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    if (i != 0) out += ',';
    out += encode_seq_embedding(embeddings[i].seq, embeddings[i].embedding);
  }
  out += "]}";
  return out;
}

Commit* find_commit(std::vector<Commit>* commits, std::uint64_t seq) {
  for (Commit& c : *commits)
    if (c.seq == seq) return &c;
  return nullptr;
}

// Replays one record onto the recovered state, in the same order the
// engine mutated itself: retire (the call's now-advance), refresh the
// component flows, then append the accepted commit; installs apply
// reschedules before the joint flow refresh.
void apply_record(AdmissionEngine::Snapshot* state, const JsonValue& record,
                  const std::string& source, long line) {
  state->now = number_member(record, "now", source, line);
  state->version = uint_member(record, "version", source, line);
  state->next_seq = uint_member(record, "next_seq", source, line);
  state->accepted_total = uint_member(record, "accepted", source, line);
  state->decisions = uint_member(record, "decisions", source, line);
  const std::string& type = string_member(record, "t", source, line);
  if (type == "d") {
    for (const JsonValue& seq : array_member(record, "retired", source, line)) {
      const std::uint64_t target = to_uint(seq, "retired entry", source, line);
      for (std::size_t i = 0; i < state->commits.size(); ++i) {
        if (state->commits[i].seq != target) continue;
        state->retired.push_back(std::move(state->commits[i]));
        state->commits.erase(state->commits.begin() +
                             static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    for (const JsonValue& entry : array_member(record, "embeds", source, line)) {
      Commit* commit = find_commit(
          &state->commits, uint_member(entry, "seq", source, line));
      if (commit != nullptr)
        commit->embedding = decode_embedding(
            member(entry, "embed", source, line), source, line);
    }
    if (const JsonValue* commit = record.find("commit"))
      state->commits.push_back(decode_commit(*commit, source, line));
  } else if (type == "i") {
    for (const JsonValue& entry :
         array_member(record, "resched", source, line)) {
      Commit* commit = find_commit(
          &state->commits, uint_member(entry, "seq", source, line));
      if (commit == nullptr) continue;
      commit->start = number_member(entry, "start", source, line);
      commit->end = number_member(entry, "end", source, line);
      commit->embedding =
          decode_embedding(member(entry, "embed", source, line), source, line);
    }
    for (const JsonValue& entry : array_member(record, "embeds", source, line)) {
      Commit* commit = find_commit(
          &state->commits, uint_member(entry, "seq", source, line));
      if (commit != nullptr)
        commit->embedding = decode_embedding(
            member(entry, "embed", source, line), source, line);
    }
  } else {
    throw ParseError(source, line, 0, "unknown record type \"" + type + "\"");
  }
}

/// (decisions, version) orders every transition strictly: a decision
/// bumps the first component, an install the second. A replayed record is
/// already reflected in the snapshot iff its pair is not greater — the
/// race-free skip rule for records appended while the snapshot was taken.
bool record_after_state(const AdmissionEngine::Snapshot& state,
                        std::uint64_t decisions, std::uint64_t version) {
  if (decisions != state.decisions) return decisions > state.decisions;
  return version > state.version;
}

/// Loads one snapshot generation: its active commits and the retired
/// commits it holds inline, with `*ledger` set to how many retired commits
/// come before those, in the ledger. Returns false on damage (caller falls
/// back to an older generation); throws ParseError on a fingerprint or
/// format-version mismatch (an incompatible resume must be refused, not
/// silently ignored).
bool load_snapshot(const std::string& path, std::uint64_t fingerprint,
                   AdmissionEngine::Snapshot* out, std::uint64_t* ledger) {
  JournalLines file;
  if (!read_journal_lines(path, &file) || file.lines.empty()) return false;
  JsonValue header;
  try {
    header = parse_json(file.lines[0], path, 1);
  } catch (const ParseError&) {
    return false;  // damaged header: try an older generation
  }
  check_journal_header(header, kSnapshotFormat, fingerprint, path);
  try {
    AdmissionEngine::Snapshot state;
    state.version = uint_member(header, "engine_version", path, 1);
    state.now = number_member(header, "now", path, 1);
    state.next_seq = uint_member(header, "next_seq", path, 1);
    state.accepted_total = uint_member(header, "accepted", path, 1);
    state.decisions = uint_member(header, "decisions", path, 1);
    const auto active = uint_member(header, "active", path, 1);
    const auto retired = uint_member(header, "retired", path, 1);
    // Snapshots written before the ledger existed carry no "ledger" key
    // and hold every retired commit inline.
    const JsonValue* ledger_member = header.find("ledger");
    const std::uint64_t in_ledger =
        ledger_member == nullptr ? 0 : to_uint(*ledger_member, "ledger", path, 1);
    if (in_ledger > retired) return false;
    const std::uint64_t lines = active + (retired - in_ledger);
    if (!file.last_terminated || file.lines.size() != 1 + lines)
      return false;  // truncated: AtomicFile should prevent this, but trust
                     // nothing at recovery time
    for (std::uint64_t i = 0; i < lines; ++i) {
      const long line = static_cast<long>(i) + 2;
      Commit commit = decode_commit(
          parse_json(file.lines[static_cast<std::size_t>(line - 1)], path,
                     line),
          path, line);
      (i < active ? state.commits : state.retired)
          .push_back(std::move(commit));
    }
    *out = std::move(state);
    *ledger = in_ledger;
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

/// Reads the first `count` commits of the ledger at `path` into `out` and
/// cuts the file back to them: lines past `count` were appended by a
/// snapshot that never published, and their commits are still in the log.
/// Returns the ledger's byte length. A ledger that is missing, foreign,
/// damaged within its first `count` lines or shorter than `count` throws
/// ParseError: a published snapshot depends on those commits.
std::uint64_t load_ledger(const std::string& path, std::uint64_t fingerprint,
                          std::uint64_t count, std::vector<Commit>* out) {
  JournalLines file;
  if (!read_journal_lines(path, &file) || file.lines.empty())
    throw ParseError(path, 1, 0,
                     "the snapshot needs " + std::to_string(count) +
                         " ledger commits, but the ledger is missing");
  check_journal_header(parse_json(file.lines[0], path, 1), kLedgerFormat,
                       fingerprint, path);
  const std::uint64_t held = file.lines.size() - 1;
  if (held < count || (held == count && !file.last_terminated))
    throw ParseError(path, static_cast<long>(file.lines.size()), 0,
                     "the ledger holds " + std::to_string(held) +
                         " commits, the snapshot needs " +
                         std::to_string(count));
  std::uint64_t bytes = file.lines[0].size() + 1;
  for (std::uint64_t i = 1; i <= count; ++i) {
    const long line = static_cast<long>(i) + 1;
    const std::string& text = file.lines[static_cast<std::size_t>(i)];
    out->push_back(decode_commit(parse_json(text, path, line), path, line));
    bytes += text.size() + 1;
  }
  if (held > count) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    const bool cut = fd >= 0 &&
                     ::ftruncate(fd, static_cast<off_t>(bytes)) == 0 &&
                     ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!cut)
      throw ParseError(path, static_cast<long>(count) + 2, 0,
                       "cannot cut the ledger back to its committed length");
  }
  return bytes;
}

}  // namespace

std::string encode_commit(const Commit& commit) {
  const net::VnetRequest& request = commit.original;
  std::string out = "{\"seq\":" + std::to_string(commit.seq) +
                    ",\"id\":" + json_quote(commit.id) +
                    ",\"fp\":" + (commit.fastpath ? "true" : "false") +
                    ",\"start\":" + wal_number(commit.start) +
                    ",\"end\":" + wal_number(commit.end) +
                    ",\"req\":{\"name\":" + json_quote(request.name()) +
                    ",\"ts\":" + wal_number(request.earliest_start()) +
                    ",\"te\":" + wal_number(request.latest_end()) +
                    ",\"d\":" + wal_number(request.duration()) + ",\"nodes\":[";
  for (int v = 0; v < request.num_nodes(); ++v) {
    if (v != 0) out += ',';
    out += wal_number(request.node_demand(v));
  }
  out += "],\"links\":[";
  for (int e = 0; e < request.num_links(); ++e) {
    if (e != 0) out += ',';
    const net::VirtualLink& link = request.link(e);
    out += "[" + std::to_string(link.from) + "," + std::to_string(link.to) +
           "," + wal_number(link.demand) + "]";
  }
  out += "]}";
  if (commit.mapping.has_value()) {
    out += ",\"map\":[";
    for (std::size_t i = 0; i < commit.mapping->size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string((*commit.mapping)[i]);
    }
    out += "]";
  }
  out += ",\"embed\":" + encode_embedding(commit.embedding) + "}";
  return out;
}

Commit decode_commit(const JsonValue& value, const std::string& source,
                     long line) {
  Commit commit;
  commit.seq = uint_member(value, "seq", source, line);
  commit.id = string_member(value, "id", source, line);
  commit.fastpath = bool_member(value, "fp", source, line);
  commit.start = number_member(value, "start", source, line);
  commit.end = number_member(value, "end", source, line);
  const JsonValue& req = member(value, "req", source, line);
  try {
    net::VnetRequest request(string_member(req, "name", source, line));
    for (const JsonValue& demand : array_member(req, "nodes", source, line)) {
      if (!demand.is_number())
        throw ParseError(source, line, 0, "node demand is not a number");
      request.add_node(demand.as_number());
    }
    for (const JsonValue& link : array_member(req, "links", source, line)) {
      if (!link.is_array() || link.as_array().size() != 3 ||
          !link.as_array()[2].is_number())
        throw ParseError(source, line, 0,
                         "virtual link is not [from,to,demand]");
      request.add_link(
          to_int(link.as_array()[0], "link endpoint", source, line),
          to_int(link.as_array()[1], "link endpoint", source, line),
          link.as_array()[2].as_number());
    }
    request.set_temporal(number_member(req, "ts", source, line),
                         number_member(req, "te", source, line),
                         number_member(req, "d", source, line));
    commit.original = std::move(request);
  } catch (const ParseError&) {
    throw;
  } catch (const CheckError& e) {
    // The request's own invariants (demands, link endpoints, window).
    throw ParseError(source, line, 0, e.what());
  }
  if (const JsonValue* map = value.find("map")) {
    if (!map->is_array())
      throw ParseError(source, line, 0, "\"map\" is not an array");
    std::vector<net::NodeId> mapping;
    for (const JsonValue& node : map->as_array())
      mapping.push_back(to_int(node, "mapping entry", source, line));
    commit.mapping = std::move(mapping);
  }
  commit.embedding =
      decode_embedding(member(value, "embed", source, line), source, line);
  return commit;
}

std::uint64_t serve_state_fingerprint(const net::SubstrateNetwork& substrate,
                                      const AdmissionOptions& options) {
  std::string spec = "wal=" + std::to_string(kWalVersion) +
                     ";nodes=" + std::to_string(substrate.num_nodes()) + ";";
  for (int v = 0; v < substrate.num_nodes(); ++v)
    spec += wal_number(substrate.node_capacity(v)) + ",";
  spec += ";links=" + std::to_string(substrate.num_links()) + ";";
  for (int e = 0; e < substrate.num_links(); ++e) {
    const net::SubstrateLink& link = substrate.link(e);
    spec += std::to_string(link.from) + ">" + std::to_string(link.to) + "=" +
            wal_number(link.capacity) + ",";
  }
  spec += ";max_step=" + std::to_string(options.max_step_requests) +
          ";gc=" + std::to_string(options.gc ? 1 : 0);
  return fnv1a(spec);
}

core::ValidationResult validate_commit_state(
    const net::SubstrateNetwork& substrate, const std::vector<Commit>& active,
    const std::vector<Commit>& retired) {
  net::TvnepInstance instance(substrate, 0.0);
  core::TvnepSolution solution;
  const auto add = [&](const Commit& commit) {
    instance.add_request(commit.original, commit.mapping);
    core::RequestEmbedding embedding = commit.embedding;
    embedding.accepted = true;
    embedding.start = commit.start;
    embedding.end = commit.end;
    solution.requests.push_back(std::move(embedding));
  };
  for (const Commit& commit : active) add(commit);
  for (const Commit& commit : retired) add(commit);
  instance.fit_horizon();
  return core::validate_solution(instance, solution);
}

// ----- Wal::Reaper -----

// Releases disk space off the worker thread. Where the filesystem discards
// freed blocks (ext4 mounted with `discard`), closing a replaced log or
// unlinking a pruned snapshot takes 15–130 ms, and every fsync issued
// meanwhile waits for it. The reaper does those frees one at a time and
// rests as long as each took, so no snapshot waits for them and no two
// land back to back on the appends' fsyncs.
class Wal::Reaper {
 public:
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

  void close_later(int fd) { push({fd, {}}); }
  void remove_later(std::string path) { push({-1, std::move(path)}); }

 private:
  struct Job {
    int fd = -1;       // a descriptor to close, or -1
    std::string path;  // else a file to unlink
  };

  void push(Job job) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(std::move(job));
    }
    wake_.notify_one();
  }

  // Drains every queued job before it stops, so the files a Wal pruned
  // are gone once the Wal is.
  void run() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      const Stopwatch watch;
      if (job.fd >= 0) ::close(job.fd);
      else ::unlink(job.path.c_str());
      std::unique_lock<std::mutex> lock(mutex_);
      if (!stop_)
        wake_.wait_for(lock, std::chrono::duration<double>(watch.seconds()),
                       [this] { return stop_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::thread thread_{[this] { run(); }};
};

// ----- Wal -----

std::unique_ptr<Wal> Wal::open(const std::string& dir,
                               std::uint64_t fingerprint, WalOptions options,
                               RecoveredState* recovered) {
  std::unique_ptr<Wal> wal(new Wal);
  wal->dir_ = dir;
  wal->log_path_ = dir + "/" + kLogName;
  wal->fingerprint_ = fingerprint;
  wal->options_ = std::move(options);

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  TVNEP_REQUIRE(!ec, "cannot create state dir " + dir);

  RecoveredState result;

  // 1. Newest valid snapshot. A damaged generation falls back to the
  // previous one, an incompatible one (fingerprint/format) refuses via
  // ParseError.
  const std::vector<std::string> snapshots = snapshot_names(dir);
  std::uint64_t max_snapshot_tag = 0;
  for (const std::string& name : snapshots)
    max_snapshot_tag = std::max<std::uint64_t>(
        max_snapshot_tag, std::strtoull(name.c_str() + 9, nullptr, 16));
  std::uint64_t in_ledger = 0;
  for (const std::string& name : snapshots) {
    result.had_state = true;
    if (load_snapshot(dir + "/" + name, fingerprint, &result.state,
                      &in_ledger)) {
      wal->stats_.recovered_snapshot = true;
      break;
    }
  }

  // 2. The snapshot's ledger prefix: the oldest retired commits, ahead of
  // any the snapshot holds inline. Ledger bytes past that prefix are cut
  // (load_ledger); with no prefix the whole file goes, and the next
  // snapshot that retires anything creates it afresh.
  wal->ledger_path_ = dir + "/" + kLedgerName;
  if (in_ledger > 0) {
    std::vector<Commit> retired;
    wal->ledger_bytes_ =
        load_ledger(wal->ledger_path_, fingerprint, in_ledger, &retired);
    retired.insert(retired.end(),
                   std::make_move_iterator(result.state.retired.begin()),
                   std::make_move_iterator(result.state.retired.end()));
    result.state.retired = std::move(retired);
  } else {
    std::filesystem::remove(wal->ledger_path_, ec);
  }
  wal->ledger_count_ = in_ledger;
  wal->stats_.ledger_commits = static_cast<long>(in_ledger);

  // 3. Replay the log tail under the journal's torn-tail rule
  // (support/journal). A record is applied iff its (decisions, version)
  // pair postdates the state built so far.
  std::uint64_t last_txid = 0;
  const JournalReplay replay = replay_journal(
      wal->log_path_, kLogFormat, fingerprint,
      [&](const JsonValue& record, long line) {
        const std::uint64_t txid =
            uint_member(record, "txid", wal->log_path_, line);
        if (txid <= last_txid && last_txid != 0)
          throw ParseError(wal->log_path_, line, 0, "txid not increasing");
        last_txid = txid;
        const std::uint64_t decisions =
            uint_member(record, "decisions", wal->log_path_, line);
        const std::uint64_t version =
            uint_member(record, "version", wal->log_path_, line);
        if (record_after_state(result.state, decisions, version)) {
          apply_record(&result.state, record, wal->log_path_, line);
          ++wal->stats_.replayed;
        }
      });
  const bool torn = replay.torn_line > 0;
  if (replay.found) {
    result.had_state = true;
    if (torn) {
      ++wal->stats_.torn_repaired;
      obs::counter_add("serve.wal.torn_repaired");
    }
  } else {
    TVNEP_REQUIRE(
        atomic_write_file(wal->log_path_,
                          journal_header(kLogFormat, fingerprint) + "\n"),
        "cannot initialize WAL at " + wal->log_path_);
  }
  if (wal->stats_.replayed > 0)
    obs::counter_add("serve.wal.replayed",
                     static_cast<double>(wal->stats_.replayed));

  // Strictly past everything on disk: the last record, the decision
  // counter, and the newest snapshot tag — a fresh snapshot must always
  // sort as the newest generation.
  wal->next_txid_ = std::max({last_txid + 1, result.state.decisions + 1,
                              max_snapshot_tag + 1});

  // 4. Open the appender.
  wal->fd_ = ::open(wal->log_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  TVNEP_REQUIRE(wal->fd_ >= 0, "cannot open WAL appender at " + wal->log_path_);

  // 5. Compact what was replayed into a fresh snapshot, so a crash loop
  // replays a bounded tail instead of an ever-growing one. Nothing is
  // served yet, so its frees run inline; from here on the reaper takes
  // them.
  if (wal->stats_.replayed > 0 || torn)
    (void)wal->write_snapshot_locked(result.state);
  wal->reaper_ = std::make_unique<Reaper>();

  if (recovered != nullptr) *recovered = std::move(result);
  return wal;
}

Wal::~Wal() {
  reaper_.reset();
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (!dead_ && unsynced_records_ > 0) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  if (ledger_fd_ >= 0) ::close(ledger_fd_);
}

void Wal::attach(AdmissionEngine* engine) {
  engine->set_state_sink(
      [this](const StateTransition& txn) { (void)on_transition(txn); });
}

bool Wal::on_transition(const StateTransition& txn) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dead_) return false;
  const std::string line = txn.kind == StateTransition::Kind::kDecision
                               ? encode_decision(txn, next_txid_)
                               : encode_install(txn, next_txid_);
  bool bytes_on_disk = false;
  const bool durable = append_line_locked(line, &bytes_on_disk);
  // The txid advances whenever bytes reached the log — a record whose
  // fsync failed is on disk (and will replay) even though it is not
  // durable; reusing its txid would make the next record violate the
  // strictly-increasing invariant recovery enforces.
  if (bytes_on_disk) {
    ++next_txid_;
    if (txn.kind == StateTransition::Kind::kDecision)
      ++decisions_since_snapshot_;
  }
  return durable;
}

WalFault Wal::fault_at(const char* point) {
  return options_.fault_hook ? options_.fault_hook(point) : WalFault::kNone;
}

bool Wal::append_line_locked(const std::string& line, bool* bytes_on_disk) {
  *bytes_on_disk = false;
  if (dead_ || fd_ < 0) return false;
  switch (fault_at("append.before_write")) {
    case WalFault::kCrash: dead_ = true; return false;
    case WalFault::kEio:
      ++stats_.io_errors;
      obs::counter_add("serve.wal.io_errors");
      return false;
    default: break;
  }
  std::string payload = line;
  payload += '\n';
  const WalFault write_fault = fault_at("append.write");
  if (write_fault == WalFault::kCrash) {
    dead_ = true;
    return false;
  }
  if (write_fault == WalFault::kShortWrite) {
    // Crash mid-write: half the record lands, no newline — exactly the
    // torn tail that recovery must drop and repair.
    (void)!::write(fd_, payload.data(), payload.size() / 2);
    *bytes_on_disk = true;
    dead_ = true;
    return false;
  }
  if (write_fault == WalFault::kEio) {
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return false;
  }
  Stopwatch append_watch;
  const ssize_t written = ::write(fd_, payload.data(), payload.size());
  if (written != static_cast<ssize_t>(payload.size())) {
    // Roll a real partial append back so the next record cannot splice
    // into it; if even that fails, take the log out of service (recovery
    // will repair the torn tail) rather than corrupt it further.
    bool rolled_back = false;
    if (written > 0) {
      struct stat st;
      if (::fstat(fd_, &st) == 0 &&
          ::ftruncate(fd_, st.st_size - written) == 0)
        rolled_back = true;
    } else if (written == 0) {
      rolled_back = true;
    }
    if (!rolled_back) {
      dead_ = true;
      *bytes_on_disk = true;  // a torn prefix is on disk; burn its txid
    }
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return false;
  }
  *bytes_on_disk = true;
  obs::histogram_observe("serve.wal.append_ms", append_watch.seconds() * 1e3);
  if (fault_at("append.after_write") == WalFault::kCrash) {
    dead_ = true;
    return false;
  }
  ++unsynced_records_;
  if (options_.fsync == WalOptions::Fsync::kEvery ||
      unsynced_records_ >= options_.batch_records) {
    if (!sync_locked("append.fsync")) return false;
  }
  if (fault_at("append.after_fsync") == WalFault::kCrash) {
    dead_ = true;
    return false;
  }
  ++stats_.appends;
  obs::counter_add("serve.wal.appends");
  return true;
}

bool Wal::sync_locked(const char* point) {
  switch (fault_at(point)) {
    case WalFault::kCrash: dead_ = true; return false;
    case WalFault::kEio:
      ++stats_.io_errors;
      obs::counter_add("serve.wal.io_errors");
      return false;
    default: break;
  }
  Stopwatch fsync_watch;
  if (::fsync(fd_) != 0) {
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return false;
  }
  obs::histogram_observe("serve.wal.fsync_ms", fsync_watch.seconds() * 1e3);
  ++stats_.fsyncs;
  obs::counter_add("serve.wal.fsyncs");
  unsynced_records_ = 0;
  return true;
}

bool Wal::wants_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !dead_ && options_.snapshot_every > 0 &&
         decisions_since_snapshot_ >= options_.snapshot_every;
}

bool Wal::write_snapshot(const AdmissionEngine::Snapshot& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_snapshot_locked(state);
}

bool Wal::snapshot_engine(const AdmissionEngine& engine) {
  std::uint64_t in_ledger = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_ledger = ledger_count_;
  }
  bool published = false;
  engine.with_snapshot_since(
      static_cast<std::size_t>(in_ledger),
      [&](const AdmissionEngine::Snapshot& state) {
        published = write_snapshot(state);
      });
  return published;
}

bool Wal::write_snapshot_locked(const AdmissionEngine::Snapshot& state) {
  if (dead_) return false;
  const std::uint64_t retired = state.retired_base + state.retired.size();
  obs::SpanScope span("serve.wal.snapshot", "serve",
                      "\"active\":" + std::to_string(state.commits.size()) +
                          ",\"retired\":" + std::to_string(retired) +
                          ",\"ledger\":" + std::to_string(ledger_count_));
  const Stopwatch watch;
  const bool published = publish_snapshot_locked(state);
  const double ms = watch.seconds() * 1e3;
  obs::histogram_observe("serve.wal.snapshot_ms", ms);
  stats_.snapshot_ms_last = ms;
  stats_.snapshot_ms_max = std::max(stats_.snapshot_ms_max, ms);
  return published;
}

bool Wal::publish_snapshot_locked(const AdmissionEngine::Snapshot& state) {
  switch (fault_at("snapshot.before_write")) {
    case WalFault::kCrash: dead_ = true; return false;
    case WalFault::kEio:
      ++stats_.io_errors;
      obs::counter_add("serve.wal.io_errors");
      return false;
    default: break;
  }
  // The state's retired tail must start at or before the ledger's end and
  // reach at least to it, or the snapshot would skip or lose commits.
  const std::uint64_t retired = state.retired_base + state.retired.size();
  if (state.retired_base > ledger_count_ || retired < ledger_count_)
    return false;
  // 1-2. Append the newly retired commits to the ledger and fsync it, so
  // the snapshot published below never names a ledger line that is not
  // durable.
  if (retired > ledger_count_ &&
      !append_ledger_locked(
          state.retired,
          static_cast<std::size_t>(ledger_count_ - state.retired_base)))
    return false;
  // 3. Publish the active commits; the header's "ledger" says how many
  // retired commits recovery reads from the ledger (all of them).
  const std::uint64_t tag = next_txid_;
  AtomicFile file(dir_ + "/" + snapshot_name(tag));
  std::ostringstream extra;
  extra << ",\"txid\":" << tag << ",\"engine_version\":" << state.version
        << ",\"now\":" << wal_number(state.now)
        << ",\"next_seq\":" << state.next_seq
        << ",\"accepted\":" << state.accepted_total
        << ",\"decisions\":" << state.decisions
        << ",\"active\":" << state.commits.size()
        << ",\"retired\":" << retired;
  if (ledger_count_ > 0) extra << ",\"ledger\":" << ledger_count_;
  file.stream() << journal_header(kSnapshotFormat, fingerprint_, extra.str())
                << "\n";
  for (const Commit& commit : state.commits)
    file.stream() << encode_commit(commit) << "\n";
  if (!file.commit()) {
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return false;
  }
  ++stats_.snapshots;
  obs::counter_add("serve.wal.snapshots");
  decisions_since_snapshot_ = 0;
  if (fault_at("snapshot.after_write") == WalFault::kCrash) {
    // The snapshot is durable; the stale log is harmless — replay skips
    // records the snapshot already reflects.
    dead_ = true;
    return false;
  }
  // 4. Compact: reset the log to a bare header and reopen the appender
  // (the rename left fd_ pointing at the replaced inode).
  if (!atomic_write_file(log_path_,
                         journal_header(kLogFormat, fingerprint_) + "\n")) {
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return true;  // snapshot still landed
  }
  if (fd_ >= 0) {
    if (reaper_ != nullptr) reaper_->close_later(fd_);
    else ::close(fd_);
  }
  fd_ = ::open(log_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    dead_ = true;
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return true;
  }
#ifdef FALLOC_FL_KEEP_SIZE
  if (reaper_ != nullptr)
    (void)::fallocate(fd_, FALLOC_FL_KEEP_SIZE, 0, kLogReserveBytes);
#endif
  unsynced_records_ = 0;
  // Prune old generations, newest options_.snapshots_kept survive.
  const std::vector<std::string> names = snapshot_names(dir_);
  for (std::size_t i = static_cast<std::size_t>(
           std::max(options_.snapshots_kept, 1));
       i < names.size(); ++i) {
    if (reaper_ != nullptr) reaper_->remove_later(dir_ + "/" + names[i]);
    else ::unlink((dir_ + "/" + names[i]).c_str());
  }
  if (fault_at("snapshot.after_compact") == WalFault::kCrash) dead_ = true;
  return true;
}

bool Wal::append_ledger_locked(const std::vector<Commit>& retired,
                               std::size_t from) {
  const auto io_error = [this] {
    ++stats_.io_errors;
    obs::counter_add("serve.wal.io_errors");
    return false;
  };
  switch (fault_at("ledger.before_write")) {
    case WalFault::kCrash: dead_ = true; return false;
    case WalFault::kEio: return io_error();
    default: break;
  }
  if (ledger_fd_ < 0) {
    // Created at the first snapshot that retires anything, so a state dir
    // that never retires never holds one.
    if (ledger_count_ == 0) {
      const std::string header = journal_header(kLedgerFormat, fingerprint_);
      if (!atomic_write_file(ledger_path_, header + "\n")) return io_error();
      ledger_bytes_ = header.size() + 1;
    }
    ledger_fd_ = ::open(ledger_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (ledger_fd_ < 0) return io_error();
  }
  std::string payload;
  for (std::size_t i = from; i < retired.size(); ++i)
    payload += encode_commit(retired[i]) + "\n";
  // Cuts the file back to its committed length after a failed append, so
  // the next append cannot land behind lines no snapshot will count.
  const auto roll_back = [this] {
    if (::ftruncate(ledger_fd_, static_cast<off_t>(ledger_bytes_)) != 0)
      dead_ = true;
  };
  switch (fault_at("ledger.write")) {
    case WalFault::kCrash: dead_ = true; return false;
    case WalFault::kShortWrite:
      // Crash mid-write: recovery cuts the torn lines, which no published
      // snapshot counts.
      (void)!::write(ledger_fd_, payload.data(), payload.size() / 2);
      dead_ = true;
      return false;
    case WalFault::kEio: return io_error();
    default: break;
  }
  if (::write(ledger_fd_, payload.data(), payload.size()) !=
      static_cast<ssize_t>(payload.size())) {
    roll_back();
    return io_error();
  }
  switch (fault_at("ledger.fsync")) {
    case WalFault::kCrash: dead_ = true; return false;
    case WalFault::kEio: roll_back(); return io_error();
    default: break;
  }
  if (::fsync(ledger_fd_) != 0) {
    roll_back();
    return io_error();
  }
  ledger_bytes_ += payload.size();
  const std::size_t appended = retired.size() - from;
  ledger_count_ += appended;
  stats_.ledger_commits += static_cast<long>(appended);
  obs::counter_add("serve.wal.ledger_commits", static_cast<double>(appended));
  if (fault_at("ledger.after_fsync") == WalFault::kCrash) {
    // The ledger lines are durable but no snapshot counts them: recovery
    // cuts them and replays their retirements from the log.
    dead_ = true;
    return false;
  }
  return true;
}

bool Wal::crashed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace tvnep::serve
