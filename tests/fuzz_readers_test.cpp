// Seeded mutation fuzzing of every reader of untrusted or crash-damaged
// bytes: the NDJSON wire (parse_json / parse_message), the sweep journal
// (SweepJournal::resume) and the serve state dir (Wal::open: snapshot,
// log and retired-commit ledger). Each starts
// from valid bytes written by the live writers and is mutated by byte
// flips, truncations, insertions, boundary numbers and duplicated lines.
// A reader must either accept the bytes or throw ParseError — no other
// exception, no crash — and a pure truncation inside the final record
// must always load.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/checkpoint.hpp"
#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"
#include "support/rng.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "temp_dir.hpp"

namespace tvnep {
namespace {

constexpr int kMutations = 2000;

// Thousands of journal repairs and snapshot writes each fsync; on tmpfs
// (/dev/shm, where present) those cost nothing, on a disk they cost minutes.
std::filesystem::path fuzz_base() {
  return std::filesystem::is_directory("/dev/shm")
             ? std::filesystem::path("/dev/shm")
             : std::filesystem::path();
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Replaces one number token with a boundary value: what a decoder must
// range-check (negative, zero, huge, beyond int) rather than trust.
void swap_number(std::string& bytes, Rng& rng) {
  static const char* const kValues[] = {"0", "1", "-1", "0.5", "-0",
                                        "1e300", "-1e300", "2147483648",
                                        "18446744073709551616"};
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const char c = bytes[i];
    if (!((c >= '0' && c <= '9') || c == '-')) continue;
    if (i == 0 || (bytes[i - 1] != ':' && bytes[i - 1] != '[' &&
                   bytes[i - 1] != ','))
      continue;
    std::size_t end = i + 1;
    while (end < bytes.size() &&
           std::string("0123456789.eE+-").find(bytes[end]) != std::string::npos)
      ++end;
    tokens.emplace_back(i, end - i);
    i = end - 1;
  }
  if (tokens.empty()) return;
  const auto& [at, length] = tokens[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(tokens.size()) - 1))];
  const std::int64_t last = static_cast<std::int64_t>(std::size(kValues)) - 1;
  bytes.replace(at, length,
                kValues[static_cast<std::size_t>(rng.uniform_int(0, last))]);
}

// Applies one to three random edits. Inserted and flipped bytes favour
// the characters that steer a JSON parser.
std::string mutate(std::string bytes, Rng& rng) {
  static const std::string kSyntax = "{}[]\":,\\-+.eE0123456789ntfu \n";
  const auto random_byte = [&]() -> char {
    if (rng.uniform01() < 0.7)
      return kSyntax[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kSyntax.size()) - 1))];
    return static_cast<char>(rng.uniform_int(0, 255));
  };
  const auto position = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  const std::int64_t edits = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < edits; ++e) {
    switch (rng.uniform_int(0, 4)) {
      case 0:  // byte flip
        if (!bytes.empty()) {
          const std::size_t at = position(bytes.size() - 1);
          bytes[at] = rng.uniform01() < 0.5
                          ? random_byte()
                          : static_cast<char>(bytes[at] ^
                                              (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1:  // truncation
        bytes.resize(position(bytes.size()));
        break;
      case 2:  // insertion
        bytes.insert(position(bytes.size()), 1, random_byte());
        break;
      case 3:
        swap_number(bytes, rng);
        break;
      default: {  // duplicated line
        std::vector<std::string> lines;
        std::istringstream in(bytes);
        std::string line;
        while (std::getline(in, line)) lines.push_back(line + '\n');
        if (lines.empty()) break;
        const std::size_t from = position(lines.size() - 1);
        const std::size_t to = position(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to),
                     lines[from]);
        bytes.clear();
        for (const std::string& l : lines) bytes += l;
        break;
      }
    }
  }
  return bytes;
}

// Runs `read`; true when it accepted the bytes, false when it threw
// ParseError. Any other exception fails the test.
template <typename Read>
bool accepts(Read&& read, const std::string& bytes) {
  try {
    read();
    return true;
  } catch (const ParseError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ParseError exception: " << e.what() << "\ninput:\n"
                  << bytes;
    return false;
  }
}

// Offsets that cut the final line of `bytes` short, newline included.
std::vector<std::size_t> final_record_cuts(const std::string& bytes) {
  const std::size_t begin = bytes.rfind('\n', bytes.size() - 2) + 1;
  std::vector<std::size_t> cuts;
  for (std::size_t at = begin + 1; at < bytes.size(); ++at) cuts.push_back(at);
  return cuts;
}

TEST(Fuzz, WireLinesParseOrThrowParseError) {
  serve::RequestMessage message;
  message.id = "R\"7\\";
  net::VnetRequest request(message.id);
  request.add_node(0.1);
  request.add_node(1.0 / 3.0);
  request.add_link(0, 1, 0.7);
  request.set_temporal(1000.0 / 3.0, 400.0, 2.5);
  message.request = std::move(request);
  message.mapping = std::vector<net::NodeId>{4, 0};
  const std::string line = serve::encode_request(message);
  ASSERT_NO_THROW(serve::parse_message(line, "<wire>"));

  Rng rng(14);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string bytes = mutate(line, rng);
    accepts([&] { parse_json(bytes, "<wire>"); }, bytes);
    if (accepts([&] { serve::parse_message(bytes, "<wire>"); }, bytes))
      ++accepted;
  }
  EXPECT_GT(accepted, 0);  // the mutations do not all break the line
  EXPECT_LT(accepted, kMutations);
}

TEST(Fuzz, DeepNestingIsAParseErrorNotAStackOverflow) {
  // Without a nesting bound one line of brackets recurses once per byte
  // and overflows the reader thread's stack, killing the daemon.
  EXPECT_THROW(parse_json(std::string(1000000, '['), "<wire>"), ParseError);
  EXPECT_THROW(
      parse_json(std::string(65, '[') + std::string(65, ']'), "<wire>"),
      ParseError);
  EXPECT_NO_THROW(
      parse_json(std::string(64, '[') + std::string(64, ']'), "<wire>"));
}

eval::CellRecord journal_record(int seed) {
  eval::CellRecord record;
  record.key = {"cSigma", seed % 2, seed};
  record.fields["objective"] = eval::JournalValue(seed / 3.0);
  record.fields["status"] = eval::JournalValue("time-limit");
  record.fields["optimal"] = eval::JournalValue(seed % 2 == 0);
  return record;
}

TEST(Fuzz, SweepJournalResumesOrThrowsParseError) {
  const TempDir dir(fuzz_base());
  const std::string path = dir.file("sweep.jsonl");
  {
    const auto journal = eval::SweepJournal::create(path, 42);
    for (int seed = 0; seed < 3; ++seed)
      ASSERT_TRUE(journal->append(journal_record(seed)));
  }
  const std::string valid = read_all(path);

  Rng rng(15);
  for (int i = 0; i < kMutations; ++i) {
    const std::string bytes = mutate(valid, rng);
    write_all(path, bytes);
    accepts([&] { eval::SweepJournal::resume(path, 42); }, bytes);
  }

  for (const std::size_t cut : final_record_cuts(valid)) {
    const std::string bytes = valid.substr(0, cut);
    write_all(path, bytes);
    std::size_t loaded = 0;
    EXPECT_TRUE(accepts(
        [&] { loaded = eval::SweepJournal::resume(path, 42)->loaded(); },
        bytes))
        << "cut at " << cut;
    EXPECT_EQ(loaded, 2u) << "cut at " << cut;
  }
}

TEST(Fuzz, WalStateDirOpensOrThrowsParseError) {
  workload::WorkloadParams p;
  p.num_requests = 5;
  p.grid_rows = 2;
  p.grid_cols = 2;
  p.star_leaves = 1;
  p.node_capacity = 10.0;
  p.link_capacity = 10.0;
  p.flexibility = 1.5;
  p.seed = 3;
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = net::make_grid(2, 2, 10.0, 10.0);
  const std::uint64_t fp = serve::serve_state_fingerprint(substrate, {});

  // A snapshot after three decisions, then two decision records.
  const TempDir source(fuzz_base());
  serve::WalOptions options;
  options.snapshot_every = 3;
  std::uint64_t decisions = 0;
  {
    serve::RecoveredState recovered;
    const auto wal = serve::Wal::open(source.path, fp, options, &recovered);
    serve::AdmissionEngine engine(substrate, {});
    wal->attach(&engine);
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      serve::RequestMessage message;
      message.id = "R" + std::to_string(i);
      message.request = trace.requests[i].request;
      message.mapping = trace.requests[i].mapping;
      engine.admit(message);
      if (wal->wants_snapshot())
        wal->snapshot_engine(engine);
    }
    decisions = engine.snapshot_full().decisions;
  }
  std::string snapshot_name;
  for (const auto& entry : std::filesystem::directory_iterator(source.path))
    if (entry.path().extension() == ".state")
      snapshot_name = entry.path().filename().string();
  ASSERT_FALSE(snapshot_name.empty());
  const std::string snapshot = read_all(source.file(snapshot_name));
  const std::string log = read_all(source.file("wal.jsonl"));
  ASSERT_EQ(std::count(log.begin(), log.end(), '\n'), 3);

  const TempDir dir(fuzz_base());
  const auto open_state = [&](const std::string& snapshot_bytes,
                              const std::string& log_bytes,
                              serve::RecoveredState* recovered) {
    std::filesystem::remove_all(dir.path);
    std::filesystem::create_directories(dir.path);
    write_all(dir.file(snapshot_name), snapshot_bytes);
    write_all(dir.file("wal.jsonl"), log_bytes);
    return accepts(
        [&] { serve::Wal::open(dir.path, fp, {}, recovered); },
        snapshot_bytes + "\n----\n" + log_bytes);
  };

  Rng rng(16);
  for (int i = 0; i < kMutations; ++i) {
    serve::RecoveredState recovered;
    if (rng.uniform01() < 0.5)
      open_state(mutate(snapshot, rng), log, &recovered);
    else
      open_state(snapshot, mutate(log, rng), &recovered);
  }

  for (const std::size_t cut : final_record_cuts(log)) {
    serve::RecoveredState recovered;
    EXPECT_TRUE(open_state(snapshot, log.substr(0, cut), &recovered))
        << "cut at " << cut;
    EXPECT_EQ(recovered.state.decisions, decisions - 1) << "cut at " << cut;
  }
}

TEST(Fuzz, WalLedgerOpensOrThrowsParseError) {
  // Sparse arrivals on the 2x2 grid retire commits, so the newest snapshot
  // counts L ledger lines and the log holds two decisions after it.
  workload::WorkloadParams p;
  p.num_requests = 8;
  p.grid_rows = 2;
  p.grid_cols = 2;
  p.star_leaves = 1;
  p.node_capacity = 10.0;
  p.link_capacity = 10.0;
  p.flexibility = 1.5;
  p.interarrival_mean = 6.0;
  p.seed = 3;
  const workload::ArrivalTrace trace = workload::make_trace(p);
  const net::SubstrateNetwork substrate = net::make_grid(2, 2, 10.0, 10.0);
  const std::uint64_t fp = serve::serve_state_fingerprint(substrate, {});

  const TempDir source(fuzz_base());
  serve::WalOptions options;
  options.snapshot_every = 3;
  std::vector<std::string> valid_retired;
  {
    serve::RecoveredState recovered;
    const auto wal = serve::Wal::open(source.path, fp, options, &recovered);
    serve::AdmissionEngine engine(substrate, {});
    wal->attach(&engine);
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      serve::RequestMessage message;
      message.id = "R" + std::to_string(i);
      message.request = trace.requests[i].request;
      message.mapping = trace.requests[i].mapping;
      engine.admit(message);
      if (wal->wants_snapshot()) wal->snapshot_engine(engine);
    }
    for (const serve::Commit& c : engine.snapshot_full().retired)
      valid_retired.push_back(serve::encode_commit(c));
  }
  std::string snapshot_name;
  for (const auto& entry : std::filesystem::directory_iterator(source.path)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".state" && name > snapshot_name)
      snapshot_name = name;
  }
  const std::string snapshot = read_all(source.file(snapshot_name));
  const std::string log = read_all(source.file("wal.jsonl"));
  const std::string ledger = read_all(source.file("ledger.jsonl"));
  ASSERT_EQ(std::count(log.begin(), log.end(), '\n'), 3);
  ASSERT_NE(snapshot.find("\"ledger\":"), std::string::npos);
  const long ledger_lines = std::count(ledger.begin(), ledger.end(), '\n');
  ASSERT_GE(ledger_lines, 3);  // header and at least two commits

  const TempDir dir(fuzz_base());
  const auto open_state = [&](const std::string& ledger_bytes,
                              serve::RecoveredState* recovered) {
    std::filesystem::remove_all(dir.path);
    std::filesystem::create_directories(dir.path);
    write_all(dir.file(snapshot_name), snapshot);
    write_all(dir.file("wal.jsonl"), log);
    write_all(dir.file("ledger.jsonl"), ledger_bytes);
    return accepts(
        [&] { serve::Wal::open(dir.path, fp, {}, recovered); },
        ledger_bytes);
  };
  const auto retired_of = [](const serve::RecoveredState& recovered) {
    std::vector<std::string> out;
    for (const serve::Commit& c : recovered.state.retired)
      out.push_back(serve::encode_commit(c));
    return out;
  };

  Rng rng(17);
  for (int i = 0; i < kMutations / 2; ++i) {
    serve::RecoveredState recovered;
    open_state(mutate(ledger, rng), &recovered);
  }

  // Lines past the snapshot's count — a torn one, or whole ones appended
  // by a snapshot that never published — are cut, and the state is the
  // uninterrupted one. Recovery's compaction then appends the commits the
  // log retired, so the ledger holds every retired commit once.
  std::string compacted = ledger.substr(0, ledger.find('\n') + 1);
  for (const std::string& line : valid_retired) compacted += line + '\n';
  const std::size_t last_begin = ledger.rfind('\n', ledger.size() - 2) + 1;
  const std::string last_line = ledger.substr(last_begin);
  for (const std::string& tail :
       {last_line.substr(0, last_line.size() / 2), last_line,
        last_line + last_line}) {
    serve::RecoveredState recovered;
    EXPECT_TRUE(open_state(ledger + tail, &recovered));
    EXPECT_EQ(retired_of(recovered), valid_retired);
    EXPECT_EQ(read_all(dir.file("ledger.jsonl")), compacted);
  }

  // A bad line the snapshot counts, or a ledger shorter than its count,
  // loses committed commits: refused.
  const std::size_t first_begin = ledger.find('\n') + 1;
  const std::size_t first_end = ledger.find('\n', first_begin);
  std::string bad_middle = ledger;
  bad_middle.replace(first_begin, first_end - first_begin, "{\"seq\":");
  serve::RecoveredState recovered;
  EXPECT_FALSE(open_state(bad_middle, &recovered));
  EXPECT_FALSE(open_state(ledger.substr(0, last_begin), &recovered));
  EXPECT_FALSE(open_state(ledger.substr(0, last_begin + 5), &recovered));
  EXPECT_FALSE(open_state("", &recovered));
}

}  // namespace
}  // namespace tvnep
