// The journal format shared by the sweep checkpoint and the serve WAL
// (support/journal): header check, line reader and torn-tail rule, and a
// pin of the on-disk formats — sweep-journal, WAL-log and snapshot bytes
// held inline, each with a torn tail, must resume to the same records
// and state, repair to the same bytes, and re-render record for record.
#include "support/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/checkpoint.hpp"
#include "eval/runner.hpp"
#include "net/topology.hpp"
#include "serve/wal.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace tvnep {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/tvnep_journal_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? "/tmp/tvnep_journal_fallback" : made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
};

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

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

constexpr JournalFormat kTestFormat{"log", "tvnep-test", 2};

TEST(Journal, HeaderRoundTripsThroughItsCheck) {
  const std::string header = journal_header(kTestFormat, 0xabcull);
  EXPECT_EQ(header,
            "{\"log\":\"tvnep-test\",\"version\":2,"
            "\"fingerprint\":\"0000000000000abc\"}");
  EXPECT_NO_THROW(
      check_journal_header(parse_json(header, "h"), kTestFormat, 0xabc, "h"));
  EXPECT_EQ(journal_header(kTestFormat, 1, ",\"txid\":7"),
            "{\"log\":\"tvnep-test\",\"version\":2,"
            "\"fingerprint\":\"0000000000000001\",\"txid\":7}");
}

TEST(Journal, HeaderCheckRefusesOtherMagicVersionOrFingerprint) {
  const auto check = [](const std::string& text) {
    check_journal_header(parse_json(text, "h"), kTestFormat, 0xabc, "h");
  };
  EXPECT_THROW(check(R"({"log":"other","version":2,"fingerprint":"0000000000000abc"})"),
               ParseError);
  EXPECT_THROW(check(R"({"log":"tvnep-test","version":1,"fingerprint":"0000000000000abc"})"),
               ParseError);
  EXPECT_THROW(check(R"({"log":"tvnep-test","version":2})"), ParseError);
  try {
    check(R"({"log":"tvnep-test","version":2,"fingerprint":"0000000000000abd"})");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos);
  }
}

TEST(Journal, ReaderRemembersWhetherTheFinalLineWasTerminated) {
  const TempDir dir;
  JournalLines lines;
  EXPECT_FALSE(read_journal_lines(dir.file("missing"), &lines));
  write_all(dir.file("a"), "x\n\ny\n");
  ASSERT_TRUE(read_journal_lines(dir.file("a"), &lines));
  EXPECT_EQ(lines.lines, (std::vector<std::string>{"x", "", "y"}));
  EXPECT_TRUE(lines.last_terminated);
  JournalLines torn;
  write_all(dir.file("b"), "x\ny");
  ASSERT_TRUE(read_journal_lines(dir.file("b"), &torn));
  EXPECT_EQ(torn.lines, (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(torn.last_terminated);
}

TEST(Journal, ReplayDropsOnlyATornFinalLine) {
  const TempDir dir;
  const std::string path = dir.file("j");
  const std::string header = journal_header(kTestFormat, 5) + "\n";
  std::vector<long> applied;
  const auto apply = [&](const JsonValue&, long line) {
    applied.push_back(line);
  };

  // Missing file: nothing found, nothing written.
  EXPECT_FALSE(replay_journal(path, kTestFormat, 5, apply).found);
  EXPECT_FALSE(std::filesystem::exists(path));

  // Clean file: every record applied, bytes untouched.
  write_all(path, header + "{\"a\":1}\n\n{\"a\":2}\n");
  JournalReplay replay = replay_journal(path, kTestFormat, 5, apply);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.torn_line, 0);
  EXPECT_EQ(applied, (std::vector<long>{2, 4}));
  EXPECT_EQ(read_all(path), header + "{\"a\":1}\n\n{\"a\":2}\n");

  // Unparseable final line: dropped, file rewritten without it.
  applied.clear();
  write_all(path, header + "{\"a\":1}\n{\"a\":");
  replay = replay_journal(path, kTestFormat, 5, apply);
  EXPECT_EQ(replay.torn_line, 3);
  EXPECT_EQ(applied, (std::vector<long>{2}));
  EXPECT_EQ(read_all(path), header + "{\"a\":1}\n");

  // Parseable but unterminated final line: dropped too.
  applied.clear();
  write_all(path, header + "{\"a\":1}\n{\"a\":2}");
  replay = replay_journal(path, kTestFormat, 5, apply);
  EXPECT_EQ(replay.torn_line, 3);
  EXPECT_EQ(applied, (std::vector<long>{2}));
  EXPECT_EQ(read_all(path), header + "{\"a\":1}\n");

  // A compactor replaces the surviving record lines.
  write_all(path, header + "{\"a\":1}\n{\"a\":2}");
  replay_journal(path, kTestFormat, 5, apply,
                 [] { return std::string("{\"b\":0}\n"); });
  EXPECT_EQ(read_all(path), header + "{\"b\":0}\n");

  // A bad line anywhere else throws, located, and leaves the file alone.
  const std::string damaged = header + "{\"a\":1}\n{oops\n{\"a\":2}\n";
  write_all(path, damaged);
  try {
    replay_journal(path, kTestFormat, 5, apply);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
  EXPECT_EQ(read_all(path), damaged);

  // A header under another fingerprint refuses before touching anything.
  write_all(path, header + "{\"a\":");
  EXPECT_THROW(replay_journal(path, kTestFormat, 6, apply), ParseError);
  EXPECT_EQ(read_all(path), header + "{\"a\":");
}

TEST(Journal, FnvAndFingerprintHexAreStable) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("b", fnv1a("a")), fnv1a("ab"));
  EXPECT_EQ(fingerprint_hex(0xf6a3137969e884c1ull), "f6a3137969e884c1");
  EXPECT_EQ(fingerprint_hex(1), "0000000000000001");
}

// ---- format pin -------------------------------------------------------

// A sweep journal (fingerprint 0123456789abcdef) with records appended out
// of key order, a duplicate cell, every value kind, and a torn final
// record.
const std::string kSweepJournalTorn = R"J({"journal":"tvnep-sweep","version":1,"fingerprint":"0123456789abcdef"}
{"label":"cSigma","flex_index":1,"seed":0,"fields":{"bound":"-inf","gap":"inf","objective":0.33333333333333331,"optimal":false,"ratio":"nan","seconds":0.10000000000000001,"status":"time-limit"}}
{"label":"Delta","flex_index":0,"seed":1,"fields":{"error":"quote \" slash \\ tab\t nl\n ctl\u0001 Δ","failed":true,"nodes":1234567,"tiny":-1e-300}}
{"label":"cSigma","flex_index":0,"seed":1,"fields":{"bound":"-inf","gap":"inf","objective":2,"optimal":false,"ratio":"nan","seconds":0.10000000000000001,"status":"time-limit"}}
{"label":"cSigma","flex_index":1,"seed":0,"fields":{"bound":"-inf","gap":"inf","objective":0.33333333333333331,"optimal":false,"ratio":"nan","seconds":0.10000000000000001,"status":"time-limit"}}
{"label":"Sigma","flex_index":2,"seed":0,"fields":{"error":"quote \" slash \\ tab\t nl\n ctl\u0001 Δ","failed":true,"nodes":)J";

// What resume left on disk: header, then the surviving cells compacted to
// their last-wins rows in key order.
const std::string kSweepJournalRepaired = R"J({"journal":"tvnep-sweep","version":1,"fingerprint":"0123456789abcdef"}
{"label":"Delta","flex_index":0,"seed":1,"fields":{"error":"quote \" slash \\ tab\t nl\n ctl\u0001 Δ","failed":true,"nodes":1234567,"tiny":-1e-300}}
{"label":"cSigma","flex_index":0,"seed":1,"fields":{"bound":"-inf","gap":"inf","objective":2,"optimal":false,"ratio":"nan","seconds":0.10000000000000001,"status":"time-limit"}}
{"label":"cSigma","flex_index":1,"seed":0,"fields":{"bound":"-inf","gap":"inf","objective":0.33333333333333331,"optimal":false,"ratio":"nan","seconds":0.10000000000000001,"status":"time-limit"}}
)J";

TEST(Journal, SweepJournalBytesResumeAndRepairUnchanged) {
  const TempDir dir;
  const std::string path = dir.file("sweep.jsonl");
  write_all(path, kSweepJournalTorn);
  const auto journal =
      eval::SweepJournal::resume(path, 0x0123456789abcdefull);
  EXPECT_EQ(journal->loaded(), 3u);
  EXPECT_EQ(read_all(path), kSweepJournalRepaired);

  // Each resumed record re-renders to its line byte for byte.
  const std::vector<std::string> lines = lines_of(kSweepJournalRepaired);
  ASSERT_EQ(lines.size(), 4u);
  const eval::CellKey keys[] = {{"Delta", 0, 1}, {"cSigma", 0, 1}, {"cSigma", 1, 0}};
  for (std::size_t i = 0; i < 3; ++i) {
    const eval::CellRecord* record = journal->find(keys[i]);
    ASSERT_NE(record, nullptr) << keys[i].label;
    EXPECT_EQ(eval::journal_record_json(*record), lines[i + 1]);
  }
  const eval::CellRecord* delta = journal->find(keys[0]);
  EXPECT_EQ(delta->text("error"),
            "quote \" slash \\ tab\t nl\n ctl\x01 \xce\x94");
  EXPECT_EQ(delta->number("tiny"), -1e-300);
  EXPECT_TRUE(delta->boolean("failed"));
  const eval::CellRecord* sigma = journal->find(keys[2]);
  EXPECT_EQ(sigma->number("objective"), 1.0 / 3.0);
  EXPECT_EQ(sigma->number("seconds"), 0.1);
  EXPECT_TRUE(std::isinf(sigma->number("gap")));
  EXPECT_TRUE(std::isnan(sigma->number("ratio")));
  EXPECT_EQ(journal->find({"Sigma", 2, 0}), nullptr);  // the torn record

  EXPECT_EQ(eval::cell_key_hash({"cSigma", 1, 0}), 2708751169501356502ull);
  EXPECT_EQ(eval::cell_key_hash({"Delta", 0, 1}), 13230133735867590790ull);
  eval::SweepConfig config;
  config.base.num_requests = 4;
  config.base.grid_rows = 2;
  config.base.grid_cols = 3;
  config.base.star_leaves = 2;
  config.flexibilities = {0.0, 0.5, 1.0 / 3.0};
  config.seeds = 3;
  config.time_limit = 8.0;
  EXPECT_EQ(eval::sweep_fingerprint(config, "fig3"), 12047487932299401527ull);
}

// A serve state dir on a 2x2 grid (capacities 10): the snapshot taken after
// three accepted requests, and a log holding one more accepted decision
// plus a torn final one.
const std::string kSnapshot4 = R"J({"snapshot":"tvnep-serve","version":1,"fingerprint":"8f8ffd6a8ecb6771","txid":4,"engine_version":3,"now":5.16975107611312,"next_seq":3,"accepted":3,"decisions":3,"active":3,"retired":0}
{"seq":0,"id":"R0","fp":false,"start":2.9671172378792714,"end":5.6022395022022113,"req":{"name":"R0","ts":2.9671172378792714,"te":7.1022395022022113,"d":2.6351222643229399,"nodes":[1.8448223603965261,1.626796133487542],"links":[[0,1,1.1111949128263054]]},"map":[1,3],"embed":{"start":2.9671172378792714,"end":5.6022395022022113,"nm":[1,3],"flow":[0,0,0,0,1,0,0,0]}}
{"seq":1,"id":"R1","fp":false,"start":3.5563117240305018,"end":11.221578652806871,"req":{"name":"R1","ts":3.5563117240305018,"te":12.721578652806871,"d":7.6652669287763695,"nodes":[1.1992895994421837,1.3544808552344998],"links":[[0,1,1.4592764960989364]]},"map":[3,2],"embed":{"start":3.5563117240305018,"end":11.221578652806871,"nm":[3,2],"flow":[0,0,0,0,0,0,0,1]}}
{"seq":2,"id":"R2","fp":false,"start":5.16975107611312,"end":7.2559111128444176,"req":{"name":"R2","ts":5.16975107611312,"te":8.7559111128444176,"d":2.086160036731298,"nodes":[1.5920702681418322,1.3485357169889065],"links":[[0,1,1.2621496071968357]]},"map":[1,3],"embed":{"start":5.16975107611312,"end":7.2559111128444176,"nm":[1,3],"flow":[0,0,0,0,1,0,0,0]}}
)J";
const std::string kWalTorn = R"J({"wal":"tvnep-serve","version":1,"fingerprint":"8f8ffd6a8ecb6771"}
{"txid":4,"t":"d","id":"R3","outcome":"accepted","fp":false,"now":5.3486556208406606,"version":4,"next_seq":4,"accepted":4,"decisions":4,"retired":[],"embeds":[],"commit":{"seq":3,"id":"R3","fp":false,"start":5.3486556208406606,"end":8.2447236941983384,"req":{"name":"R3","ts":5.3486556208406606,"te":9.7447236941983384,"d":2.8960680733576774,"nodes":[1.6832492320025203,1.2170445438486439],"links":[[0,1,1.2871526562625504]]},"map":[3,3],"embed":{"start":5.3486556208406606,"end":8.2447236941983384,"nm":[3,3],"flow":[0,0,0,0,0,0,0,0]}}}
{"txid":5,"t":"d","id":"R4","outcome":"accepted","fp":false,"now":5.6632991241219983,"version":5,"next_seq":5,"accepted":5,"decisions":5,"retired":[],"embeds":[],"commit":{"seq":4,"id":"R4","fp":false,"start":5.6632991241219983,"end":10.020685202323428,"req":{"name":"R4","ts":5.6632991241219983,"te":11.520685202323428,"d":4.3573860782014302,"nodes":[1.0693318097359308,1.2554847299479315],"links":[[0,1,1.2156052299034208]]},"map":[1,3],"embed":{"start":5.6632991241219983,"end":10.020685202323428,"nm":[1,3)J";

// What recovery left behind: the torn record dropped, the replayed tail
// compacted into a fresh snapshot, and the log reset to its header.
const std::string kSnapshot5 = R"J({"snapshot":"tvnep-serve","version":1,"fingerprint":"8f8ffd6a8ecb6771","txid":5,"engine_version":4,"now":5.3486556208406606,"next_seq":4,"accepted":4,"decisions":4,"active":4,"retired":0}
{"seq":0,"id":"R0","fp":false,"start":2.9671172378792714,"end":5.6022395022022113,"req":{"name":"R0","ts":2.9671172378792714,"te":7.1022395022022113,"d":2.6351222643229399,"nodes":[1.8448223603965261,1.626796133487542],"links":[[0,1,1.1111949128263054]]},"map":[1,3],"embed":{"start":2.9671172378792714,"end":5.6022395022022113,"nm":[1,3],"flow":[0,0,0,0,1,0,0,0]}}
{"seq":1,"id":"R1","fp":false,"start":3.5563117240305018,"end":11.221578652806871,"req":{"name":"R1","ts":3.5563117240305018,"te":12.721578652806871,"d":7.6652669287763695,"nodes":[1.1992895994421837,1.3544808552344998],"links":[[0,1,1.4592764960989364]]},"map":[3,2],"embed":{"start":3.5563117240305018,"end":11.221578652806871,"nm":[3,2],"flow":[0,0,0,0,0,0,0,1]}}
{"seq":2,"id":"R2","fp":false,"start":5.16975107611312,"end":7.2559111128444176,"req":{"name":"R2","ts":5.16975107611312,"te":8.7559111128444176,"d":2.086160036731298,"nodes":[1.5920702681418322,1.3485357169889065],"links":[[0,1,1.2621496071968357]]},"map":[1,3],"embed":{"start":5.16975107611312,"end":7.2559111128444176,"nm":[1,3],"flow":[0,0,0,0,1,0,0,0]}}
{"seq":3,"id":"R3","fp":false,"start":5.3486556208406606,"end":8.2447236941983384,"req":{"name":"R3","ts":5.3486556208406606,"te":9.7447236941983384,"d":2.8960680733576774,"nodes":[1.6832492320025203,1.2170445438486439],"links":[[0,1,1.2871526562625504]]},"map":[3,3],"embed":{"start":5.3486556208406606,"end":8.2447236941983384,"nm":[3,3],"flow":[0,0,0,0,0,0,0,0]}}
)J";
const std::string kWalCompacted = R"J({"wal":"tvnep-serve","version":1,"fingerprint":"8f8ffd6a8ecb6771"}
)J";

TEST(Journal, WalStateBytesRecoverAndRepairUnchanged) {
  const net::SubstrateNetwork substrate = net::make_grid(2, 2, 10.0, 10.0);
  const std::uint64_t fingerprint =
      serve::serve_state_fingerprint(substrate, {});
  EXPECT_EQ(fingerprint, 10344765503197374321ull);

  const TempDir dir;
  write_all(dir.file("snapshot-0000000000000004.state"), kSnapshot4);
  write_all(dir.file("wal.jsonl"), kWalTorn);
  serve::RecoveredState recovered;
  {
    const auto wal =
        serve::Wal::open(dir.path, fingerprint, {}, &recovered);
    EXPECT_EQ(wal->stats().replayed, 1);
    EXPECT_EQ(wal->stats().torn_repaired, 1);
  }
  EXPECT_TRUE(recovered.had_state);
  EXPECT_EQ(recovered.state.version, 4u);
  EXPECT_EQ(recovered.state.decisions, 4u);
  EXPECT_EQ(recovered.state.next_seq, 4u);
  EXPECT_EQ(recovered.state.accepted_total, 4u);
  EXPECT_EQ(serve::wal_number(recovered.state.now), "5.3486556208406606");
  EXPECT_TRUE(recovered.state.retired.empty());

  // The recovered commits re-render to the snapshot's lines byte for byte:
  // three from the old snapshot, the fourth from the replayed log record.
  const std::vector<std::string> lines = lines_of(kSnapshot5);
  ASSERT_EQ(lines.size(), 5u);
  ASSERT_EQ(recovered.state.commits.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(serve::encode_commit(recovered.state.commits[i]), lines[i + 1]);

  EXPECT_EQ(read_all(dir.file("snapshot-0000000000000004.state")), kSnapshot4);
  EXPECT_EQ(read_all(dir.file("snapshot-0000000000000005.state")), kSnapshot5);
  EXPECT_EQ(read_all(dir.file("wal.jsonl")), kWalCompacted);
}

}  // namespace
}  // namespace tvnep
