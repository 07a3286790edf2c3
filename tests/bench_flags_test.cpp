// bench::reject_unknown_flags: a sweep bench stops on a flag it never read
// (a typo, or an option that was removed) instead of silently running its
// defaults.
#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "fig_common.hpp"

namespace tvnep::bench {
namespace {

eval::Args make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"bench"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return eval::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlags, ReadFlagsAndQuietPass) {
  const eval::Args args = make({"--requests", "3", "--quiet"});
  EXPECT_EQ(args.get_int("requests", 4), 3);
  reject_unknown_flags(args);  // returns: --requests was read, --quiet counts
}

TEST(BenchFlags, UnknownFlagExitsWithCode2) {
  const eval::Args args = make({"--requests", "3", "--pricing", "devex"});
  EXPECT_EQ(args.get_int("requests", 4), 3);
  EXPECT_EXIT(reject_unknown_flags(args), ::testing::ExitedWithCode(2),
              "error: unknown flag --pricing");
}

TEST(BenchFlags, TypoStopsBeforeCheckpointOverwritesJournal) {
  // A mistyped flag next to `--checkpoint` must not truncate the journal
  // an earlier run left at that path.
  const std::string path = ::testing::TempDir() + "bench_flags_journal.jsonl";
  const std::string before = "earlier journal bytes\n";
  std::ofstream(path) << before;
  const eval::Args args =
      make({"--checkpoint", path.c_str(), "--thread", "2"});
  eval::SweepConfig config;
  EXPECT_EXIT(attach_resilience(args, config, "fig3"),
              ::testing::ExitedWithCode(2), "error: unknown flag --thread");
  std::ostringstream after;
  after << std::ifstream(path).rdbuf();
  EXPECT_EQ(after.str(), before);
}

}  // namespace
}  // namespace tvnep::bench
