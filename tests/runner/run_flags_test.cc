// The run-control flags shared by pert_sim and the runner-backed benches:
// one registration, one conversion, one rule for how they combine.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/option_set.h"
#include "runner/run_flags.h"

namespace pert::runner {
namespace {

/// Parses `args` with only the run-control flags registered.
RunFlags parse(const std::vector<std::string>& args) {
  RunFlags flags;
  exp::cli::OptionSet opts("prog");
  add_run_flags(opts, flags);
  opts.parse(args);
  return flags;
}

TEST(RunFlags, ParsesEveryFlag) {
  const RunFlags f = parse({"--jobs", "4", "--json", "r.json", "--journal",
                            "j.log", "--resume", "--shard", "1/3"});
  EXPECT_EQ(f.runner.threads, 4u);
  EXPECT_EQ(f.json, "r.json");
  EXPECT_EQ(f.runner.journal_path, "j.log");
  EXPECT_TRUE(f.runner.resume);
  EXPECT_EQ(f.runner.shard, (ShardSpec{1, 3}));
}

TEST(RunFlags, ConvertsAtParseTime) {
  EXPECT_THROW(parse({"--shard", "3/3"}), std::invalid_argument);
  EXPECT_THROW(parse({"--shard", "x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "-1"}), std::invalid_argument);
}

TEST(RunFlags, ResumeNeedsAJournal) {
  EXPECT_THROW(parse({"--resume"}), std::invalid_argument);
  EXPECT_NO_THROW(parse({"--resume", "--journal", "j.log"}));
}

}  // namespace
}  // namespace pert::runner
