// The command-line surface of every bench and tool binary, driven as a user
// would: --help answers with exit 0 and lists exactly the flags the binary
// reads, every bench flag a bench does not read is a usage error, and a
// batch the runner cannot start or export is an error line, never an abort.
//
// A flag under test is followed by --help, so a binary that wrongly accepts
// it prints its usage and exits 0 instead of running its grid.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <set>
#include <string>
#include <vector>

namespace {

struct Outcome {
  int status;
  std::string output;  ///< stdout and stderr
};

Outcome run(const std::string& command) {
  Outcome r{-1, ""};
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    r.output.append(buf, n);
  const int raw = pclose(pipe);
  r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return r;
}

std::string bench(const std::string& name) {
  return std::string(PERT_BENCH_DIR) + "/" + name;
}
std::string tool(const std::string& name) {
  return std::string(PERT_TOOLS_DIR) + "/" + name;
}

/// Every flag some bench reads, spelled with a value where it takes one.
const std::vector<std::string> kBenchFlags = {
    "--full",         "--smoke",    "--schemes pert", "--list-schemes",
    "--sim-threads 2", "--jobs 2",  "--json x",       "--journal x",
    "--resume",       "--shard 0/2", "--trace-dir x"};

const std::set<std::string> kRunner = {"--jobs",   "--json",  "--journal",
                                       "--resume", "--shard", "--trace-dir"};

std::set<std::string> with(std::set<std::string> base,
                           const std::set<std::string>& more) {
  base.insert(more.begin(), more.end());
  return base;
}

struct Bench {
  const char* name;
  std::set<std::string> reads;
};

const std::vector<Bench>& benches() {
  const std::set<std::string> sweep =
      with(kRunner, {"--full", "--schemes", "--list-schemes"});
  const std::set<std::string> smoke_sweep =
      with(sweep, {"--smoke", "--sim-threads"});
  static const std::vector<Bench> all = {
      {"bench_fig02_loss_correlation", {"--full"}},
      {"bench_fig03_predictors", {"--full"}},
      {"bench_fig04_fp_queue_pdf", {"--full"}},
      {"bench_fig05_response_curve", {}},
      {"bench_fig06_bandwidth", sweep},
      {"bench_fig07_rtt", sweep},
      {"bench_fig08_num_flows", smoke_sweep},
      {"bench_fig09_web_traffic", sweep},
      {"bench_fig11_multibottleneck", smoke_sweep},
      {"bench_fig12_dynamics", {"--full"}},
      {"bench_fig13_fluid_stability", {"--full"}},
      {"bench_fig14_pert_pi", sweep},
      {"bench_table1_rtt_unfairness", {"--full"}},
      {"bench_robustness", with(sweep, {"--smoke"})},
      {"bench_ablations", with(kRunner, {"--full"})},
      {"bench_ext_aqm_generality",
       with(kRunner, {"--full", "--smoke", "--sim-threads"})},
  };
  return all;
}

/// pert_sim and every bench that takes the run-control flags.
std::vector<std::string> runner_binaries() {
  std::vector<std::string> out{tool("pert_sim")};
  for (const Bench& b : benches())
    if (b.reads.count("--jobs") == 1) out.push_back(bench(b.name));
  return out;
}

std::string name_of(const std::string& flag) {
  return flag.substr(0, flag.find(' '));
}

TEST(CliSurface, EveryBenchHelpListsExactlyTheFlagsItReads) {
  for (const Bench& b : benches()) {
    const Outcome r = run(bench(b.name) + " --help");
    EXPECT_EQ(r.status, 0) << b.name;
    for (const std::string& flag : kBenchFlags) {
      const std::string name = name_of(flag);
      EXPECT_EQ(r.output.find("\n  " + name + " ") != std::string::npos,
                b.reads.count(name) == 1)
          << b.name << " --help and " << name;
    }
  }
}

TEST(CliSurface, EveryBenchRejectsTheFlagsItDoesNotRead) {
  for (const Bench& b : benches()) {
    for (const std::string& flag : kBenchFlags) {
      const std::string name = name_of(flag);
      if (b.reads.count(name) == 1) continue;
      const Outcome r = run(bench(b.name) + " " + flag + " --help");
      EXPECT_EQ(r.status, 2) << b.name << " " << flag;
      EXPECT_NE(r.output.find("unknown flag: " + name), std::string::npos)
          << b.name << " " << flag << ":\n" << r.output;
    }
  }
}

TEST(CliSurface, EveryToolAnswersHelp) {
  for (const std::string& path :
       {tool("pert_sim"), tool("fuzz_scenarios"), tool("sweep_merge"),
        tool("perf_baseline"), bench("bench_micro")}) {
    const Outcome r = run(path + " --help");
    EXPECT_EQ(r.status, 0) << path << ":\n" << r.output;
    EXPECT_FALSE(r.output.empty()) << path;
  }
}

TEST(CliSurface, OutOfRangeAndRetiredSpellingsAreUsageErrors) {
  const struct {
    std::string command;
    int status;
  } cases[] = {
      // Integers are range-checked against the type they are stored in.
      {tool("fuzz_scenarios") + " --seed -1", 2},
      {tool("pert_sim") + " --jobs -1", 2},
      // Spellings pert_sim no longer takes: --list-schemes and repeatable
      // impair= replace two; worker= is gone with the sweep service.
      {tool("pert_sim") + " schemes", 2},
      {tool("pert_sim") + " worker=h:1", 2},
      {tool("pert_sim") + " --impair loss:p=0.01", 2},
  };
  for (const auto& c : cases) {
    const Outcome r = run(c.command + " --help");
    EXPECT_EQ(r.status, c.status) << c.command << ":\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << c.command;
  }
}

TEST(CliSurface, NoRunnerBinaryTakesTheRetiredWorkerFlag) {
  for (const std::string& path : runner_binaries()) {
    const Outcome r = run(path + " --worker h:1 --help");
    EXPECT_EQ(r.status, 2) << path;
    EXPECT_NE(r.output.find("unknown flag: --worker"), std::string::npos)
        << path << ":\n" << r.output;
  }
}

TEST(CliSurface, BatchFailuresExitOneWithAnErrorLine) {
  // Another sweep's journal: pert_sim's shard 1/2 of its one-scheme batch
  // writes the journal header and runs no cell.
  const std::string other = ::testing::TempDir() + "cli_other_sweep.journal";
  std::remove(other.c_str());
  ASSERT_EQ(run(tool("pert_sim") + " --shard 1/2 --journal " + other).status,
            0);
  // The last of 2^32 - 1 shards owns no cell of any grid here, so the
  // --json case reaches the export without running a simulation.
  const std::string no_cells = " --shard 4294967294/4294967295";
  for (const std::string& path : runner_binaries()) {
    for (const std::string& args :
         {std::string(" --journal /nonexistent-dir/j"),
          no_cells + " --json /nonexistent-dir/x.json",
          " --journal " + other + " --resume"}) {
      const Outcome r = run(path + args);
      EXPECT_EQ(r.status, 1) << path << args << ":\n" << r.output;
      EXPECT_NE(r.output.find("error: "), std::string::npos)
          << path << args << ":\n" << r.output;
      EXPECT_EQ(r.output.find("terminate"), std::string::npos)
          << path << args << ":\n" << r.output;
    }
  }
  std::remove(other.c_str());
}

TEST(CliSurface, MalformedInputFilesAreErrorLinesNotCrashes) {
  const std::string deep =
      std::string(300000, '[') + std::string(300000, ']');
  const std::string report = ::testing::TempDir() + "cli_deep.json";
  const std::string bundle = ::testing::TempDir() + "cli_deep_bundle.json";
  const std::string counts = ::testing::TempDir() + "cli_counts_bundle.json";
  const auto write = [](const std::string& path, const std::string& text) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  };
  // A repro bundle that recorded a crash: a replay that crashed for any
  // reason would print REPRODUCED and exit 0.
  const std::string head =
      R"({"pert_fuzz_repro": 2, "kind": "crash", "detail": "", "scenario": )";
  write(report, deep);
  write(bundle, head + deep + "}");
  write(counts, head + R"({"num_fwd_flows": 4294967298.0}})");
  const struct {
    std::string command;
    int status;
  } cases[] = {
      {tool("sweep_merge") + " " + report, 1},
      {tool("pert_sim") + " repro=" + bundle, 2},
      {tool("pert_sim") + " repro=" + counts, 2},
  };
  for (const auto& c : cases) {
    const Outcome r = run(c.command);
    EXPECT_EQ(r.status, c.status) << c.command << ":\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos)
        << c.command << ":\n" << r.output;
  }
  for (const std::string& path : {report, bundle, counts})
    std::remove(path.c_str());
}

TEST(CliSurface, PertSimRejectsWindowsThatNeverEndOrNeverAdvance) {
  // NaN passes ordered comparisons, a measure too short to move the clock
  // measures nothing, and an infinite window never ends (hence the
  // timeout): each is a usage error before any simulation runs.
  for (const char* keys :
       {"warmup=nan", "measure=nan", "warmup=1 measure=1e-300", "measure=inf",
        "warmup=inf", "obs_interval=nan", "obs_interval=inf"}) {
    const Outcome r = run("timeout 60 " + tool("pert_sim") +
                          " scheme=pert flows=5 " + keys);
    EXPECT_EQ(r.status, 2) << keys << ":\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos)
        << keys << ":\n" << r.output;
  }
}

TEST(CliSurface, FailedCellsPrintAsDashesAndTheBenchExitsOne) {
  // Tracing is off under the parallel engine, so every cell fails: no
  // table may show a failed cell's zeroed metrics, and the exit status
  // must say the grid failed.
  const std::string dir = ::testing::TempDir() + "cli_failed_cells";
  const std::string tables = ::testing::TempDir() + "cli_failed_cells.txt";
  for (const char* name :
       {"bench_fig08_num_flows", "bench_fig11_multibottleneck"}) {
    // Tables to the file, stderr to r.output.
    const Outcome r = run("{ " + bench(name) +
                          " --smoke --sim-threads 2 --trace-dir " + dir +
                          " > " + tables + "; }");
    EXPECT_EQ(r.status, 1) << name << ":\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos)
        << name << ":\n" << r.output;
    std::ifstream f(tables);
    const std::string stdout_text((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
    EXPECT_NE(stdout_text.find(" - "), std::string::npos)
        << name << ":\n" << stdout_text;
    EXPECT_EQ(stdout_text.find("0.0"), std::string::npos)
        << name << ":\n" << stdout_text;
  }
  std::remove(tables.c_str());
  std::remove(dir.c_str());  // empty: failed cells write no trace
}

TEST(CliSurface, PerfGateFailsWhenItComparesNothing) {
  const std::string dir = ::testing::TempDir();
  const auto baseline = [&](const std::string& name, const std::string& rows) {
    const std::string path = dir + name;
    std::ofstream(path, std::ios::trunc)
        << R"({"schema": "pert-bench-baseline-v1", "benchmarks": {)" << rows
        << "}}";
    return path;
  };
  const std::string base =
      baseline("gate_base.json",
               R"("BM_SchedulerHold": {"ns_per_op": 10.0},)"
               R"( "BM_DropTailEnqueue": {"ns_per_op": 20.0})");
  const std::string no_scheduler = baseline(
      "gate_no_scheduler.json", R"("BM_DropTailEnqueue": {"ns_per_op": 20.0})");
  const std::string slower =
      baseline("gate_slower.json",
               R"("BM_SchedulerHold": {"ns_per_op": 30.0},)"
               R"( "BM_DropTailEnqueue": {"ns_per_op": 60.0})");
  const std::string gate = tool("perf_baseline") + " compare " + base + " ";

  // A gated benchmark absent from the candidate fails like a regression.
  Outcome r = run(gate + no_scheduler + " --only BM_Scheduler,BM_DropTail");
  EXPECT_EQ(r.status, 3) << r.output;
  EXPECT_NE(r.output.find("FAIL: BM_SchedulerHold"), std::string::npos)
      << r.output;
  // A misspelled --only selects nothing, so it cannot pass a 3x slowdown.
  r = run(gate + slower + " --only BM_Schedulr");
  EXPECT_EQ(r.status, 2) << r.output;
  for (const std::string& path : {base, no_scheduler, slower})
    std::remove(path.c_str());
}

TEST(FuzzScenariosCli, ExplicitItersWinOverBudgetMode) {
  // --iters equal to its default still bounds the campaign under
  // --budget-s: shard 24/25 of 25 iterations owns exactly one scenario.
  const Outcome r = run(tool("fuzz_scenarios") +
                    " --iters 25 --shard 24/25 --budget-s 60 --no-shrink");
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("fuzz: 1 scenario run"), std::string::npos)
      << r.output;
}

}  // namespace
