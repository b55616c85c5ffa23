// pert_sim end-to-end: the binary's output files and report, driven through
// the command line exactly as a user would.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>

#include "runner/json.h"
#include "runner/report.h"

namespace pert::exp {
namespace {

namespace fs = std::filesystem;

/// A small scenario that finishes in milliseconds but carries traffic.
constexpr const char* kScenario =
    " flows=2 bw=10M rtt=40 warmup=1 measure=2 start_window=0.5";

/// A fresh directory per test, removed afterwards.
class PertSimCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pert_sim_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs pert_sim with `args`, stdout and stderr discarded; returns the
  /// exit status.
  static int run(const std::string& args) {
    const std::string cmd =
        std::string(PERT_SIM_BIN) + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
  }

  static std::string read(const std::string& file) {
    std::ifstream f(file);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(PertSimCli, SeriesOutWritesCsvAtObsInterval) {
  ASSERT_EQ(run("scheme=pert" + std::string(kScenario) +
                " obs_interval=500 series_out=" + path("q.csv")),
            0);
  std::istringstream lines(read(path("q.csv")));
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    double t = -1, value = -1;
    char tail = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%lf,%lf%c", &t, &value, &tail), 2)
        << "not a t,value line: " << line;
    EXPECT_DOUBLE_EQ(t, 0.5 * n) << line;
    EXPECT_GE(value, 0.0) << line;
  }
  // One sample per 0.5 s of the 3 s run, t = 0.5 .. 3.
  EXPECT_EQ(n, 6);
}

TEST_F(PertSimCli, TwoSchemesWriteFourSchemeTaggedFilesEach) {
  ASSERT_EQ(run("scheme=pert,sack" + std::string(kScenario) +
                " trace_out=" + path("flow.csv") +
                " series_out=" + path("queue.csv") +
                " trace=" + path("events.json") +
                " metrics=" + path("metrics.json")),
            0);
  std::set<std::string> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_))
    files.insert(e.path().filename().string());
  const std::set<std::string> expected = {
      "flow.PERT.csv",          "queue.PERT.csv",
      "events.PERT.json",       "metrics.PERT.json",
      "flow.Sack_Droptail.csv", "queue.Sack_Droptail.csv",
      "events.Sack_Droptail.json", "metrics.Sack_Droptail.json"};
  EXPECT_EQ(files, expected);

  // metrics= is the RunReport's registry encoding and reads back.
  const obs::MetricRegistry reg = runner::registry_from_json(
      runner::JsonValue::parse(read(path("metrics.PERT.json"))));
  EXPECT_EQ(reg.counters().at("window.count").value(), 1u);
}

TEST_F(PertSimCli, SingleSchemeJsonReportSaysOk) {
  ASSERT_EQ(run("--json " + path("r.json") + " scheme=pert" +
                std::string(kScenario)),
            0);
  const runner::JsonValue doc = runner::JsonValue::parse(read(path("r.json")));
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  const runner::JsonValue::Array& results = doc.find("results")->as_array();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].find("ok")->as_bool());
  EXPECT_EQ(results[0].find("status")->as_string(), "ok");
}

}  // namespace
}  // namespace pert::exp
