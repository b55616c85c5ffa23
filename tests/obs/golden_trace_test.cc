// Golden-file trace test: a 2-flow PERT dumbbell with tracing enabled must
// produce a Chrome trace_event JSON that (a) parses as valid JSON with the
// expected event vocabulary and (b) is byte-identical whether the batch runs
// on 1 worker thread or 8 — the trace is a pure function of the simulated
// run, never of the execution schedule.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/dumbbell.h"
#include "runner/json.h"
#include "runner/runner.h"
#include "runner/seed.h"

namespace pert {
namespace {

exp::DumbbellConfig traced_dumbbell() {
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("pert");
  cfg.num_fwd_flows = 2;
  cfg.bottleneck_bps = 10e6;  // congested enough for early responses
  cfg.rtt = 0.04;
  cfg.obs.trace.enabled = true;
  // Queue + PERT categories at kInfo: the acceptance vocabulary without the
  // per-dispatch debug flood, so the ring never wraps past the events the
  // vocabulary test asserts on.
  cfg.obs.trace.categories = obs::category_bit(obs::Category::kQueue) |
                             obs::category_bit(obs::Category::kPert);
  cfg.obs.trace.min_severity = obs::Severity::kInfo;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Runs a small batch of traced dumbbell cells, one trace file per cell,
/// and returns the trace paths (indexed by cell).
std::vector<std::string> run_batch(unsigned threads, const std::string& tag) {
  std::vector<runner::Job> jobs;
  std::vector<std::string> paths;
  for (int cell = 0; cell < 3; ++cell) {
    exp::DumbbellConfig cfg = traced_dumbbell();
    runner::Job job;
    job.key = "golden_trace/cell=" + std::to_string(cell);
    job.seed = runner::derive_seed(1, job.key);
    cfg.seed = job.seed;
    const std::string path =
        "/tmp/pert_golden_trace_" + tag + "_" + std::to_string(cell) + ".json";
    paths.push_back(path);
    job.run = [cfg, path](const runner::Job&) {
      exp::Dumbbell d(cfg);
      runner::JobOutput out;
      out.metrics = d.measure_window(2.0, 4.0);
      out.events = d.network().sched().dispatched();
      std::ofstream f(path);
      d.obs().tracer().write_chrome_trace(f);
      return out;
    };
    jobs.push_back(std::move(job));
  }
  runner::RunnerOptions ropts;
  ropts.threads = threads;
  ropts.name = "golden_trace";
  const runner::RunReport report = runner::ExperimentRunner(ropts).run(jobs);
  for (const runner::JobResult& r : report.results) EXPECT_TRUE(r.ok);
  return paths;
}

TEST(GoldenTrace, ParsesAndContainsExpectedEventVocabulary) {
  const std::vector<std::string> paths = run_batch(1, "vocab");
  const std::string text = slurp(paths[0]);
  const runner::JsonValue doc = runner::JsonValue::parse(text);

  const runner::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->as_array().empty());

  std::set<std::string> names;
  for (const runner::JsonValue& e : events->as_array()) {
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    names.insert(e.find("name")->as_string());
  }
  // The acceptance vocabulary: queue delay from the sampler, the PERT
  // predictor's srtt_0.99 estimate, and at least one early response.
  EXPECT_TRUE(names.count("queue.delay")) << "missing queue.delay";
  EXPECT_TRUE(names.count("pert.srtt99")) << "missing pert.srtt99";
  EXPECT_TRUE(names.count("pert.early_response"))
      << "missing pert.early_response";
}

TEST(GoldenTrace, ByteIdenticalAcrossJobs1And8) {
  const std::vector<std::string> serial = run_batch(1, "j1");
  const std::vector<std::string> parallel = run_batch(8, "j8");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string a = slurp(serial[i]);
    const std::string b = slurp(parallel[i]);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "trace for cell " << i
                    << " depends on the execution schedule";
  }
  for (const auto& p : serial) std::remove(p.c_str());
  for (const auto& p : parallel) std::remove(p.c_str());
}

}  // namespace
}  // namespace pert
