// JSON export round-trip: a RunReport survives serialize -> parse -> compare,
// and the document exposes the schema-stable keys downstream trajectory
// tooling greps for (scheme, x, metrics, seed, events, wall_ms).
#include "runner/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "runner/runner.h"

namespace pert::runner {
namespace {

RunReport sample_report() {
  RunReport rep;
  rep.name = "fig08_num_flows";
  rep.threads = 4;
  rep.wall_ms = 1234.5;
  rep.cpu_ms = 4321.25;

  JobResult r;
  r.key = "fig08_num_flows/flows=10/PERT";
  r.seed = 11899626214285463373ULL;
  r.tags = {{"scheme", "PERT"}, {"x", "10"}};
  r.metrics.duration = 40.0;
  r.metrics.avg_queue_pkts = 12.75;
  r.metrics.norm_queue = 0.0425;
  r.metrics.drop_rate = 3.5e-6;
  r.metrics.utilization = 0.9871;
  r.metrics.jain = 0.993;
  r.metrics.agg_goodput_bps = 241.5e6;
  r.metrics.drops = 17;
  r.metrics.ecn_marks = 0;
  r.metrics.early_responses = 4211;
  r.metrics.timeouts = 1;
  r.metrics.loss_events = 9;
  r.events = 123456789ULL;
  r.wall_ms = 812.0625;
  r.ok = true;
  r.status = JobStatus::kOk;
  rep.results.push_back(r);

  JobResult bad;
  bad.key = "fig08_num_flows/flows=10/Vegas";
  bad.seed = 1;
  bad.ok = false;
  bad.error = "boom";
  rep.results.push_back(bad);
  return rep;
}

TEST(Report, RoundTripPreservesEverything) {
  const RunReport a = sample_report();
  const RunReport b = report_from_json(JsonValue::parse(to_json(a).dump(2)));

  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.threads, a.threads);
  EXPECT_EQ(b.wall_ms, a.wall_ms);
  EXPECT_EQ(b.cpu_ms, a.cpu_ms);
  ASSERT_EQ(b.results.size(), a.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(b.results[i].key, a.results[i].key);
    EXPECT_EQ(b.results[i].seed, a.results[i].seed);
    EXPECT_EQ(b.results[i].tags, a.results[i].tags);
    EXPECT_EQ(b.results[i].metrics, a.results[i].metrics);
    EXPECT_EQ(b.results[i].events, a.results[i].events);
    EXPECT_EQ(b.results[i].wall_ms, a.results[i].wall_ms);
    EXPECT_EQ(b.results[i].ok, a.results[i].ok);
    EXPECT_EQ(b.results[i].error, a.results[i].error);
  }
}

TEST(Report, SchemaStableKeys) {
  const JsonValue doc = to_json(sample_report());
  for (const char* key : {"name", "threads", "jobs", "wall_ms", "cpu_ms",
                          "speedup", "results"})
    EXPECT_NE(doc.find(key), nullptr) << key;
  EXPECT_EQ(doc.at("jobs").as_uint(), 2u);
  EXPECT_NEAR(doc.at("speedup").as_double(), 4321.25 / 1234.5, 1e-12);

  const JsonValue& r = doc.at("results").as_array().front();
  for (const char* key :
       {"key", "scheme", "x", "seed", "events", "wall_ms", "ok", "metrics"})
    EXPECT_NE(r.find(key), nullptr) << key;
  EXPECT_EQ(r.at("scheme").as_string(), "PERT");
  EXPECT_EQ(r.at("x").as_string(), "10");
  EXPECT_EQ(r.at("seed").as_uint(), 11899626214285463373ULL);

  const JsonValue& m = r.at("metrics");
  for (const char* key :
       {"duration", "avg_queue_pkts", "norm_queue", "drop_rate", "utilization",
        "jain", "agg_goodput_bps", "drops", "ecn_marks", "early_responses",
        "timeouts", "loss_events"})
    EXPECT_NE(m.find(key), nullptr) << key;

  // Failed jobs carry their error message.
  const JsonValue& bad = doc.at("results").as_array().back();
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), "boom");
}

TEST(Report, StatusAloneDecidesOk) {
  // A record whose "ok" disagrees with its "status" follows the status.
  const JobResult done = result_from_json(
      JsonValue::parse(R"({"key":"a","ok":false,"status":"ok"})"));
  EXPECT_EQ(done.status, JobStatus::kOk);
  EXPECT_TRUE(done.ok);
  const JobResult failed = result_from_json(
      JsonValue::parse(R"({"key":"a","ok":true,"status":"failed"})"));
  EXPECT_EQ(failed.status, JobStatus::kFailed);
  EXPECT_FALSE(failed.ok);
  // Reports written before the status field carry only "ok".
  for (const bool ok : {true, false}) {
    const JobResult old = result_from_json(JsonValue::parse(
        std::string(R"({"key":"a","ok":)") + (ok ? "true" : "false") + "}"));
    EXPECT_EQ(old.ok, ok);
    EXPECT_EQ(old.status, ok ? JobStatus::kOk : JobStatus::kFailed);
  }
}

TEST(Report, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "pert_report_rt.json";
  const RunReport a = sample_report();
  write_report(a, path);
  const RunReport b = read_report(path);
  EXPECT_EQ(b.results.size(), a.results.size());
  EXPECT_EQ(b.results[0].metrics, a.results[0].metrics);
  EXPECT_EQ(b.results[0].seed, a.results[0].seed);
  std::remove(path.c_str());
}

TEST(Report, ByCellLooksUpAShardedReportByGridCell) {
  std::vector<Job> jobs(5);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].key = "grid/cell=" + std::to_string(i);
    jobs[i].run = [](const Job&) { return JobOutput{}; };
  }
  RunnerOptions opts;
  opts.progress = false;
  opts.shard = {1, 2};  // owns cells 1 and 3
  const RunReport rep = ExperimentRunner(opts).run(jobs);
  ASSERT_EQ(rep.results.size(), 2u);

  // The same lookup after a JSON round trip: the shard block carries the
  // grid size.
  for (const RunReport& r : {rep, report_from_json(to_json(rep))}) {
    const std::vector<const JobResult*> by_cell = r.by_cell();
    ASSERT_EQ(by_cell.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i % 2 == 0) {
        EXPECT_EQ(by_cell[i], nullptr) << "cell " << i;
        continue;
      }
      ASSERT_NE(by_cell[i], nullptr) << "cell " << i;
      EXPECT_EQ(by_cell[i]->key, jobs[i].key);
      EXPECT_EQ(by_cell[i]->cell, i);
    }
  }
}

TEST(Report, WriteToBadPathThrows) {
  EXPECT_THROW(write_report(sample_report(), "/nonexistent-dir/x.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace pert::runner
