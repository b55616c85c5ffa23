// Runner crash isolation: a throwing job becomes a structured JobResult
// (status, error, diagnostics) while its siblings complete with
// byte-identical metrics; the batch status reflects partial failure; the
// JSON round-trip and the journal preserve all of it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "runner/journal.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/seed.h"
#include "sim/errors.h"

namespace pert::runner {
namespace {

Job quick_job(int i) {
  Job job;
  job.key = "cell/" + std::to_string(i);
  job.seed = derive_seed(99, job.key);
  job.run = [](const Job& self) {
    JobOutput out;
    out.metrics.avg_queue_pkts = static_cast<double>(self.seed % 1000);
    out.metrics.drops = self.seed % 7;
    out.events = self.seed ^ 0x5a5a;
    return out;
  };
  return job;
}

RunReport run(const std::vector<Job>& jobs, RunnerOptions opts) {
  opts.progress = false;
  opts.name = "resilience";
  return ExperimentRunner(opts).run(jobs);
}

TEST(Resilience, FailedCellLeavesSiblingsIdenticalAndReachesTheJournal) {
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(quick_job(i));
  jobs[2].run = [](const Job&) -> JobOutput {
    throw sim::StallError("no progress for 30 simulated seconds",
                          "event-queue depth: 3\n  flow 0: cwnd=2\n");
  };

  RunnerOptions opts;
  opts.threads = 4;
  const std::string journal_path =
      ::testing::TempDir() + "failed_cell.journal";
  std::remove(journal_path.c_str());
  opts.journal_path = journal_path;
  const RunReport rep = run(jobs, opts);

  EXPECT_EQ(rep.status, "partial");
  EXPECT_FALSE(rep.results[2].ok);
  EXPECT_EQ(rep.results[2].status, JobStatus::kFailed);
  EXPECT_NE(rep.results[2].error.find("no progress"), std::string::npos);
  EXPECT_NE(rep.results[2].diagnostics.find("cwnd=2"), std::string::npos);

  // Siblings byte-identical to a clean run of the same cells.
  std::vector<Job> clean;
  for (int i = 0; i < 5; ++i) clean.push_back(quick_job(i));
  const RunReport ref = run(clean, RunnerOptions{.threads = 1,
                                                 .progress = true,
                                                 .name = "experiments",
                                                 .journal_path = "",
                                                 .resume = false,
                                                 .shard = {}});
  for (int i : {0, 1, 3, 4}) {
    EXPECT_TRUE(rep.results[i].ok);
    EXPECT_EQ(rep.results[i].status, JobStatus::kOk);
    EXPECT_EQ(rep.results[i].metrics, ref.results[i].metrics) << i;
    EXPECT_EQ(rep.results[i].events, ref.results[i].events) << i;
  }

  // Every cell, the failed one included, is on disk and decodable.
  const JournalRecovery rec = recover_journal(journal_path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.records.size(), 5u);
  EXPECT_EQ(rec.quarantined, 0u);
  std::size_t ok_cells = 0;
  for (const JobResult& r : rec.records) {
    if (r.ok) {
      ++ok_cells;
    } else {
      EXPECT_EQ(r.key, jobs[2].key);
      EXPECT_EQ(r.status, JobStatus::kFailed);
      EXPECT_NE(r.diagnostics.find("cwnd=2"), std::string::npos);
    }
  }
  EXPECT_EQ(ok_cells, 4u);
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".quarantine").c_str());
}

TEST(Resilience, InvariantViolationCarriesDiagnostics) {
  std::vector<Job> jobs;
  jobs.push_back(quick_job(0));
  jobs.push_back(quick_job(1));
  jobs[0].run = [](const Job&) -> JobOutput {
    throw sim::InvariantViolation(
        "invariant 'queue-conservation' violated: link 0: 2 packets missing",
        "sim time: 12.5\n  link 0: len=-1\n");
  };
  const RunReport rep = run(jobs, RunnerOptions{.threads = 2,
                                                .progress = true,
                                                .name = "experiments",
                                                .journal_path = "",
                                                .resume = false,
                                                .shard = {}});
  EXPECT_EQ(rep.status, "partial");
  EXPECT_EQ(rep.results[0].status, JobStatus::kInvariantViolation);
  EXPECT_NE(rep.results[0].error.find("queue-conservation"),
            std::string::npos);
  EXPECT_NE(rep.results[0].diagnostics.find("len=-1"), std::string::npos);
  EXPECT_TRUE(rep.results[1].ok);
}

TEST(Resilience, StallErrorReportsFailedWithDiagnostics) {
  std::vector<Job> jobs;
  jobs.push_back(quick_job(0));
  jobs[0].run = [](const Job&) -> JobOutput {
    throw sim::StallError("no progress for 120 simulated seconds",
                          "event-queue depth: 7\n");
  };
  const RunReport rep = run(jobs, RunnerOptions{});
  EXPECT_EQ(rep.results[0].status, JobStatus::kFailed);
  EXPECT_NE(rep.results[0].diagnostics.find("event-queue depth"),
            std::string::npos);
}

TEST(Resilience, StatusJsonRoundTrip) {
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(quick_job(i));
  jobs[1].run = [](const Job&) -> JobOutput {
    throw sim::InvariantViolation("violated", "snapshot here\n");
  };
  RunnerOptions opts;
  opts.threads = 3;
  const RunReport rep = run(jobs, opts);
  ASSERT_EQ(rep.status, "partial");

  const std::string path = ::testing::TempDir() + "resilience_report.json";
  write_report(rep, path);
  const RunReport back = read_report(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.status, "partial");
  ASSERT_EQ(back.results.size(), 3u);
  EXPECT_EQ(back.results[1].status, JobStatus::kInvariantViolation);
  EXPECT_FALSE(back.results[1].ok);
  EXPECT_EQ(back.results[1].error, "violated");
  EXPECT_NE(back.results[1].diagnostics.find("snapshot"), std::string::npos);
  EXPECT_EQ(back.results[0].status, JobStatus::kOk);
  EXPECT_EQ(back.results[0].metrics, rep.results[0].metrics);
}

TEST(Resilience, JobStatusStringsRoundTrip) {
  for (JobStatus s :
       {JobStatus::kOk, JobStatus::kFailed, JobStatus::kInvariantViolation})
    EXPECT_EQ(job_status_from_string(to_string(s)), s);
  EXPECT_EQ(job_status_from_string("garbage"), JobStatus::kFailed);
}

}  // namespace
}  // namespace pert::runner
