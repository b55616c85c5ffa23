// ExperimentRunner semantics: submission-order results, error isolation, and
// the core determinism guarantee — the same job vector yields bit-identical
// WindowMetrics grids and identical derived seeds for 1, 2, and 8 worker
// threads.
#include "runner/runner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/dumbbell.h"
#include "runner/seed.h"

namespace pert::runner {
namespace {

std::vector<Job> synthetic_jobs(int n) {
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    Job job;
    job.key = "synthetic/" + std::to_string(i);
    job.seed = derive_seed(7, job.key);
    job.run = [](const Job& self) {
      JobOutput out;
      // A pure function of the job's own seed: any thread, same answer.
      out.metrics.avg_queue_pkts = static_cast<double>(self.seed % 1000);
      out.metrics.drops = self.seed / 3;
      out.events = self.seed ^ 0xabcdef;
      return out;
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

RunReport run_with_threads(const std::vector<Job>& jobs, unsigned threads) {
  RunnerOptions opts;
  opts.threads = threads;
  opts.progress = false;
  opts.name = "test";
  return ExperimentRunner(opts).run(jobs);
}

TEST(Runner, ResultsInSubmissionOrder) {
  const std::vector<Job> jobs = synthetic_jobs(17);
  const RunReport rep = run_with_threads(jobs, 4);
  ASSERT_EQ(rep.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(rep.results[i].key, jobs[i].key);
    EXPECT_EQ(rep.results[i].seed, jobs[i].seed);
    EXPECT_TRUE(rep.results[i].ok);
  }
}

TEST(Runner, IdenticalAcrossThreadCounts) {
  const std::vector<Job> jobs = synthetic_jobs(23);
  const RunReport r1 = run_with_threads(jobs, 1);
  const RunReport r2 = run_with_threads(jobs, 2);
  const RunReport r8 = run_with_threads(jobs, 8);
  ASSERT_EQ(r1.results.size(), r2.results.size());
  ASSERT_EQ(r1.results.size(), r8.results.size());
  for (std::size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(r1.results[i].metrics, r2.results[i].metrics);
    EXPECT_EQ(r1.results[i].metrics, r8.results[i].metrics);
    EXPECT_EQ(r1.results[i].seed, r2.results[i].seed);
    EXPECT_EQ(r1.results[i].seed, r8.results[i].seed);
    EXPECT_EQ(r1.results[i].events, r2.results[i].events);
    EXPECT_EQ(r1.results[i].events, r8.results[i].events);
  }
}

TEST(Runner, ThreadCountClampsAndResolves) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  // More workers than jobs: report says how many actually ran.
  const RunReport rep = run_with_threads(synthetic_jobs(2), 16);
  EXPECT_EQ(rep.threads, 2u);
}

TEST(Runner, ExceptionIsolatedToItsJob) {
  std::vector<Job> jobs = synthetic_jobs(3);
  jobs[1].run = [](const Job&) -> JobOutput {
    throw std::runtime_error("cell exploded");
  };
  const RunReport rep = run_with_threads(jobs, 2);
  EXPECT_TRUE(rep.results[0].ok);
  EXPECT_FALSE(rep.results[1].ok);
  EXPECT_EQ(rep.results[1].error, "cell exploded");
  EXPECT_TRUE(rep.results[2].ok);
}

TEST(Runner, EmptyBatch) {
  const RunReport rep = run_with_threads({}, 4);
  EXPECT_TRUE(rep.results.empty());
  EXPECT_EQ(rep.cpu_ms, 0.0);
}

TEST(Runner, TelemetryAccumulates) {
  const RunReport rep = run_with_threads(synthetic_jobs(5), 1);
  double sum = 0;
  for (const JobResult& r : rep.results) {
    EXPECT_GE(r.wall_ms, 0.0);
    sum += r.wall_ms;
  }
  EXPECT_DOUBLE_EQ(rep.cpu_ms, sum);
  EXPECT_GE(rep.wall_ms, 0.0);
}

// The guarantee end to end: a real (tiny) dumbbell sweep grid — every cell
// its own Scheduler, topology, and derived RNG stream — is bit-identical
// however many workers execute it.
TEST(Runner, DumbbellGridIdenticalFor1And2And8Threads) {
  const std::vector<double> flow_counts = {2, 4};
  const std::vector<exp::SchemeSpec> schemes =
      exp::parse_scheme_list("pert,sack");
  std::vector<Job> jobs;
  for (double n : flow_counts) {
    for (const exp::SchemeSpec& s : schemes) {
      exp::DumbbellConfig cfg;
      cfg.scheme = s;
      cfg.bottleneck_bps = 10e6;
      cfg.rtt = 0.040;
      cfg.num_fwd_flows = static_cast<std::int32_t>(n);
      cfg.start_window = 1.0;
      Job job;
      job.key = "grid/flows=" + std::to_string(static_cast<int>(n)) + "/" +
                s.display;
      job.seed = derive_seed(cfg.seed, job.key);
      cfg.seed = job.seed;
      job.run = [cfg](const Job&) {
        exp::Dumbbell d(cfg);
        JobOutput out;
        out.metrics = d.measure_window(2.0, 4.0);
        out.events = d.network().sched().dispatched();
        return out;
      };
      jobs.push_back(std::move(job));
    }
  }

  const RunReport r1 = run_with_threads(jobs, 1);
  const RunReport r2 = run_with_threads(jobs, 2);
  const RunReport r8 = run_with_threads(jobs, 8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(r1.results[i].ok) << r1.results[i].error;
    EXPECT_EQ(r1.results[i].metrics, r2.results[i].metrics) << jobs[i].key;
    EXPECT_EQ(r1.results[i].metrics, r8.results[i].metrics) << jobs[i].key;
    EXPECT_EQ(r1.results[i].events, r2.results[i].events) << jobs[i].key;
    EXPECT_EQ(r1.results[i].events, r8.results[i].events) << jobs[i].key;
    EXPECT_EQ(r1.results[i].seed, r2.results[i].seed);
    EXPECT_EQ(r1.results[i].seed, r8.results[i].seed);
    // The sim actually ran: a non-trivial event count.
    EXPECT_GT(r1.results[i].events, 1000u) << jobs[i].key;
  }
}

}  // namespace
}  // namespace pert::runner
