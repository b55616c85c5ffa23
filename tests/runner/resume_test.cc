// Kill-resume equivalence: a journaled sweep interrupted at an arbitrary
// point (simulated by truncating the journal to a prefix, exactly what a
// SIGKILL leaves behind) and resumed produces a report byte-identical to an
// uninterrupted run — at any thread count — re-executing only the missing
// cells. The CI job check_resume.sh performs the same check with a real
// SIGKILL against the pert_sim binary; these tests pin the mechanism
// deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "runner/journal.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/seed.h"

namespace pert::runner {
namespace {

constexpr int kCells = 12;

/// Execution log shared by all jobs of one sweep: which keys actually ran.
struct ExecLog {
  std::mutex mu;
  std::map<std::string, int> runs;
  void record(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu);
    ++runs[key];
  }
};

std::vector<Job> make_jobs(std::shared_ptr<ExecLog> log) {
  std::vector<Job> jobs;
  for (int i = 0; i < kCells; ++i) {
    Job j;
    j.key = "cell/" + std::to_string(i);
    j.seed = derive_seed(1234, j.key);
    j.run = [log](const Job& self) {
      if (log) log->record(self.key);
      JobOutput out;
      out.metrics.avg_queue_pkts = static_cast<double>(self.seed % 997);
      out.metrics.utilization = 0.5 + static_cast<double>(self.seed % 50) / 100.0;
      out.metrics.drops = self.seed % 13;
      out.events = self.seed ^ 0xfeed;
      return out;
    };
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Serializes a report with the wall-clock-dependent fields stripped — the
/// same normalization the CI determinism jobs apply with grep.
std::string stable_dump(const RunReport& rep) {
  std::istringstream in(to_json(rep).dump(2));
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"wall_ms\"") != std::string::npos) continue;
    if (line.find("\"cpu_ms\"") != std::string::npos) continue;
    if (line.find("\"speedup\"") != std::string::npos) continue;
    if (line.find("\"threads\"") != std::string::npos) continue;
    out << line << '\n';
  }
  return out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spew(const std::string& path, const std::string& contents) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << contents;
}

/// Truncates the journal to its header + the first `keep` records, then adds
/// `torn` trailing garbage bytes (a partial record, as a crash would leave).
void crash_journal_at(const std::string& path, std::size_t keep, bool torn) {
  const std::string full = slurp(path);
  std::size_t pos = 0;
  for (std::size_t line = 0; line < keep + 1; ++line)  // +1 for the header
    pos = full.find('\n', pos) + 1;
  std::string cut = full.substr(0, pos);
  if (torn) cut += full.substr(pos, 23);  // partial next record, no newline
  spew(path, cut);
}

struct TempJournal {
  std::string path;
  explicit TempJournal(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
  }
  ~TempJournal() {
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
  }
};

RunnerOptions base_opts(unsigned threads) {
  RunnerOptions opts;
  opts.name = "resume-eq";
  opts.progress = false;
  opts.threads = threads;
  return opts;
}

/// Replaces `from` with `to` in the journaled record of `key` and re-frames
/// it with a valid checksum, as a build that wrote that payload would have.
void edit_record(const std::string& path, const std::string& key,
                 const std::string& from, const std::string& to) {
  std::istringstream in(slurp(path));
  std::ostringstream out;
  std::string line;
  std::getline(in, line);
  out << line << '\n';  // header untouched
  bool edited = false;
  while (std::getline(in, line)) {
    std::string body = line.substr(line.find('{'));
    const std::size_t at = body.find(from);
    if (body.find("\"key\":\"" + key + "\"") == std::string::npos ||
        at == std::string::npos) {
      out << line << '\n';
      continue;
    }
    out << journal_frame('R', body.replace(at, from.size(), to));
    edited = true;
  }
  ASSERT_TRUE(edited) << key;
  spew(path, out.str());
}

const JobResult* find_record(const JournalRecovery& rec,
                             const std::string& key) {
  for (const JobResult& r : rec.records)
    if (r.key == key) return &r;
  return nullptr;
}

class ResumeEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ResumeEquivalence, CrashedSweepResumesByteIdentical) {
  const unsigned threads = GetParam();
  TempJournal tj("resume_eq_" + std::to_string(threads) + ".journal");

  // Reference: uninterrupted, journal-free, single-threaded run.
  const RunReport ref =
      ExperimentRunner(base_opts(1)).run(make_jobs(nullptr));

  // Full journaled run, then "crash" it halfway with a torn tail.
  RunnerOptions opts = base_opts(threads);
  opts.journal_path = tj.path;
  ExperimentRunner(opts).run(make_jobs(nullptr));
  const std::size_t kept = kCells / 2;
  crash_journal_at(tj.path, kept, /*torn=*/true);

  // Resume: only the missing cells may execute.
  auto log = std::make_shared<ExecLog>();
  opts.resume = true;
  const RunReport resumed = ExperimentRunner(opts).run(make_jobs(log));

  EXPECT_EQ(resumed.resumed, kept);
  EXPECT_EQ(log->runs.size(), kCells - kept)
      << "resume re-executed an already-journaled cell";
  for (const auto& [key, n] : log->runs) EXPECT_EQ(n, 1) << key;

  ASSERT_EQ(resumed.results.size(), ref.results.size());
  EXPECT_EQ(stable_dump(resumed), stable_dump(ref)) << "threads=" << threads;

  // After resume the journal holds exactly one record per cell.
  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.records.size(), static_cast<std::size_t>(kCells));
}

INSTANTIATE_TEST_SUITE_P(Threads, ResumeEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Resume, FreshRunWritesOneRecordPerCell) {
  TempJournal tj("resume_fresh.journal");
  RunnerOptions opts = base_opts(4);
  opts.journal_path = tj.path;
  const RunReport rep = ExperimentRunner(opts).run(make_jobs(nullptr));
  EXPECT_EQ(rep.resumed, 0u);
  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.records.size(), static_cast<std::size_t>(kCells));
  EXPECT_EQ(rec.duplicates, 0u);
  EXPECT_EQ(rec.quarantined, 0u);
}

TEST(Resume, ResumeOfCompleteJournalRunsNothing) {
  TempJournal tj("resume_complete.journal");
  RunnerOptions opts = base_opts(4);
  opts.journal_path = tj.path;
  const RunReport first = ExperimentRunner(opts).run(make_jobs(nullptr));

  auto log = std::make_shared<ExecLog>();
  opts.resume = true;
  const RunReport second = ExperimentRunner(opts).run(make_jobs(log));
  EXPECT_EQ(second.resumed, static_cast<std::size_t>(kCells));
  EXPECT_TRUE(log->runs.empty());
  EXPECT_EQ(stable_dump(second), stable_dump(first));
}

TEST(Resume, FailedCellsReRunOnResume) {
  TempJournal tj("resume_failed.journal");

  // First pass: cell/5 fails.
  auto jobs = make_jobs(nullptr);
  jobs[5].run = [](const Job&) -> JobOutput {
    throw std::runtime_error("flaky dependency");
  };
  RunnerOptions opts = base_opts(2);
  opts.journal_path = tj.path;
  const RunReport first = ExperimentRunner(opts).run(jobs);
  EXPECT_EQ(first.status, "partial");

  // Resume with the failure fixed: only cell/5 re-runs, and the final
  // report matches a clean run exactly.
  auto log = std::make_shared<ExecLog>();
  opts.resume = true;
  const RunReport second = ExperimentRunner(opts).run(make_jobs(log));
  EXPECT_EQ(second.resumed, static_cast<std::size_t>(kCells - 1));
  ASSERT_EQ(log->runs.size(), 1u);
  EXPECT_EQ(log->runs.begin()->first, "cell/5");
  EXPECT_EQ(second.status, "ok");

  const RunReport ref = ExperimentRunner(base_opts(1)).run(make_jobs(nullptr));
  EXPECT_EQ(stable_dump(second), stable_dump(ref));

  // The journal now carries a duplicate for cell/5 (failed then ok); the
  // next recovery resolves it last-writer-wins and compacts.
  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.duplicates, 1u);
  EXPECT_EQ(rec.records.size(), static_cast<std::size_t>(kCells));
}

TEST(Resume, ResumeWithoutJournalFileStartsFresh) {
  TempJournal tj("resume_nofile.journal");
  RunnerOptions opts = base_opts(2);
  opts.journal_path = tj.path;
  opts.resume = true;  // nothing to resume from: equivalent to a fresh run
  auto log = std::make_shared<ExecLog>();
  const RunReport rep = ExperimentRunner(opts).run(make_jobs(log));
  EXPECT_EQ(rep.resumed, 0u);
  EXPECT_EQ(log->runs.size(), static_cast<std::size_t>(kCells));
  EXPECT_EQ(rep.status, "ok");
}

TEST(Resume, StaleSeedCellsReRun) {
  TempJournal tj("resume_staleseed.journal");
  RunnerOptions opts = base_opts(2);
  opts.journal_path = tj.path;
  ExperimentRunner(opts).run(make_jobs(nullptr));

  // Tamper: rewrite one journaled record with a different seed. The header
  // grid hash must be preserved, so patch the record only.
  JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  std::string contents = slurp(tj.path);
  std::istringstream in(contents);
  std::ostringstream out;
  std::string line;
  std::getline(in, line);
  out << line << '\n';  // header untouched
  bool patched = false;
  while (std::getline(in, line)) {
    const std::size_t payload = line.find('{');
    ASSERT_NE(payload, std::string::npos);
    std::string body = line.substr(payload);
    if (!patched && body.find("\"cell/3\"") != std::string::npos) {
      JobResult r = result_from_json(JsonValue::parse(body));
      r.seed ^= 1;
      out << journal_frame('R', to_json(r).dump());
      patched = true;
    } else {
      out << line << '\n';
    }
  }
  ASSERT_TRUE(patched);
  spew(tj.path, out.str());

  auto log = std::make_shared<ExecLog>();
  opts.resume = true;
  const RunReport rep = ExperimentRunner(opts).run(make_jobs(log));
  EXPECT_EQ(rep.resumed, static_cast<std::size_t>(kCells - 1));
  ASSERT_EQ(log->runs.size(), 1u);
  EXPECT_EQ(log->runs.begin()->first, "cell/3");
  const RunReport ref = ExperimentRunner(base_opts(1)).run(make_jobs(nullptr));
  EXPECT_EQ(stable_dump(rep), stable_dump(ref));
}

TEST(Resume, RetiredTimeoutStatusDecodesAsFailedAndReRuns) {
  // Journals from builds with a wall-clock job timeout can hold
  // "status":"timeout" and an "attempts" count. Such a record decodes as a
  // failed cell, so resume re-runs it.
  TempJournal tj("resume_timeout.journal");
  RunnerOptions opts = base_opts(2);
  opts.journal_path = tj.path;
  ExperimentRunner(opts).run(make_jobs(nullptr));
  edit_record(tj.path, "cell/4", R"("ok":true,"status":"ok")",
              R"("ok":false,"status":"timeout","attempts":2,)"
              R"("error":"wall-clock timeout exceeded")");

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.quarantined, 0u);
  const JobResult* timed_out = find_record(rec, "cell/4");
  ASSERT_NE(timed_out, nullptr);
  EXPECT_EQ(timed_out->status, JobStatus::kFailed);
  EXPECT_FALSE(timed_out->ok);
  EXPECT_EQ(timed_out->error, "wall-clock timeout exceeded");

  auto log = std::make_shared<ExecLog>();
  opts.resume = true;
  const RunReport rep = ExperimentRunner(opts).run(make_jobs(log));
  EXPECT_EQ(rep.resumed, static_cast<std::size_t>(kCells - 1));
  ASSERT_EQ(log->runs.size(), 1u);
  EXPECT_EQ(log->runs.begin()->first, "cell/4");
  const RunReport ref = ExperimentRunner(base_opts(1)).run(make_jobs(nullptr));
  EXPECT_EQ(stable_dump(rep), stable_dump(ref));
}

TEST(Resume, StatusAloneDecidesWhichRecordsAreDone) {
  TempJournal tj("resume_ok_status.journal");
  RunnerOptions opts = base_opts(2);
  opts.journal_path = tj.path;
  ExperimentRunner(opts).run(make_jobs(nullptr));
  edit_record(tj.path, "cell/3", R"("ok":true)", R"("ok":false)");
  edit_record(tj.path, "cell/7", R"("status":"ok")", R"("status":"failed")");

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  const JobResult* done = find_record(rec, "cell/3");
  const JobResult* failed = find_record(rec, "cell/7");
  ASSERT_NE(done, nullptr);
  ASSERT_NE(failed, nullptr);
  EXPECT_TRUE(done->ok);
  EXPECT_EQ(done->status, JobStatus::kOk);
  EXPECT_FALSE(failed->ok);
  EXPECT_EQ(failed->status, JobStatus::kFailed);

  // cell/3 counts as done; cell/7 re-runs; the report matches a clean run.
  auto log = std::make_shared<ExecLog>();
  opts.resume = true;
  const RunReport rep = ExperimentRunner(opts).run(make_jobs(log));
  EXPECT_EQ(rep.resumed, static_cast<std::size_t>(kCells - 1));
  ASSERT_EQ(log->runs.size(), 1u);
  EXPECT_EQ(log->runs.begin()->first, "cell/7");
  const RunReport ref = ExperimentRunner(base_opts(1)).run(make_jobs(nullptr));
  EXPECT_EQ(stable_dump(rep), stable_dump(ref));
}

}  // namespace
}  // namespace pert::runner
