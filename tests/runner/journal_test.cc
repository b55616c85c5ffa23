// Journal framing + recovery: every crash shape the journal is designed to
// survive is simulated here byte-for-byte — torn tail, flipped byte
// mid-record, duplicate cells — plus the identity checks (header pinning)
// and the compaction rewrite that recovery performs.
#include "runner/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/report.h"
#include "runner/runner.h"
#include "runner/seed.h"

namespace pert::runner {
namespace {

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

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

/// Temp path helper that also cleans up the quarantine sidecar.
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

JobResult make_result(int i, JobStatus status = JobStatus::kOk) {
  JobResult r;
  r.key = "cell/" + std::to_string(i);
  r.seed = derive_seed(7, r.key);
  r.metrics.avg_queue_pkts = 10.0 + i;
  r.metrics.utilization = 0.9;
  r.events = 1000u + static_cast<std::uint64_t>(i);
  r.status = status;
  r.ok = status == JobStatus::kOk;
  if (!r.ok) r.error = "synthetic failure";
  return r;
}

std::vector<Job> make_jobs(int n, const std::string& prefix = "cell/") {
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    Job j;
    j.key = prefix + std::to_string(i);
    j.seed = derive_seed(7, j.key);
    j.run = [](const Job&) { return JobOutput{}; };
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(Journal, FreshAppendRecoverRoundTrip) {
  TempJournal tj("journal_roundtrip.journal");
  const auto jobs = make_jobs(3);
  const JournalHeader header = journal_header("rt", jobs);
  {
    Journal j = Journal::start_fresh(tj.path, header);
    for (int i = 0; i < 3; ++i) j.append(make_result(i));
    EXPECT_EQ(j.appended(), 3u);
  }
  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.header, header);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.quarantined, 0u);
  EXPECT_EQ(rec.duplicates, 0u);
  for (int i = 0; i < 3; ++i) {
    const JobResult ref = make_result(i);
    EXPECT_EQ(rec.records[i].key, ref.key);
    EXPECT_EQ(rec.records[i].seed, ref.seed);
    EXPECT_EQ(rec.records[i].metrics, ref.metrics);
    EXPECT_EQ(rec.records[i].events, ref.events);
    EXPECT_EQ(rec.records[i].status, JobStatus::kOk);
  }
  EXPECT_FALSE(file_exists(tj.path + ".quarantine"));
}

TEST(Journal, MissingFileIsUnusableNotError) {
  const JournalRecovery rec =
      recover_journal(::testing::TempDir() + "does_not_exist.journal");
  EXPECT_FALSE(rec.usable);
  EXPECT_TRUE(rec.records.empty());
}

TEST(Journal, TruncatedLastRecordQuarantined) {
  TempJournal tj("journal_torn.journal");
  const auto jobs = make_jobs(3);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("torn", jobs));
    for (int i = 0; i < 3; ++i) j.append(make_result(i));
  }
  // Simulate SIGKILL mid-write: chop the final record in half (no '\n').
  const std::string full = slurp(tj.path);
  ASSERT_GT(full.size(), 40u);
  spew(tj.path, full.substr(0, full.size() - 25));

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.quarantined, 1u);
  EXPECT_EQ(rec.records[0].key, "cell/0");
  EXPECT_EQ(rec.records[1].key, "cell/1");
  // The torn bytes landed in the quarantine sidecar for forensics.
  EXPECT_TRUE(file_exists(tj.path + ".quarantine"));
  // Compaction rewrote the journal clean: recovering again quarantines
  // nothing and yields the same records.
  const JournalRecovery again = recover_journal(tj.path);
  ASSERT_TRUE(again.usable);
  EXPECT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.quarantined, 0u);
}

TEST(Journal, UnterminatedTailQuarantinedEvenIfChecksumValid) {
  // A record missing only its trailing '\n' is indistinguishable from a
  // write that was cut between payload and newline; it must not be trusted.
  TempJournal tj("journal_no_newline.journal");
  const auto jobs = make_jobs(2);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("nn", jobs));
    j.append(make_result(0));
    j.append(make_result(1));
  }
  std::string full = slurp(tj.path);
  ASSERT_EQ(full.back(), '\n');
  full.pop_back();
  spew(tj.path, full);

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.quarantined, 1u);
}

TEST(Journal, FlippedByteMidRecordQuarantined) {
  TempJournal tj("journal_bitflip.journal");
  const auto jobs = make_jobs(3);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("flip", jobs));
    for (int i = 0; i < 3; ++i) j.append(make_result(i));
  }
  std::string full = slurp(tj.path);
  // Locate the second record line and corrupt one payload byte.
  std::size_t line_start = 0;
  for (int line = 0; line < 2; ++line)
    line_start = full.find('\n', line_start) + 1;
  const std::size_t line_end = full.find('\n', line_start);
  const std::size_t mid = line_start + (line_end - line_start) / 2;
  full[mid] = static_cast<char>(full[mid] ^ 0x10);
  spew(tj.path, full);

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  // Record 1 (the corrupted one) is gone; 0 and 2 survive.
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.quarantined, 1u);
  EXPECT_EQ(rec.records[0].key, "cell/0");
  EXPECT_EQ(rec.records[1].key, "cell/2");
}

TEST(Journal, DuplicateCellsResolveLastWriterWins) {
  TempJournal tj("journal_dup.journal");
  const auto jobs = make_jobs(2);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("dup", jobs));
    j.append(make_result(0, JobStatus::kFailed));  // first attempt failed
    j.append(make_result(1));
    j.append(make_result(0));  // re-run on resume succeeded
  }
  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.raw_records, 3u);
  EXPECT_EQ(rec.duplicates, 1u);
  ASSERT_EQ(rec.records.size(), 2u);
  // The surviving cell/0 is the later, successful record.
  const JobResult* cell0 = nullptr;
  for (const JobResult& r : rec.records)
    if (r.key == "cell/0") cell0 = &r;
  ASSERT_NE(cell0, nullptr);
  EXPECT_EQ(cell0->status, JobStatus::kOk);
  EXPECT_TRUE(cell0->ok);
  // Compaction dropped the superseded record from the file itself.
  const JournalRecovery again = recover_journal(tj.path);
  EXPECT_EQ(again.raw_records, 2u);
  EXPECT_EQ(again.duplicates, 0u);
}

TEST(Journal, CorruptHeaderMakesJournalUnusable) {
  TempJournal tj("journal_badheader.journal");
  const auto jobs = make_jobs(2);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("bh", jobs));
    j.append(make_result(0));
  }
  std::string full = slurp(tj.path);
  full[10] = static_cast<char>(full[10] ^ 0x01);  // corrupt the header line
  spew(tj.path, full);
  const JournalRecovery rec = recover_journal(tj.path);
  EXPECT_FALSE(rec.usable);
}

TEST(Journal, UnparseableHeaderMakesJournalUnusable) {
  TempJournal tj("journal_unparseable_header.journal");
  // A checksummed header line whose JSON does not parse is as untrustworthy
  // as a corrupt one: quarantined, and a --resume starts fresh.
  spew(tj.path, journal_frame('H', "{\"journal\":") +
                    journal_frame('R', to_json(make_result(0)).dump()));
  const JournalRecovery rec = recover_journal(tj.path);
  EXPECT_FALSE(rec.usable);
  EXPECT_EQ(rec.quarantined, 1u);

  RunnerOptions opts;
  opts.name = "uh";
  opts.progress = false;
  opts.journal_path = tj.path;
  opts.resume = true;
  const RunReport rep = ExperimentRunner(opts).run(make_jobs(2));
  EXPECT_EQ(rep.resumed, 0u);
  EXPECT_EQ(rep.status, "ok");
  EXPECT_TRUE(recover_journal(tj.path).usable);
}

TEST(Journal, DeeplyNestedRecordQuarantinedOthersRecovered) {
  TempJournal tj("journal_deep.journal");
  const auto jobs = make_jobs(3);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("deep", jobs));
    j.append(make_result(0));
    j.append(make_result(2));
  }
  // A checksummed record nested far past JsonValue::kMaxDepth, between two
  // good ones.
  std::string full = slurp(tj.path);
  const std::size_t second = full.find('\n', full.find('\n') + 1) + 1;
  full.insert(second, journal_frame('R', std::string(300000, '[') +
                                             std::string(300000, ']')));
  spew(tj.path, full);

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.quarantined, 1u);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].key, "cell/0");
  EXPECT_EQ(rec.records[1].key, "cell/2");
}

TEST(Journal, HeaderPinsNameJobCountAndGrid) {
  const auto jobs = make_jobs(3);
  const JournalHeader base = journal_header("sweep", jobs);
  EXPECT_NE(base, journal_header("other", jobs));
  EXPECT_NE(base, journal_header("sweep", make_jobs(2)));
  EXPECT_NE(base, journal_header("sweep", make_jobs(3, "renamed/")));
  // Same name/count but different seeds => different grid hash.
  auto reseeded = make_jobs(3);
  reseeded[1].seed ^= 1;
  EXPECT_NE(base, journal_header("sweep", reseeded));
  EXPECT_EQ(base, journal_header("sweep", make_jobs(3)));
}

TEST(Journal, ResumingDifferentSweepThrows) {
  TempJournal tj("journal_mismatch.journal");
  const auto jobs = make_jobs(3);
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("mm", jobs));
    j.append(make_result(0));
  }
  auto other = make_jobs(4);
  for (Job& j : other)
    j.run = [](const Job&) { return JobOutput{}; };
  RunnerOptions opts;
  opts.name = "mm";
  opts.progress = false;
  opts.journal_path = tj.path;
  opts.resume = true;
  EXPECT_THROW(ExperimentRunner(opts).run(other), std::runtime_error);
}

TEST(Journal, FrameRejectsGarbageLines) {
  TempJournal tj("journal_garbage.journal");
  const auto jobs = make_jobs(2);
  std::string contents;
  {
    Journal j = Journal::start_fresh(tj.path, journal_header("gl", jobs));
    j.append(make_result(0));
  }
  contents = slurp(tj.path);
  contents += "not a journal line at all\n";
  contents += journal_frame('X', "{\"key\":\"cell/9\"}");  // unknown type
  contents += journal_frame('R', "{\"key\":\"\"}");        // empty key
  contents += journal_frame('R', "{broken json");         // CRC ok, JSON bad
  spew(tj.path, contents);

  const JournalRecovery rec = recover_journal(tj.path);
  ASSERT_TRUE(rec.usable);
  EXPECT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.quarantined, 4u);
}

TEST(Journal, AtomicWriteFileReplacesContents) {
  const std::string path = ::testing::TempDir() + "atomic_write_test.json";
  atomic_write_file(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  atomic_write_file(path, "second\n");
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pert::runner
