// Merge-tool failure modes: every way a set of shard inputs can be wrong —
// overlapping cells, missing shards, mismatched grids, torn journals —
// resolves to a documented error or a status:"partial" report, never a
// silently bad merge.
#include "runner/merge.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/journal.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/shard.h"
#include "synth_jobs.h"

namespace pert::runner {
namespace {

using testutil::synth_jobs;

/// Runs shard k/n of the synthetic grid; returns the written report path.
std::string shard_report(const std::vector<Job>& jobs,
                         std::uint32_t k, std::uint32_t n,
                         const std::string& tag) {
  RunnerOptions o;
  o.threads = 1;
  o.progress = false;
  o.name = "merge_test";
  o.shard = ShardSpec{k, n};
  const RunReport rep = ExperimentRunner(o).run(jobs);
  const std::string path =
      ::testing::TempDir() + "merge_" + tag + ".json";
  write_report(rep, path);
  return path;
}

/// Same slice, journal carrier.
std::string shard_journal(const std::vector<Job>& jobs,
                          std::uint32_t k, std::uint32_t n,
                          const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "merge_" + tag + ".journal";
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
  RunnerOptions o;
  o.threads = 1;
  o.progress = false;
  o.name = "merge_test";
  o.shard = ShardSpec{k, n};
  o.journal_path = path;
  ExperimentRunner(o).run(jobs);
  return path;
}

TEST(Merge, JournalsAndReportsAreInterchangeableCarriers) {
  const auto jobs = synth_jobs(7);
  const std::string r0 = shard_report(jobs, 0, 2, "carrier0");
  const std::string j1 = shard_journal(jobs, 1, 2, "carrier1");
  const MergeOutcome m = merge_shards({r0, j1});
  EXPECT_TRUE(m.complete());
  EXPECT_EQ(m.report.results.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(m.report.results[i].cell, i);  // full-grid submission order
  std::remove(r0.c_str());
  std::remove(j1.c_str());
}

TEST(Merge, OverlappingCellsAreAHardError) {
  const auto jobs = synth_jobs(6);
  const std::string r0 = shard_report(jobs, 0, 2, "overlap0");
  const std::string r1 = shard_report(jobs, 1, 2, "overlap1");

  // Relabel shard 0's report as shard 1: its cells now violate the claimed
  // partition, which is exactly what a mislabeled upload looks like.
  RunReport rep = read_report(r0);
  rep.shard.index = 1;
  const std::string forged = ::testing::TempDir() + "merge_forged.json";
  write_report(rep, forged);

  try {
    merge_shards({forged, r1});
    FAIL() << "mislabeled shard must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos)
        << e.what();
  }
  for (const auto& p : {r0, r1, forged}) std::remove(p.c_str());
}

TEST(Merge, MissingShardIsAnErrorOrPartialWithFlag) {
  const auto jobs = synth_jobs(6);
  const std::string r0 = shard_report(jobs, 0, 3, "missing0");
  const std::string r2 = shard_report(jobs, 2, 3, "missing2");

  try {
    merge_shards({r0, r2});
    FAIL() << "missing shard must not merge silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing cells"), std::string::npos)
        << e.what();
  }

  MergeOptions allow;
  allow.allow_partial = true;
  const MergeOutcome m = merge_shards({r0, r2}, allow);
  EXPECT_FALSE(m.complete());
  EXPECT_EQ(m.missing, 2u);  // cells 1 and 4 belong to the absent shard 1/3
  EXPECT_EQ(m.report.status, "partial");
  EXPECT_EQ(m.report.results.size(), 4u);
  std::remove(r0.c_str());
  std::remove(r2.c_str());
}

TEST(Merge, GridHashMismatchIsAHardError) {
  // Same shape and names, different base seed: every cell's seed differs,
  // so the shard-independent grid hash differs and the merge must refuse.
  const auto jobs_a = synth_jobs(6, 7);
  const auto jobs_b = synth_jobs(6, 8);
  const std::string a0 = shard_report(jobs_a, 0, 2, "grid_a0");
  const std::string b1 = shard_report(jobs_b, 1, 2, "grid_b1");
  try {
    merge_shards({a0, b1});
    FAIL() << "different grids must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("grid hash mismatch"),
              std::string::npos)
        << e.what();
  }
  std::remove(a0.c_str());
  std::remove(b1.c_str());
}

TEST(Merge, ShardCountMismatchIsAHardError) {
  const auto jobs = synth_jobs(6);
  const std::string a = shard_report(jobs, 0, 2, "count_a");
  const std::string b = shard_report(jobs, 0, 3, "count_b");
  EXPECT_THROW(merge_shards({a, b}), std::runtime_error);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Merge, TornJournalDegradesToDocumentedPartial) {
  const auto jobs = synth_jobs(6);
  const std::string j0 = shard_journal(jobs, 0, 2, "torn0");
  const std::string r1 = shard_report(jobs, 1, 2, "torn1");

  // Tear the journal mid-record, as a crash during append would.
  std::string bytes;
  {
    std::ifstream f(j0, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 20u);
  {
    std::ofstream f(j0, std::ios::binary | std::ios::trunc);
    f << bytes.substr(0, bytes.size() - 15);
  }

  // The torn record quarantines during recovery, so cells go missing:
  // hard error without --partial, status:"partial" with it.
  EXPECT_THROW(merge_shards({j0, r1}), std::runtime_error);
  MergeOptions allow;
  allow.allow_partial = true;
  const MergeOutcome m = merge_shards({j0, r1}, allow);
  EXPECT_FALSE(m.complete());
  EXPECT_EQ(m.report.status, "partial");
  EXPECT_GE(m.missing, 1u);
  std::remove(j0.c_str());
  std::remove((j0 + ".quarantine").c_str());
  std::remove(r1.c_str());
}

TEST(Merge, DuplicateInputsResolveLastWriterWins) {
  const auto jobs = synth_jobs(4);
  const std::string r0 = shard_report(jobs, 0, 2, "dup0");
  const std::string r1 = shard_report(jobs, 1, 2, "dup1");
  const MergeOutcome m = merge_shards({r0, r0, r1});
  EXPECT_TRUE(m.complete());
  EXPECT_EQ(m.superseded, 2u);  // shard 0's two cells supplied twice
  EXPECT_EQ(m.report.results.size(), 4u);
  std::remove(r0.c_str());
  std::remove(r1.c_str());
}

/// Copies the report at `path` with its "shard" block's `field` set to
/// `value`, as a hand-edited or corrupted upload would carry it.
std::string forge_report_shard(const std::string& path, const char* field,
                               std::uint64_t value, const std::string& tag) {
  JsonValue doc = to_json(read_report(path));
  for (auto& [key, block] : doc.as_object())
    if (key == "shard")
      for (auto& [name, v] : block.as_object())
        if (name == field) v = JsonValue(value);
  const std::string forged = ::testing::TempDir() + "merge_" + tag + ".json";
  atomic_write_file(forged, doc.dump(2) + "\n");
  return forged;
}

TEST(Merge, RejectsImpossibleShardSpecs) {
  const auto jobs = synth_jobs(4);
  const std::string r1 = shard_report(jobs, 1, 2, "spec1");
  // Even a partial merge, which tolerates missing shards, must refuse an
  // input whose shard spec cannot exist.
  MergeOptions allow;
  allow.allow_partial = true;

  // A zero count, a count past 32 bits and an index past the count are
  // each rejected where the report is read, naming the spec.
  const struct {
    const char* field;
    std::uint64_t value;
  } forgeries[] = {{"count", 0}, {"count", 4294967298ULL}, {"index", 7}};
  for (const auto& f : forgeries) {
    const std::string forged = forge_report_shard(
        r1, f.field, f.value, std::string("spec_") + f.field);
    try {
      merge_shards({forged}, allow);
      FAIL() << f.field << "=" << f.value << " must not merge";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("bad shard spec"),
                std::string::npos)
          << f.field << "=" << f.value << ": " << e.what();
    }
    std::remove(forged.c_str());
  }

  // A journal header with a zero shard count, correctly checksummed, is an
  // undecodable header: the journal cannot say which shard it records.
  const std::string j1 = shard_journal(jobs, 1, 2, "spec_j1");
  std::string bytes;
  {
    std::ifstream f(j1, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  const std::size_t eol = bytes.find('\n');
  ASSERT_NE(eol, std::string::npos);
  // "PERTJ1 H <crc32-hex8> <header-json>"
  JsonValue header = JsonValue::parse(bytes.substr(18, eol - 18));
  for (auto& [key, v] : header.as_object())
    if (key == "shard_count") v = JsonValue(std::uint64_t{0});
  atomic_write_file(j1, journal_frame('H', header.dump()) +
                            bytes.substr(eol + 1));
  try {
    merge_shards({j1}, allow);
    FAIL() << "a journal claiming zero shards must not merge";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("no decodable header"),
              std::string::npos)
        << e.what();
  }
  for (const auto& p : {r1, j1, j1 + ".quarantine"})
    std::remove(p.c_str());
}

TEST(Merge, RejectsUnreadableAndHeaderlessInputs) {
  EXPECT_THROW(merge_shards({"/nonexistent/path.json"}), std::runtime_error);
  EXPECT_THROW(merge_shards({}), std::runtime_error);

  // A journal whose header line is corrupt has no trustworthy identity.
  const std::string path = ::testing::TempDir() + "merge_headerless.journal";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "PERTJ1 H deadbeef {\"not\": \"a header\"\n";
  }
  EXPECT_THROW(merge_shards({path}), std::runtime_error);
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

}  // namespace
}  // namespace pert::runner
