// Shard spec semantics and the core distribution guarantee: for any shard
// count, the shards are pairwise disjoint, jointly exhaustive, and the union
// of their results is byte-identical to the unsharded run — same seeds, same
// metrics, same registries, same serialized report.
#include "runner/shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/journal.h"
#include "runner/merge.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "synth_jobs.h"

namespace pert::runner {
namespace {

using testutil::strip_volatile;
using testutil::synth_jobs;

TEST(ShardSpec, ParsesKOverN) {
  const ShardSpec s = parse_shard("2/8");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 8u);
  EXPECT_TRUE(s.active());
  EXPECT_EQ(s.to_string(), "2/8");

  const ShardSpec whole = parse_shard("0/1");
  EXPECT_FALSE(whole.active());
  EXPECT_EQ(whole, ShardSpec{});
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "/", "1", "3/3", "4/3", "-1/2", "a/b", "1/0", "0/", "/2",
        "1/2/3", "1 /2", "99999999999999999999/3"}) {
    EXPECT_THROW(parse_shard(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardSpec, CheckedConstructorRejectsImpossibleSpecs) {
  EXPECT_EQ(ShardSpec(3, 4).to_string(), "3/4");
  EXPECT_EQ(ShardSpec(0, 0xffffffffULL).count, 0xffffffffu);
  EXPECT_THROW(ShardSpec(0, 0), std::invalid_argument);
  EXPECT_THROW(ShardSpec(2, 2), std::invalid_argument);
  EXPECT_THROW(ShardSpec(1, 0x100000002ULL), std::invalid_argument);

  // The runner checks the spec it is handed, whatever wrote its fields.
  RunnerOptions o;
  o.progress = false;
  o.shard.count = 0;
  EXPECT_THROW(ExperimentRunner(o).run(synth_jobs(2)), std::invalid_argument);
}

TEST(ShardSpec, DisjointAndExhaustiveForAnyCount) {
  const std::uint64_t total = 13;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    std::set<std::uint64_t> covered;
    std::uint64_t cells_sum = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      const ShardSpec s{k, n};
      cells_sum += s.cells_of(total);
      for (std::uint64_t i = 0; i < total; ++i) {
        if (!s.owns(i)) continue;
        EXPECT_TRUE(covered.insert(i).second)
            << "cell " << i << " owned twice at n=" << n;
      }
    }
    EXPECT_EQ(covered.size(), total) << "n=" << n;
    EXPECT_EQ(cells_sum, total) << "n=" << n;
  }
}

TEST(ShardRunner, UnionOfShardsIsByteIdenticalToUnshardedRun) {
  const std::vector<Job> jobs = synth_jobs(12);

  RunnerOptions base_opts;
  base_opts.threads = 1;
  base_opts.progress = false;
  base_opts.name = "shard_union";
  const RunReport base =
      ExperimentRunner(base_opts).run(jobs);
  const std::string base_json =
      strip_volatile(to_json(base).dump(2));

  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    std::vector<std::string> paths;
    for (std::uint32_t k = 0; k < n; ++k) {
      RunnerOptions o = base_opts;
      o.shard = ShardSpec{k, n};
      const RunReport rep = ExperimentRunner(o).run(jobs);
      EXPECT_EQ(rep.results.size(), o.shard.cells_of(jobs.size()));
      for (const JobResult& r : rep.results) {
        EXPECT_TRUE(o.shard.owns(r.cell));
        // The shard's seeds are the unsharded run's seeds for those cells.
        EXPECT_EQ(r.seed, base.results[r.cell].seed);
        EXPECT_EQ(r.key, base.results[r.cell].key);
      }
      const std::string path = ::testing::TempDir() + "shard_union_" +
                               std::to_string(n) + "_" + std::to_string(k) +
                               ".json";
      write_report(rep, path);
      paths.push_back(path);
    }
    const MergeOutcome merged = merge_shards(paths);
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(strip_volatile(to_json(merged.report).dump(2)),
              base_json)
        << "union of " << n << " shards diverged from the unsharded run";
    for (const std::string& p : paths) std::remove(p.c_str());
  }
}

TEST(ShardJournal, HeaderHashFoldsShardSpec) {
  const std::vector<Job> jobs = synth_jobs(6);
  const JournalHeader whole = journal_header("s", jobs);
  EXPECT_EQ(whole.grid, whole.base);

  std::set<std::uint64_t> hashes{whole.grid};
  for (std::uint32_t n : {2u, 3u}) {
    for (std::uint32_t k = 0; k < n; ++k) {
      const JournalHeader h =
          journal_header("s", jobs, ShardSpec{k, n});
      EXPECT_EQ(h.base, whole.base);  // base hash is shard-independent
      EXPECT_TRUE(hashes.insert(h.grid).second)
          << "shard " << k << "/" << n << " identity collides";
    }
  }
}

TEST(ShardJournal, ResumeRejectsShardSpecMismatch) {
  const std::vector<Job> jobs = synth_jobs(6);
  const std::string path = ::testing::TempDir() + "shard_mismatch.journal";
  std::remove(path.c_str());

  RunnerOptions o;
  o.threads = 1;
  o.progress = false;
  o.name = "shard_mismatch";
  o.journal_path = path;
  o.shard = ShardSpec{0, 2};
  ExperimentRunner(o).run(jobs);

  // Same grid, different shard: the journal must not resume.
  o.resume = true;
  o.shard = ShardSpec{1, 2};
  EXPECT_THROW(ExperimentRunner(o).run(jobs), std::runtime_error);

  // Unsharded resume against a shard journal must also refuse.
  o.shard = ShardSpec{};
  EXPECT_THROW(ExperimentRunner(o).run(jobs), std::runtime_error);

  // The matching shard resumes cleanly.
  o.shard = ShardSpec{0, 2};
  const RunReport rep = ExperimentRunner(o).run(jobs);
  EXPECT_EQ(rep.resumed, rep.results.size());
  std::remove(path.c_str());
}

TEST(ShardReport, ShardBlockRoundTripsThroughJson) {
  const std::vector<Job> jobs = synth_jobs(5);
  RunnerOptions o;
  o.threads = 1;
  o.progress = false;
  o.name = "shard_block";
  o.shard = ShardSpec{1, 2};
  const RunReport rep = ExperimentRunner(o).run(jobs);
  EXPECT_EQ(rep.shard, (ShardSpec{1, 2}));
  EXPECT_EQ(rep.grid_cells, 5u);

  const JsonValue json = to_json(rep);
  const JsonValue* shard = json.find("shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->at("index").as_uint(), 1u);
  EXPECT_EQ(shard->at("count").as_uint(), 2u);
  EXPECT_EQ(shard->at("cells").as_uint(), 2u);  // cells 1 and 3
  EXPECT_EQ(shard->at("total").as_uint(), 5u);

  const RunReport back = report_from_json(json);
  EXPECT_EQ(back.shard, rep.shard);
  EXPECT_EQ(back.grid, rep.grid);
  EXPECT_EQ(back.grid_cells, rep.grid_cells);
}

}  // namespace
}  // namespace pert::runner
