#include "runner/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "runner/journal.h"
#include "runner/progress.h"
#include "sim/errors.h"

namespace pert::runner {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Runs one job body once, classifying the outcome into JobResult::status
/// and capturing watchdog diagnostics.
JobResult execute(const Job& job) {
  JobResult r;
  r.key = job.key;
  r.seed = job.seed;
  r.tags = job.tags;
  const auto t0 = Clock::now();
  try {
    JobOutput out = job.run(job);
    r.metrics = out.metrics;
    r.events = out.events;
    r.registry = std::move(out.registry);
    r.status = JobStatus::kOk;
  } catch (const sim::InvariantViolation& e) {
    r.status = JobStatus::kInvariantViolation;
    r.error = e.what();
    r.diagnostics = e.diagnostics();
  } catch (const sim::DiagnosticError& e) {  // StallError and friends
    r.status = JobStatus::kFailed;
    r.error = e.what();
    r.diagnostics = e.diagnostics();
  } catch (const std::exception& e) {
    r.status = JobStatus::kFailed;
    r.error = e.what();
  } catch (...) {
    r.status = JobStatus::kFailed;
    r.error = "unknown exception";
  }
  r.ok = r.status == JobStatus::kOk;
  r.wall_ms = ms_since(t0);
  return r;
}

}  // namespace

std::string batch_status(const std::vector<JobResult>& results) {
  std::size_t ok = 0;
  for (const JobResult& r : results) ok += r.ok ? 1 : 0;
  if (ok == results.size()) return "ok";
  return ok == 0 ? "failed" : "partial";
}

std::string_view to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kInvariantViolation: return "invariant_violation";
    case JobStatus::kFailed: break;
  }
  return "failed";
}

JobStatus job_status_from_string(std::string_view s) {
  if (s == "ok") return JobStatus::kOk;
  if (s == "invariant_violation") return JobStatus::kInvariantViolation;
  return JobStatus::kFailed;
}

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : opts_(std::move(opts)) {
  opts_.threads = resolve_threads(opts_.threads);
}

RunReport ExperimentRunner::run(const std::vector<Job>& jobs) {
  const ShardSpec shard(opts_.shard.index, opts_.shard.count);

  // The shard's slice of the grid: global cell indices this run executes,
  // in submission order. Unsharded, that is every cell. The header (and so
  // the journal identity) always covers the FULL grid plus the shard spec.
  std::vector<std::size_t> owned;
  owned.reserve(shard.active() ? jobs.size() / shard.count + 1 : jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (shard.owns(i)) owned.push_back(i);
  const JournalHeader header = journal_header(opts_.name, jobs, shard);

  RunReport report;
  report.name = opts_.name;
  report.shard = shard;
  report.grid = header.base;
  report.grid_cells = jobs.size();
  report.results.resize(owned.size());

  // Crash-safe journal + resume: recover completed cells before running,
  // then journal every newly completed cell. Recovered results are placed
  // at their submission index, so the final report is bit-identical to an
  // uninterrupted run (every cell is a pure function of its seed).
  std::vector<char> done(owned.size(), 0);
  std::unique_ptr<Journal> journal;
  if (!opts_.journal_path.empty()) {
    bool fresh = true;
    if (opts_.resume) {
      JournalRecovery rec = recover_journal(opts_.journal_path);
      if (rec.usable) {
        if (rec.header != header)
          throw std::runtime_error(
              "journal " + opts_.journal_path +
              " was written by a different sweep (name, job count, shard "
              "spec, or key/seed grid differs); delete it or drop --resume");
        std::unordered_map<std::string_view, std::size_t> index;
        index.reserve(owned.size());
        for (std::size_t slot = 0; slot < owned.size(); ++slot)
          index.emplace(jobs[owned[slot]].key, slot);
        for (JobResult& r : rec.records) {
          const auto it = index.find(r.key);
          // Only ok cells with the job's exact derived seed short-circuit;
          // failed cells (and stale seeds) re-run on resume.
          if (it == index.end() || r.seed != jobs[owned[it->second]].seed ||
              r.status != JobStatus::kOk)
            continue;
          r.cell = owned[it->second];
          report.results[it->second] = std::move(r);
          done[it->second] = 1;
          ++report.resumed;
        }
        fresh = false;
      }
    }
    journal = std::make_unique<Journal>(
        fresh ? Journal::start_fresh(opts_.journal_path, header)
              : Journal::append_to(opts_.journal_path));
  }

  const std::size_t remaining = owned.size() - report.resumed;
  const unsigned n_workers = static_cast<unsigned>(
      std::min<std::size_t>(opts_.threads, remaining == 0 ? 1 : remaining));
  report.threads = n_workers;

  // Progress totals (and the ETA derived from them) describe the shard's
  // slice, not the full grid: a 1/8th shard of a 1000-cell grid is a
  // 125-cell batch as far as throughput extrapolation goes.
  ProgressReporter progress(opts_.name, remaining, opts_.progress);
  if (shard.active())
    progress.note("shard " + shard.to_string() + ": " +
                  std::to_string(owned.size()) + " of " +
                  std::to_string(jobs.size()) + " grid cells");
  if (report.resumed > 0)
    progress.note("resumed " + std::to_string(report.resumed) + "/" +
                  std::to_string(owned.size()) + " cells from " +
                  opts_.journal_path);
  progress.batch_started(n_workers);
  const auto t0 = Clock::now();

  auto run_one = [&](std::size_t slot) {
    const std::size_t gi = owned[slot];
    JobResult r = execute(jobs[gi]);
    r.cell = gi;
    report.results[slot] = std::move(r);
    if (journal) journal->append(report.results[slot]);
    progress.job_done(report.results[slot].key, report.results[slot].wall_ms,
                      report.results[slot].ok);
  };

  if (n_workers <= 1) {
    // Serial path: calling thread, submission order, no worker spawned.
    for (std::size_t slot = 0; slot < owned.size(); ++slot)
      if (!done[slot]) run_one(slot);
  } else {
    // Each worker claims the next unstarted slot; results are written to
    // disjoint slots, so the only shared mutable state is the counter (and
    // the journal, which serializes its appends internally).
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= owned.size()) return;
        if (!done[slot]) run_one(slot);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (unsigned w = 0; w < n_workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  report.wall_ms = ms_since(t0);
  for (const JobResult& r : report.results) report.cpu_ms += r.wall_ms;
  report.status = batch_status(report.results);
  progress.batch_finished(report.wall_ms, report.cpu_ms);
  return report;
}

}  // namespace pert::runner
