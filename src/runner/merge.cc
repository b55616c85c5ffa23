#include "runner/merge.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "runner/journal.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/shard.h"

namespace pert::runner {

namespace {

/// One shard input, normalized from either carrier format.
struct Input {
  std::string path;
  ShardSpec shard;
  std::string name;
  std::uint64_t total = 0;  ///< full grid cell count this input claims
  std::uint64_t base = 0;   ///< shard-independent grid hash (0 = unknown)
  std::vector<JobResult> records;
  bool from_journal = false;
  std::size_t quarantined = 0;
};

bool looks_like_journal(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open merge input: " + path);
  char magic[6] = {};
  f.read(magic, sizeof magic);
  return f.gcount() == sizeof magic &&
         std::string_view(magic, sizeof magic) == "PERTJ1";
}

Input load_input(const std::string& path) {
  Input in;
  in.path = path;
  if (looks_like_journal(path)) {
    // Standard journal recovery: torn/corrupt lines are quarantined to
    // <path>.quarantine and the journal compacted, exactly as --resume
    // would. Surviving records join the merge; missing cells surface in
    // the coverage check.
    JournalRecovery rec = recover_journal(path);
    if (!rec.usable)
      throw std::runtime_error("journal " + path +
                               " has no decodable header; cannot establish "
                               "which shard it records");
    in.from_journal = true;
    in.shard = rec.header.shard;
    in.name = rec.header.name;
    in.total = rec.header.jobs;
    in.base = rec.header.base;
    in.records = std::move(rec.records);
    in.quarantined = rec.quarantined;
    return in;
  }
  RunReport rep = read_report(path);
  in.shard = rep.shard;
  in.name = rep.name;
  in.total = rep.shard.active() ? rep.grid_cells : rep.results.size();
  in.base = rep.grid;
  in.records = std::move(rep.results);
  return in;
}

}  // namespace

MergeOutcome merge_shards(const std::vector<std::string>& paths,
                          const MergeOptions& opts) {
  if (paths.empty()) throw std::runtime_error("no merge inputs given");

  std::vector<Input> inputs;
  inputs.reserve(paths.size());
  for (const std::string& p : paths) inputs.push_back(load_input(p));

  // Identity validation: every input must describe a slice of ONE grid.
  const Input& first = inputs.front();
  for (const Input& in : inputs) {
    if (in.name != first.name)
      throw std::runtime_error("sweep name mismatch: " + in.path +
                               " records \"" + in.name + "\" but " +
                               first.path + " records \"" + first.name +
                               "\"");
    if (in.shard.count != first.shard.count)
      throw std::runtime_error(
          "shard count mismatch: " + in.path + " is a slice of " +
          std::to_string(in.shard.count) + " shards but " + first.path +
          " of " + std::to_string(first.shard.count) +
          " — these runs used different partitions and cannot merge");
    if (in.total != first.total)
      throw std::runtime_error(
          "grid size mismatch: " + in.path + " claims " +
          std::to_string(in.total) + " total cells but " + first.path +
          " claims " + std::to_string(first.total));
    if (in.base != 0 && first.base != 0 && in.base != first.base)
      throw std::runtime_error(
          "grid hash mismatch: " + in.path + " and " + first.path +
          " were produced from different sweep grids (same shape, "
          "different keys/seeds); refusing to merge");
  }
  const std::uint32_t n = first.shard.count;
  const std::uint64_t total = first.total;

  MergeOutcome out;
  out.total_cells = total;

  std::vector<JobResult> cells(total);
  std::vector<char> present(total, 0);
  // Which shard index supplied each present cell, for overlap diagnostics.
  std::vector<std::uint32_t> owner(total, 0);

  for (const Input& in : inputs) {
    if (in.quarantined > 0)
      out.notes.push_back(in.path + ": " + std::to_string(in.quarantined) +
                          " corrupt journal line(s) quarantined");
    for (const JobResult& r : in.records) {
      if (r.cell >= total)
        throw std::runtime_error(
            "cell " + std::to_string(r.cell) + " in " + in.path +
            " is out of range for a " + std::to_string(total) +
            "-cell grid");
      if (r.cell % n != in.shard.index)
        throw std::runtime_error(
            "overlapping cells: cell " + std::to_string(r.cell) + " (" +
            r.key + ") in " + in.path + " does not belong to shard " +
            in.shard.to_string() +
            " — the inputs violate the shard partition");
      if (present[r.cell] != 0) {
        // Same shard supplied twice (journal + report, or a re-run):
        // last-writer-wins in argument order. A cross-shard collision is
        // impossible once membership holds, but keep the check as defense.
        if (owner[r.cell] != in.shard.index)
          throw std::runtime_error("overlapping cells: cell " +
                                   std::to_string(r.cell) +
                                   " claimed by two different shards");
        if (cells[r.cell].key != r.key)
          throw std::runtime_error(
              "conflicting records for cell " + std::to_string(r.cell) +
              ": key \"" + cells[r.cell].key + "\" vs \"" + r.key + "\"");
        ++out.superseded;
      }
      cells[r.cell] = r;
      present[r.cell] = 1;
      owner[r.cell] = in.shard.index;
    }
  }

  std::uint64_t covered = 0;
  for (char p : present) covered += p != 0 ? 1 : 0;
  out.missing = total - covered;
  if (out.missing > 0 && !opts.allow_partial) {
    std::string msg = "missing cells: " + std::to_string(out.missing) +
                      " of " + std::to_string(total) + " uncovered (";
    std::size_t listed = 0;
    for (std::uint64_t i = 0; i < total && listed < 8; ++i) {
      if (present[i] != 0) continue;
      if (listed > 0) msg += ", ";
      msg += std::to_string(i);
      ++listed;
    }
    if (out.missing > listed) msg += ", ...";
    msg += "); pass every shard, or --partial to emit what is covered";
    throw std::runtime_error(msg);
  }

  RunReport& rep = out.report;
  rep.name = first.name;
  rep.threads = 1;
  rep.grid = first.base;
  rep.grid_cells = total;
  rep.results.reserve(covered);
  for (std::uint64_t i = 0; i < total; ++i)
    if (present[i] != 0) rep.results.push_back(std::move(cells[i]));
  for (const JobResult& r : rep.results) rep.cpu_ms += r.wall_ms;
  rep.status = out.missing == 0 ? batch_status(rep.results)
               : rep.results.empty() ? "failed"
                                     : "partial";
  return out;
}

}  // namespace pert::runner
