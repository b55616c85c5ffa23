// Shared helpers for the shard and merge tests: a cheap deterministic
// synthetic batch (no simulation — results are pure functions of the seed)
// and the volatile-field strip used for byte-identity comparisons.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "runner/job.h"
#include "runner/seed.h"

namespace pert::runner::testutil {

/// `n` self-contained jobs whose outputs (metrics, events, registry) are
/// pure functions of the per-cell seed — exactly the property the real
/// sweep cells have, at zero simulation cost.
inline std::vector<Job> synth_jobs(std::size_t n, std::uint64_t base_seed = 7) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job job;
    job.key = "synth/cell=" + std::to_string(i);
    job.seed = derive_seed(base_seed, job.key);
    job.tags = {{"x", std::to_string(i)}};
    job.run = [](const Job& j) {
      JobOutput out;
      out.metrics.avg_queue_pkts =
          static_cast<double>(j.seed % 1000) / 10.0;
      out.metrics.utilization =
          0.5 + static_cast<double>(j.seed % 97) / 200.0;
      out.metrics.drop_rate = static_cast<double>(j.seed % 13) / 1e4;
      out.events = 100 + j.seed % 50;
      out.registry.counter("cells").add(1);
      out.registry.counter("events").add(out.events);
      out.registry.gauge("queue").set(out.metrics.avg_queue_pkts);
      return out;
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Drops the volatile lines (wall-clock, speedup, thread count) from an
/// indented report JSON — the same projection tools/check_dist.sh diffs.
inline std::string strip_volatile(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"wall_ms\"") != std::string::npos ||
        line.find("\"cpu_ms\"") != std::string::npos ||
        line.find("\"speedup\"") != std::string::npos ||
        line.find("\"threads\"") != std::string::npos)
      continue;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace pert::runner::testutil
