// Dumbbell parameter-sweep runner shared by the Figure 6-9 and 14 benches and
// the robustness bench: every (x, scheme) cell is one self-contained
// runner::Job (dumbbell_job, whose body the ablations and ext_aqm benches run
// too); the grid executes on the experiment runner (serial with --jobs 1,
// parallel otherwise) and the collected results print one table per metric,
// matching the four panels the paper plots (avg queue, drop rate,
// utilization, Jain).
//
// Each cell's RNG seed is derived from the bench's base seed and the cell key
// (runner::derive_seed), so the grid is bit-identical for any --jobs value.
#pragma once

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "exp/dumbbell.h"
#include "exp/table.h"
#include "runner/runner.h"
#include "runner/seed.h"

namespace pert::bench {

struct SweepSpec {
  /// Bench id: prefixes job keys and names the RunReport (JSON export).
  std::string name = "dumbbell_sweep";
  std::string x_name;
  std::vector<double> xs;
  std::vector<std::string> x_labels;  ///< same length as xs
  std::vector<exp::SchemeSpec> schemes;
  /// Builds the scenario for one cell.
  std::function<exp::DumbbellConfig(double x, const exp::SchemeSpec& s)>
      config;
  /// Measurement window per x: {warmup, measure} seconds.
  std::function<std::pair<double, double>(double x)> window;
};

/// --trace-dir for one cell: with a non-empty `trace_dir`, turns event
/// tracing on in `obs` and returns the cell's trace file, named after `key`
/// ("fig08_num_flows/flows=10/PERT") with every character outside
/// [A-Za-z0-9._-] replaced by '_'. Returns "" (tracing untouched) otherwise.
inline std::string cell_trace(obs::ObsConfig& obs, const std::string& trace_dir,
                              const std::string& key) {
  if (trace_dir.empty()) return {};
  std::filesystem::create_directories(trace_dir);
  obs.trace.enabled = true;
  std::string name = key;
  for (char& c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '.' || c == '_'))
      c = '_';
  return trace_dir + "/" + name + ".json";
}

/// Writes a cell's Chrome trace to `path` (from cell_trace); no-op for "".
inline void write_cell_trace(const obs::Tracer& tracer,
                             const std::string& path) {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file " + path);
  tracer.write_chrome_trace(f);
}

/// One Dumbbell grid cell as a runner::Job, the body every Dumbbell bench
/// runs (these sweeps, ablations, ext_aqm). The cell's seed is derived from
/// cfg.seed and `key`. The body counts events across all shards, returns the
/// metric registry and writes the cell's event trace when `trace_dir` is set
/// (cell_trace).
inline runner::Job dumbbell_job(std::string key,
                                std::map<std::string, std::string> tags,
                                exp::DumbbellConfig cfg, double warmup,
                                double measure, const std::string& trace_dir) {
  runner::Job job;
  job.key = std::move(key);
  job.seed = runner::derive_seed(cfg.seed, job.key);
  job.tags = std::move(tags);
  cfg.seed = job.seed;
  const std::string trace_path = cell_trace(cfg.obs, trace_dir, job.key);
  job.run = [cfg, warmup, measure, trace_path](const runner::Job&) {
    exp::Dumbbell d(cfg);
    runner::JobOutput out;
    out.metrics = d.measure_window(warmup, measure);
    out.events = d.network().total_dispatched();
    out.registry = d.obs().registry();
    write_cell_trace(d.obs().tracer(), trace_path);
    return out;
  };
  return job;
}

/// Executes the sweep grid as `opt` asks (Opts::run) and prints the metric
/// tables. Returns the full report (per-cell metrics, seeds, event counts,
/// wall times) for Opts::finish. With --trace-dir each cell writes its event
/// trace (see dumbbell_job); under --shard only the shard's cells run.
/// Absent and failed cells print as "-" (table_cells).
inline runner::RunReport run_dumbbell_sweep(const SweepSpec& spec,
                                            const Opts& opt) {
  const std::size_t nx = spec.xs.size(), ns = spec.schemes.size();

  // Materialize every cell's config and window up front, on this thread:
  // job bodies must not share the spec's callbacks.
  std::vector<runner::Job> jobs;
  jobs.reserve(nx * ns);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      const auto [warmup, measure] = spec.window(spec.xs[i]);
      jobs.push_back(dumbbell_job(
          spec.name + "/" + spec.x_name + "=" + spec.x_labels[i] + "/" +
              spec.schemes[j].display,
          {{"x", spec.x_labels[i]}, {"scheme", spec.schemes[j].display}},
          spec.config(spec.xs[i], spec.schemes[j]), warmup, measure,
          opt.trace_dir));
    }
  }

  runner::RunReport report = opt.run(jobs, spec.name);

  const std::vector<const runner::JobResult*> by_cell = table_cells(report);
  struct MetricDef {
    const char* name;
    const char* fmt;
    double (*get)(const exp::WindowMetrics&);
  };
  const MetricDef metrics[] = {
      {"avg queue (pkts)", "%.1f",
       [](const exp::WindowMetrics& m) { return m.avg_queue_pkts; }},
      {"drop rate", "%.2e",
       [](const exp::WindowMetrics& m) { return m.drop_rate; }},
      {"utilization (%)", "%.1f",
       [](const exp::WindowMetrics& m) { return 100.0 * m.utilization; }},
      {"jain fairness", "%.3f",
       [](const exp::WindowMetrics& m) { return m.jain; }},
  };

  for (const auto& md : metrics) {
    std::printf("-- %s --\n", md.name);
    std::vector<std::string> headers{spec.x_name};
    for (const auto& s : spec.schemes)
      headers.emplace_back(s.display);
    exp::Table t(headers);
    for (std::size_t i = 0; i < nx; ++i) {
      std::vector<std::string> row{spec.x_labels[i]};
      for (std::size_t j = 0; j < ns; ++j) {
        const runner::JobResult* r = by_cell[i * ns + j];
        row.push_back(r != nullptr ? exp::fmt(md.get(r->metrics), md.fmt)
                                   : std::string("-"));
      }
      t.row(std::move(row));
    }
    t.print();
    std::printf("\n");
  }
  return report;
}

}  // namespace pert::bench
