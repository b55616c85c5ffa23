// Dumbbell parameter-sweep runner shared by the Figure 6-9 and 14 benches:
// every (x, scheme) cell is one self-contained runner::Job; the grid executes
// on the experiment runner (serial with --jobs 1, parallel otherwise) and the
// collected results print one table per metric, matching the four panels the
// paper plots (avg queue, drop rate, utilization, Jain).
//
// Each cell's RNG seed is derived from the bench's base seed and the cell key
// (runner::derive_seed), so the grid is bit-identical for any --jobs value.
#pragma once

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dist/worker.h"
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

/// Maps a job key ("fig08_num_flows/flows=10/PERT") to a file name safe for
/// any filesystem: every character outside [A-Za-z0-9._-] becomes '_'.
inline std::string cell_trace_path(const std::string& dir,
                                   const std::string& key) {
  std::string name = key;
  for (char& c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '.' || c == '_'))
      c = '_';
  return dir + "/" + name + ".json";
}

/// Executes the sweep grid on the experiment runner and prints the metric
/// tables. Returns the full report (per-cell metrics, seeds, event counts,
/// wall times) for JSON export. When `trace_dir` is non-empty, event tracing
/// is enabled for every cell and each cell writes a Chrome trace_event JSON
/// named after its (sanitized) job key into that directory.
///
/// With a sharded `ropts` only the shard's cells run (absent cells print as
/// "-"); with `worker_address` set the grid is served to that coordinator
/// instead of running locally and the returned report is a stub (the
/// coordinator owns the real one).
inline runner::RunReport run_dumbbell_sweep(
    const SweepSpec& spec, runner::RunnerOptions ropts = {},
    const std::string& trace_dir = {}, const std::string& worker_address = {}) {
  const std::size_t nx = spec.xs.size(), ns = spec.schemes.size();
  if (!trace_dir.empty()) std::filesystem::create_directories(trace_dir);

  // Materialize every cell's config and window up front, on this thread:
  // job bodies must not share the spec's callbacks.
  std::vector<runner::Job> jobs;
  jobs.reserve(nx * ns);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      const auto [warmup, measure] = spec.window(spec.xs[i]);
      exp::DumbbellConfig cfg = spec.config(spec.xs[i], spec.schemes[j]);
      runner::Job job;
      job.key = spec.name + "/" + spec.x_name + "=" + spec.x_labels[i] + "/" +
                spec.schemes[j].display;
      job.seed = runner::derive_seed(cfg.seed, job.key);
      job.tags = {{"x", spec.x_labels[i]},
                  {"scheme", spec.schemes[j].display}};
      cfg.seed = job.seed;
      std::string trace_path;
      if (!trace_dir.empty()) {
        cfg.obs.trace.enabled = true;
        trace_path = cell_trace_path(trace_dir, job.key);
      }
      job.run = [cfg, warmup = warmup, measure = measure,
                 trace_path](const runner::Job& cell) mutable {
        // Cooperative timeout: the scenario watchdog polls the runner's
        // cancel flag (no effect on results; the flag consumes no RNG).
        cfg.watchdog.cancel = cell.cancel.flag();
        exp::Dumbbell d(cfg);
        runner::JobOutput out;
        out.metrics = d.measure_window(warmup, measure);
        out.events = d.network().total_dispatched();
        out.registry = d.obs().registry();
        if (!trace_path.empty()) {
          std::ofstream f(trace_path);
          if (!f)
            throw std::runtime_error("cannot open trace file " + trace_path);
          d.obs().tracer().write_chrome_trace(f);
        }
        return out;
      };
      jobs.push_back(std::move(job));
    }
  }

  if (!worker_address.empty()) {
    dist::WorkerOptions wopts;
    wopts.label = spec.name;
    const dist::WorkerSummary ws =
        dist::run_worker(worker_address, spec.name, jobs, wopts);
    if (!ws.gave_up) {
      std::fprintf(stderr, "  worker served %llu cell(s) to %s\n",
                   static_cast<unsigned long long>(ws.completed),
                   worker_address.c_str());
      runner::RunReport stub;
      stub.name = spec.name;
      stub.status = "ok";
      stub.grid_cells = jobs.size();
      return stub;
    }
    // Graceful degradation: the coordinator stayed unreachable past the
    // reconnect budget, so run the grid standalone — every cell is a pure
    // function of its seed, so the local report is the same one the
    // coordinator would have assembled.
    std::fprintf(stderr,
                 "  worker gave up on %s; falling back to standalone run\n",
                 worker_address.c_str());
  }

  ropts.name = spec.name;
  runner::ExperimentRunner exec(ropts);
  runner::RunReport report = exec.run(jobs);

  for (const runner::JobResult& r : report.results)
    if (!r.ok)
      std::fprintf(stderr, "  WARNING: job %s failed: %s\n", r.key.c_str(),
                   r.error.c_str());

  // A sharded run's results cover only its slice of the grid; index the
  // tables by global cell, printing "-" for cells other shards own.
  std::vector<const runner::JobResult*> by_cell(nx * ns, nullptr);
  for (const runner::JobResult& r : report.results)
    if (r.cell < by_cell.size()) by_cell[r.cell] = &r;

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
