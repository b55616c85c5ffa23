// Shared bench-harness helpers: flag handling and run-length scaling.
//
// Every reproduction bench runs a reduced (shape-preserving) grid by default
// so the whole suite finishes in minutes; pass --full for paper-scale
// parameters (Section "Scale substitution" in DESIGN.md). Each bench passes
// Opts::parse the Reads mask of the flag groups it reads and only those are
// registered, so --help lists them and any other flag is a usage error.
// Every runner bench prints absent and failed cells as "-" (table_cells)
// and exits 1 when a cell it ran failed (Opts::finish).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "exp/option_set.h"
#include "exp/scheme.h"
#include "runner/report.h"
#include "runner/run_flags.h"
#include "runner/runner.h"

namespace pert::bench {

/// The flag groups a bench reads, OR-ed into Opts::parse's mask.
enum Reads : unsigned {
  kFull = 1u << 0,        ///< --full
  kSmoke = 1u << 1,       ///< --smoke
  kSchemes = 1u << 2,     ///< --schemes and --list-schemes
  kSimThreads = 1u << 3,  ///< --sim-threads
  kRunner = 1u << 4,      ///< runner::add_run_flags' flags and --trace-dir
};

struct Opts {
  bool full = false;
  bool smoke = false;
  /// Parallel-engine workers *inside* each simulation (0 = one shard, run
  /// without the engine). Orthogonal to --jobs: --jobs parallelizes across
  /// grid cells, --sim-threads parallelizes one simulation. Tables are
  /// byte-identical for every value, reports for every value >= 1
  /// (tools/check_pdes.sh pins both).
  unsigned sim_threads = 0;
  std::string trace_dir;  ///< when non-empty, per-cell event traces go here
  runner::RunFlags run_flags;
  /// --schemes; see schemes_or(). Empty = bench default.
  std::vector<exp::SchemeSpec> schemes;
  unsigned reads = 0;  ///< the Reads mask the flags were parsed with

  /// Parses the flags in `reads` (a Reads mask); exits 0 after --help or
  /// --list-schemes and 2 on a usage error.
  static Opts parse(int argc, char** argv, unsigned reads) {
    Opts o;
    o.reads = reads;
    bool list_schemes = false;
    exp::cli::OptionSet opts(argv[0]);
    if (reads & kFull)
      opts.flag("--full", &o.full, "paper-scale grid (default: reduced)");
    if (reads & kSmoke)
      opts.flag("--smoke", &o.smoke, "tiny grid for CI determinism checks");
    if (reads & kSchemes)
      opts.opt("--schemes", &o.schemes, exp::parse_scheme_list,
               "comma list of scheme specs overriding the bench's scheme set",
               "LIST")
          .flag("--list-schemes", &list_schemes,
                "print registered CC modules and queue disciplines, then "
                "exit");
    if (reads & kSimThreads)
      opts.opt("--sim-threads", &o.sim_threads,
               "parallel engine workers per simulation (0 = one shard, "
               "run without the engine; results identical for any value)");
    if (reads & kRunner) {
      runner::add_run_flags(opts, o.run_flags);
      opts.opt("--trace-dir", &o.trace_dir,
               "write one Chrome trace_event JSON per cell into DIR", "DIR");
    }
    opts.parse_or_exit(argc, argv);
    if (list_schemes) {
      exp::print_scheme_catalog();
      std::exit(0);
    }
    return o;
  }

  void banner(const char* what, const char* paper_expectation) const {
    std::printf("=== %s ===\n", what);
    if (reads & kFull)
      std::printf("mode: %s\n",
                  smoke ? "SMOKE (tiny CI grid; --full for paper scale)"
                  : full ? "FULL (paper-scale)"
                         : "default (reduced grid; --full for paper scale)");
    std::printf("paper shape: %s\n\n", paper_expectation);
  }

  /// The bench's scheme set: the comma list `fallback` unless --schemes was
  /// given (paper names and cc/qdisc specs mix freely).
  std::vector<exp::SchemeSpec> schemes_or(std::string_view fallback) const {
    return schemes.empty() ? exp::parse_scheme_list(fallback) : schemes;
  }

  /// Runs the bench's batch `name` on the experiment runner as --jobs /
  /// --journal / --resume / --shard ask. A batch-level failure (an
  /// unwritable journal, a --resume against another sweep's journal) exits
  /// 1 with an error line; failed cells are reported, not thrown.
  runner::RunReport run(const std::vector<runner::Job>& batch,
                        const std::string& name) const {
    runner::RunnerOptions r = run_flags.runner;
    r.name = name;
    try {
      return runner::ExperimentRunner(r).run(batch);
    } catch (const std::exception& e) {
      fail(e);
    }
  }

  /// Ends the bench, after its tables: writes the report when --json was
  /// given (exits 1 with an error line when the file cannot be written),
  /// prints "error: KEY failed: ERROR" to stderr per failed cell, and
  /// returns the exit status: 1 if a cell this run ran failed, else 0.
  int finish(const runner::RunReport& report) const {
    if (!run_flags.json.empty()) {
      try {
        runner::write_report(report, run_flags.json);
      } catch (const std::exception& e) {
        fail(e);
      }
      std::fprintf(stderr, "  report written to %s (%zu jobs, %.2fx speedup)\n",
                   run_flags.json.c_str(), report.results.size(),
                   report.speedup());
    }
    int status = 0;
    for (const runner::JobResult& r : report.results)
      if (!r.ok) {
        std::fprintf(stderr, "error: %s failed: %s\n", r.key.c_str(),
                     r.error.c_str());
        status = 1;
      }
    return status;
  }

 private:
  [[noreturn]] static void fail(const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
};

/// Results by grid cell for a bench's tables: null for a cell this run does
/// not hold (another --shard owns it) and for a failed cell, so both print
/// as "-".
inline std::vector<const runner::JobResult*> table_cells(
    const runner::RunReport& report) {
  std::vector<const runner::JobResult*> cells = report.by_cell();
  for (const runner::JobResult*& r : cells)
    if (r != nullptr && !r->ok) r = nullptr;
  return cells;
}

}  // namespace pert::bench
