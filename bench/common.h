// Shared bench-harness helpers: flag handling and run-length scaling.
//
// Every reproduction bench runs a reduced (shape-preserving) grid by default
// so the whole suite finishes in minutes; pass --full for paper-scale
// parameters (Section "Scale substitution" in DESIGN.md). The sweep benches
// additionally accept
//   --jobs N     run N simulation cells in parallel (0 = all hardware cores;
//                results are bit-identical for any N — see docs/runner.md)
//   --json PATH  export the per-cell RunReport (metrics, seeds, event counts,
//                wall times) as JSON
//   --smoke      tiny grid for CI determinism checks (seconds, not minutes)
//   --journal PATH  journal every completed cell to PATH (crash-safe; see
//                docs/runner.md "Crash safety & resume")
//   --resume     recover completed cells from the --journal file and run
//                only what is missing
//   --trace-dir DIR  write one Chrome trace_event JSON per cell into DIR
//                (see docs/observability.md)
//   --shard K/N  run only the grid cells whose index i satisfies
//                i % N == K (0-based); the union of all N shards is
//                byte-identical to the unsharded run (docs/runner.md
//                "Distributed sweeps")
//   --worker HOST:PORT  serve this bench's grid as a distributed worker:
//                fetch cell leases from a sweep_coordinator instead of
//                running the grid locally
//
// Flags are parsed by exp::cli::OptionSet, so --help lists them and unknown
// flags are an error (they used to be silently ignored).
//   --list-schemes  print the registered CC modules and queue disciplines
//                (the vocabulary of --schemes) and exit
//   --schemes LIST  comma list of scheme specs overriding the bench's
//                built-in scheme set, e.g. --schemes pert,cubic/codel
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dist/shard.h"
#include "dist/worker.h"
#include "exp/option_set.h"
#include "exp/scheme.h"
#include "net/qdisc_registry.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "tcp/cc_registry.h"

namespace pert::bench {

/// --list-schemes: both registries, one line per module, then exit.
inline void print_scheme_registries() {
  exp::ensure_scheme_modules();
  std::printf("congestion-control modules:\n");
  for (const tcp::CcInfo& m : tcp::CcRegistry::instance().list())
    std::printf("  %-10s %s%s\n", m.name.c_str(), m.summary.c_str(),
                m.wants_ecn ? " [wants ecn]" : "");
  std::printf("queue disciplines:\n");
  for (const net::QdiscInfo& m : net::QdiscRegistry::instance().list())
    std::printf("  %-10s %s%s\n", m.name.c_str(), m.summary.c_str(),
                m.marks_ecn ? " [marks ecn]" : "");
  std::printf("paper scheme names:");
  for (const exp::SchemeAlias& a : exp::scheme_aliases())
    std::printf(" %.*s", static_cast<int>(a.alias.size()), a.alias.data());
  std::printf(
      "\nscheme spec: a paper scheme name or cc/qdisc with an optional\n"
      "+ecn/-ecn suffix, e.g. cubic/codel, dctcp/red+ecn\n");
}

struct Opts {
  bool full = false;
  bool smoke = false;
  unsigned jobs = 1;      ///< worker threads; 0 = hardware concurrency
  /// Parallel-engine workers *inside* each simulation (0 = classic
  /// single-scheduler path). Orthogonal to --jobs: --jobs parallelizes
  /// across grid cells, --sim-threads parallelizes one simulation. Results
  /// are byte-identical for every value (tools/check_pdes.sh pins this).
  unsigned sim_threads = 0;
  std::string json;       ///< when non-empty, write the RunReport here
  std::string journal;    ///< when non-empty, journal every completed cell
  bool resume = false;    ///< recover completed cells from the journal
  std::string trace_dir;  ///< when non-empty, per-cell event traces go here
  dist::ShardSpec shard;  ///< --shard K/N grid slice ({0,1} = whole grid)
  std::string worker;     ///< --worker HOST:PORT coordinator address
  /// --schemes comma list (raw); see schemes_or(). Empty = bench default.
  std::string schemes_arg;

  static Opts parse(int argc, char** argv) {
    Opts o;
    bool list_schemes = false;
    std::string shard_arg;
    exp::cli::OptionSet opts(argv != nullptr && argc > 0 ? argv[0] : "bench");
    opts.flag("--full", &o.full, "paper-scale grid (default: reduced)")
        .flag("--smoke", &o.smoke, "tiny grid for CI determinism checks")
        .opt("--jobs", &o.jobs, "parallel simulation cells (0 = all cores)")
        .opt("--sim-threads", &o.sim_threads,
             "parallel engine workers per simulation (0 = classic "
             "single-scheduler path; results identical for any value)")
        .opt("--json", &o.json, "export the per-cell RunReport as JSON",
             "PATH")
        .opt("--journal", &o.journal, "crash-safe journal for --resume",
             "PATH")
        .flag("--resume", &o.resume, "recover completed cells from --journal")
        .opt("--trace-dir", &o.trace_dir,
             "write one Chrome trace_event JSON per cell into DIR", "DIR")
        .opt("--shard", &shard_arg,
             "run only grid cells with index % N == K (0-based)", "K/N")
        .opt("--worker", &o.worker,
             "run as a distributed worker against this coordinator",
             "HOST:PORT")
        .opt("--schemes", &o.schemes_arg,
             "comma list of scheme specs overriding the bench's scheme set",
             "LIST")
        .flag("--list-schemes", &list_schemes,
              "print registered CC modules and queue disciplines, then exit");
    switch (opts.parse(argc, argv)) {
      case exp::cli::OptionSet::Result::kOk: break;
      case exp::cli::OptionSet::Result::kHelp: std::exit(0);
      case exp::cli::OptionSet::Result::kError: std::exit(2);
    }
    if (list_schemes) {
      print_scheme_registries();
      std::exit(0);
    }
    if (o.resume && o.journal.empty()) {
      std::fprintf(stderr, "error: --resume requires --journal PATH\n");
      std::exit(2);
    }
    if (!shard_arg.empty()) {
      try {
        o.shard = dist::parse_shard(shard_arg);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    }
    if (!o.worker.empty() && (o.shard.active() || o.resume)) {
      std::fprintf(stderr,
                   "error: --worker is exclusive with --shard/--resume (the "
                   "coordinator owns cell assignment and the journal)\n");
      std::exit(2);
    }
    return o;
  }

  void banner(const char* what, const char* paper_expectation) const {
    std::printf("=== %s ===\n", what);
    std::printf("mode: %s\n",
                smoke ? "SMOKE (tiny CI grid; --full for paper scale)"
                : full ? "FULL (paper-scale)"
                       : "default (reduced grid; --full for paper scale)");
    std::printf("paper shape: %s\n\n", paper_expectation);
  }

  /// The bench's scheme set: the comma list `fallback` unless --schemes was
  /// given (paper names and cc/qdisc specs mix freely). Parse errors are
  /// usage errors: message + exit(2).
  std::vector<exp::SchemeSpec> schemes_or(std::string_view fallback) const {
    try {
      return exp::parse_scheme_list(schemes_arg.empty() ? fallback
                                                        : schemes_arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(2);
    }
  }

  /// Runs the bench's batch `name` as the flags ask: on the experiment
  /// runner with --jobs / --journal / --resume / --shard, or served to the
  /// --worker coordinator, which then owns the report (nullopt).
  std::optional<runner::RunReport> run(const std::vector<runner::Job>& batch,
                                       const std::string& name) const {
    runner::RunnerOptions r;
    r.name = name;
    r.threads = jobs;
    r.journal_path = journal;
    r.resume = resume;
    r.shard = shard;
    return dist::run_or_serve(batch, r, worker);
  }

  /// Writes the report when --json was given. Call once per bench. A
  /// nullopt report means the grid was served to a coordinator (--worker),
  /// which owns the report; nothing is written then.
  void export_report(const std::optional<runner::RunReport>& report) const {
    if (json.empty() || !report) return;
    runner::write_report(*report, json);
    std::fprintf(stderr, "  report written to %s (%zu jobs, %.2fx speedup)\n",
                 json.c_str(), report->results.size(), report->speedup());
  }
};

}  // namespace pert::bench
