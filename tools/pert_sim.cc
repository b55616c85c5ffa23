// pert_sim — scenario driver CLI.
//
// Runs a single dumbbell scenario described with key=value arguments and
// prints the windowed metrics; optionally records the tagged flow's trace
// (pert-trace v1) and a queue-length time series (CSV).
//
//   pert_sim scheme=pert bw=100M rtt=60 flows=10 measure=60
//   pert_sim scheme=sack-red bw=150M rtt=60 flows=50 web=100
//            series_out=queue.csv trace_out=flow0.csv   (one line)
//
// A comma list of schemes runs one scenario per scheme — in parallel with
// --jobs N (0 = all cores) — and --json PATH exports the collected
// RunReport (metrics, seeds, event counts, wall times):
//
//   pert_sim --jobs 0 --json out.json scheme=pert,sack,sack-red,vegas
//            bw=100M rtt=60 flows=10                        (one line)
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dist/shard.h"
#include "dist/worker.h"
#include "exp/cli.h"
#include "exp/fuzz/fuzz.h"
#include "exp/option_set.h"
#include "exp/table.h"
#include "predictors/trace_io.h"
#include "predictors/trace_recorder.h"
#include "net/qdisc_registry.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "sim/errors.h"
#include "stats/time_series.h"
#include "tcp/cc_registry.h"

namespace {

using namespace pert;

void print_banner(const exp::CliOptions& opt, const exp::SchemeSpec& scheme,
                  std::int32_t buffer_pkts) {
  std::printf("scheme=%s bw=%.0f rtt=%.0fms flows=%d web=%d buffer=%d "
              "window=[%.0f,%.0f]s\n\n",
              scheme.display.c_str(),
              opt.cfg.bottleneck_bps, opt.cfg.rtt * 1e3,
              opt.cfg.num_fwd_flows, opt.cfg.num_web_sessions, buffer_pkts,
              opt.warmup, opt.warmup + opt.measure);
}

void print_metrics(const exp::WindowMetrics& m) {
  exp::Table t({"metric", "value"});
  t.row({"avg queue (pkts)", exp::fmt(m.avg_queue_pkts, "%.2f")});
  t.row({"avg queue (normalized)", exp::fmt(m.norm_queue, "%.4f")});
  t.row({"drop rate", exp::fmt(m.drop_rate, "%.3e")});
  t.row({"utilization", exp::fmt(m.utilization, "%.4f")});
  t.row({"jain fairness", exp::fmt(m.jain, "%.4f")});
  t.row({"aggregate goodput (Mbps)", exp::fmt(m.agg_goodput_bps / 1e6, "%.2f")});
  t.row({"drops", std::to_string(m.drops)});
  t.row({"ecn marks", std::to_string(m.ecn_marks)});
  t.row({"early responses", std::to_string(m.early_responses)});
  t.row({"loss events", std::to_string(m.loss_events)});
  t.row({"timeouts", std::to_string(m.timeouts)});
  t.print();
}

/// `pert_sim schemes`: dumps both registries plus the paper scheme names,
/// so a user can see what scheme=<cc>/<qdisc> combinations are available.
int list_schemes() {
  exp::ensure_scheme_modules();
  std::printf("congestion-control modules (scheme=<cc>/<qdisc>):\n");
  exp::Table cc({"name", "ecn", "summary"});
  for (const tcp::CcInfo& m : tcp::CcRegistry::instance().list())
    cc.row({m.name, m.wants_ecn ? "yes" : "no", m.summary});
  cc.print();
  std::printf("\nqueue disciplines:\n");
  exp::Table qd({"name", "marks", "summary"});
  for (const net::QdiscInfo& m : net::QdiscRegistry::instance().list())
    qd.row({m.name, m.marks_ecn ? "yes" : "no", m.summary});
  qd.print();
  std::printf("\npaper scheme names:");
  for (const exp::SchemeAlias& a : exp::scheme_aliases())
    std::printf(" %.*s", static_cast<int>(a.alias.size()), a.alias.data());
  std::printf(
      "\nfree-form combinations take an optional +ecn/-ecn suffix, e.g.\n"
      "  scheme=cubic/codel  scheme=dctcp/red+ecn  scheme=sack/pie-ecn\n");
  return 0;
}

/// Derives a per-job output path from a user-given one by inserting `tag`
/// before the extension: ("out.json", "PERT") -> "out.PERT.json". Tag
/// characters outside [A-Za-z0-9._-] become '_' so scheme display names
/// like "Sack/Droptail" cannot escape into the directory part.
std::string tagged_path(const std::string& path, std::string tag) {
  for (char& c : tag)
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '.' || c == '_'))
      c = '_';
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + tag;
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/// Writes the scenario's structured observability outputs (Chrome trace
/// JSON and/or metric-registry snapshot) when the user asked for them.
int write_obs_outputs(exp::Dumbbell& d, const std::string& trace_json,
                      const std::string& metrics_json) {
  try {
    if (!trace_json.empty()) {
      std::ofstream f(trace_json);
      if (!f) throw std::runtime_error("cannot open " + trace_json);
      d.obs().tracer().write_chrome_trace(f);
      std::printf("event trace written to %s\n", trace_json.c_str());
    }
    if (!metrics_json.empty()) {
      std::ofstream f(metrics_json);
      if (!f) throw std::runtime_error("cannot open " + metrics_json);
      d.obs().registry().write_json(f);
      std::printf("metrics written to %s\n", metrics_json.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error writing outputs: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// Single-scenario path: trace/series recording, byte-identical output to the
/// pre-runner CLI. Returns the result for optional JSON export.
int run_single(const exp::CliOptions& opt, const std::string& json_out) {
  exp::Dumbbell d(opt.cfg);

  std::unique_ptr<predictors::TraceRecorder> recorder;
  if (!opt.trace_out.empty())
    recorder = std::make_unique<predictors::TraceRecorder>(d.fwd_sender(0),
                                                           d.fwd_queue());
  std::unique_ptr<stats::TimeSeries> series;
  if (!opt.series_out.empty()) {
    series = std::make_unique<stats::TimeSeries>(
        d.network().sched(), opt.series_interval,
        [&d] { return static_cast<double>(d.fwd_queue().len_pkts()); });
    series->start();
  }

  const auto t0 = std::chrono::steady_clock::now();
  const exp::WindowMetrics m = d.measure_window(opt.warmup, opt.measure);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  print_banner(opt, opt.cfg.scheme, d.buffer_pkts());
  print_metrics(m);

  if (const int rc = write_obs_outputs(d, opt.trace_json, opt.metrics_json))
    return rc;

  try {
    if (recorder) {
      predictors::save_trace(recorder->take(), opt.trace_out);
      std::printf("\ntagged-flow trace written to %s\n", opt.trace_out.c_str());
    }
    if (series) {
      std::ofstream f(opt.series_out);
      series->write_csv(f);
      std::printf("queue time series written to %s\n", opt.series_out.c_str());
    }
    if (!json_out.empty()) {
      runner::RunReport report;
      report.name = "pert_sim";
      report.threads = 1;
      report.wall_ms = report.cpu_ms = wall_ms;
      runner::JobResult r;
      r.key = "pert_sim/scheme=" + opt.cfg.scheme.display;
      r.seed = opt.cfg.seed;
      r.tags = {{"scheme", opt.cfg.scheme.display}};
      r.metrics = m;
      r.events = d.network().sched().dispatched();
      r.wall_ms = wall_ms;
      r.ok = true;
      report.results.push_back(std::move(r));
      runner::write_report(report, json_out);
      std::printf("report written to %s\n", json_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error writing outputs: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// Multi-scheme path: one job per scheme through the experiment runner —
/// or, with `worker` set, served as a distributed worker to that
/// coordinator (see docs/runner.md "Distributed sweeps").
int run_multi(const exp::CliOptions& opt, unsigned jobs,
              const std::string& json_out, const std::string& journal_path,
              bool resume, dist::ShardSpec shard, const std::string& worker) {
  if (!opt.trace_out.empty() || !opt.series_out.empty()) {
    std::fprintf(stderr,
                 "error: trace_out/series_out need a single scheme\n");
    return 2;
  }

  std::vector<runner::Job> batch;
  std::vector<std::int32_t> buffer_pkts(opt.schemes.size(), 0);
  for (std::size_t i = 0; i < opt.schemes.size(); ++i) {
    exp::DumbbellConfig cfg = opt.cfg;
    cfg.scheme = opt.schemes[i];
    runner::Job job;
    job.key = "pert_sim/scheme=" + cfg.scheme.display;
    job.seed = cfg.seed;  // same base seed per scheme, as if run one at a time
    job.tags = {{"scheme", cfg.scheme.display}};
    // Per-job observability outputs: trace=/metrics= paths get the scheme
    // name spliced in so parallel jobs never write to the same file.
    const std::string scheme_tag(cfg.scheme.display);
    std::string trace_json = opt.trace_json.empty()
                                 ? std::string()
                                 : tagged_path(opt.trace_json, scheme_tag);
    std::string metrics_json = opt.metrics_json.empty()
                                   ? std::string()
                                   : tagged_path(opt.metrics_json, scheme_tag);
    job.run = [cfg, warmup = opt.warmup, measure = opt.measure,
               trace_json = std::move(trace_json),
               metrics_json = std::move(metrics_json),
               &buf = buffer_pkts[i]](const runner::Job& j) mutable {
      cfg.watchdog.cancel = j.cancel.flag();
      exp::Dumbbell d(cfg);
      runner::JobOutput out;
      out.metrics = d.measure_window(warmup, measure);
      out.events = d.network().sched().dispatched();
      out.registry = d.obs().registry();
      buf = d.buffer_pkts();
      if (write_obs_outputs(d, trace_json, metrics_json) != 0)
        throw std::runtime_error("failed to write observability outputs");
      return out;
    };
    batch.push_back(std::move(job));
  }

  if (!worker.empty()) {
    dist::WorkerOptions wopts;
    wopts.label = "pert_sim";
    const dist::WorkerSummary ws =
        dist::run_worker(worker, "pert_sim", batch, wopts);
    if (!ws.gave_up) {
      std::printf("worker served %llu cell(s) to %s\n",
                  static_cast<unsigned long long>(ws.completed),
                  worker.c_str());
      return 0;
    }
    // Coordinator unreachable past the reconnect budget: degrade to a
    // standalone run (identical results — cells are pure functions of
    // their seeds) rather than exiting with nothing.
    std::fprintf(stderr,
                 "worker gave up on %s; falling back to standalone run\n",
                 worker.c_str());
  }

  runner::RunnerOptions ropts;
  ropts.threads = jobs;
  ropts.name = "pert_sim";
  ropts.journal_path = journal_path;
  ropts.resume = resume;
  ropts.shard = shard;
  const runner::RunReport report = runner::ExperimentRunner(ropts).run(batch);

  int rc = 0;
  for (const runner::JobResult& r : report.results) {
    if (!r.ok) {
      std::fprintf(stderr, "error: %s failed: %s\n", r.key.c_str(),
                   r.error.c_str());
      rc = 1;
      continue;
    }
    // r.cell is the global scheme index even under --shard, where results
    // cover only this shard's slice of the batch.
    print_banner(opt, opt.schemes[r.cell], buffer_pkts[r.cell]);
    print_metrics(r.metrics);
    std::printf("\n");
  }
  if (!json_out.empty()) {
    try {
      runner::write_report(report, json_out);
      std::printf("report written to %s\n", json_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error writing outputs: %s\n", e.what());
      return 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pert;

  // Fuzzer repro bundle replay: self-contained, bypasses the normal
  // key=value scenario grammar entirely.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "repro=", 6) != 0) continue;
    try {
      return exp::fuzz::replay_repro_bundle(argv[i] + 6) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  unsigned jobs = 1;
  std::string json_out;
  std::string journal_path;
  bool resume = false;
  std::string shard_arg;
  std::vector<std::string> impairs;
  std::vector<std::string> args;
  exp::cli::OptionSet opts("pert_sim", exp::cli_usage());
  opts.opt("--jobs", &jobs, "worker threads for multi-scheme runs (0 = all cores)")
      .opt("--json", &json_out, "export the RunReport as JSON", "PATH")
      .opt("--journal", &journal_path, "crash-safe journal for --resume", "PATH")
      .flag("--resume", &resume, "resume completed cells from --journal")
      .opt("--shard", &shard_arg,
           "run only batch cells with index % N == K (0-based)", "K/N")
      .multi("--impair", &impairs, "impairment spec, e.g. loss:p=0.01", "SPEC")
      .positionals(&args, "key=value");
  switch (opts.parse(argc, argv)) {
    case exp::cli::OptionSet::Result::kOk: break;
    case exp::cli::OptionSet::Result::kHelp: return 0;
    case exp::cli::OptionSet::Result::kError: return 2;
  }
  for (const std::string& spec : impairs) args.push_back("impair=" + spec);

  if (args.size() == 1 && args[0] == "schemes") return list_schemes();

  // worker=HOST:PORT rides in the key=value grammar (like repro=) but is
  // dispatch, not scenario shape: pull it out before scenario parsing.
  std::string worker;
  std::erase_if(args, [&worker](const std::string& a) {
    if (a.rfind("worker=", 0) != 0) return false;
    worker = a.substr(7);
    return true;
  });

  dist::ShardSpec shard;
  if (!shard_arg.empty()) {
    try {
      shard = dist::parse_shard(shard_arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  if (!worker.empty() && (shard.active() || resume || !journal_path.empty())) {
    std::fprintf(stderr,
                 "error: worker= is exclusive with --shard/--journal/--resume "
                 "(the coordinator owns cell assignment and the journal)\n");
    return 2;
  }

  exp::CliOptions opt;
  try {
    opt = exp::parse_cli(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), exp::cli_usage().c_str());
    return 2;
  }

  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "error: --resume requires --journal PATH\n");
    return 2;
  }
  try {
    if (opt.schemes.size() <= 1 && journal_path.empty() && !shard.active() &&
        worker.empty())
      return run_single(opt, json_out);
    return run_multi(opt, jobs, json_out, journal_path, resume, shard, worker);
  } catch (const sim::ConfigError& e) {
    // Out-of-domain scenario parameters: a usage error, not a crash. Print
    // the human line plus the machine-greppable component=/param= detail.
    std::fprintf(stderr, "error: %s\n%s", e.what(), e.diagnostics().c_str());
    return 2;
  }
}
