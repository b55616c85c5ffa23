// pert_sim — scenario driver CLI.
//
// Runs dumbbell scenarios described with key=value arguments and prints the
// windowed metrics; optionally records the tagged flow's trace (pert-trace
// v1), the bottleneck queue length as a "t,value" CSV series, a Chrome event
// trace and a metric-registry snapshot.
//
//   pert_sim scheme=pert bw=100M rtt=60 flows=10 measure=60
//   pert_sim scheme=sack-red bw=150M rtt=60 flows=50 web=100
//            series_out=queue.csv trace_out=flow0.csv   (one line)
//
// Every run goes through the experiment runner as one job per scheme. A
// comma list of schemes runs in parallel with --jobs N (0 = all cores), and
// each output path then carries the scheme name (queue.csv -> queue.PERT.csv).
// --json PATH exports the collected RunReport (metrics, seeds, event counts,
// wall times):
//
//   pert_sim --jobs 0 --json out.json scheme=pert,sack,sack-red,vegas
//            bw=100M rtt=60 flows=10                        (one line)
//
// --help lists every key and flag; --list-schemes prints the scheme
// vocabulary; repro=BUNDLE replays a fuzzer repro bundle.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/cli.h"
#include "exp/fuzz/fuzz.h"
#include "exp/option_set.h"
#include "exp/table.h"
#include "obs/probe.h"
#include "predictors/trace_io.h"
#include "predictors/trace_recorder.h"
#include "runner/journal.h"
#include "runner/report.h"
#include "runner/run_flags.h"
#include "runner/runner.h"
#include "sim/errors.h"

namespace {

using namespace pert;

void print_banner(const exp::CliOptions& opt, const exp::SchemeSpec& scheme) {
  std::printf("scheme=%s bw=%.0f rtt=%.0fms flows=%d web=%d buffer=%d "
              "window=[%.0f,%.0f]s\n\n",
              scheme.display.c_str(),
              opt.cfg.bottleneck_bps, opt.cfg.rtt * 1e3,
              opt.cfg.num_fwd_flows, opt.cfg.num_web_sessions,
              opt.cfg.resolved_buffer_pkts(), opt.warmup,
              opt.warmup + opt.measure);
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

/// series_out=: the sampler's bottleneck queue-length series ("queue.len",
/// one sample per obs_interval) as "t,value" CSV lines.
class QueueSeries final : public obs::Probe {
 public:
  void on_sample(const obs::Sample& s) override {
    if (std::strcmp(s.name, "queue.len") != 0) return;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.10g,%.10g\n", s.t, s.value);
    csv_ += buf;
  }
  const std::string& csv() const noexcept { return csv_; }

 private:
  std::string csv_;
};

/// The files one scheme's job writes; empty paths were not asked for.
struct Outputs {
  std::string trace_json;
  std::string metrics_json;
  std::string trace_out;
  std::string series_out;
};

/// Output paths for `scheme`: the user's paths as given for a single
/// scheme; with several, each gets the scheme name spliced in so parallel
/// jobs never write to the same file.
Outputs outputs_for(const exp::CliOptions& opt, const exp::SchemeSpec& scheme) {
  auto path = [&](const std::string& p) {
    return p.empty() || opt.schemes.size() <= 1
               ? p
               : tagged_path(p, scheme.display);
  };
  return {path(opt.trace_json), path(opt.metrics_json), path(opt.trace_out),
          path(opt.series_out)};
}

void print_written(const Outputs& o) {
  const std::pair<const char*, const std::string*> lines[] = {
      {"event trace", &o.trace_json},
      {"metrics", &o.metrics_json},
      {"tagged-flow trace", &o.trace_out},
      {"queue time series", &o.series_out},
  };
  for (const auto& [what, path] : lines)
    if (!path->empty()) std::printf("%s written to %s\n", what, path->c_str());
}

/// One scheme's scenario as a runner job: runs the window with the
/// requested recorders attached, then writes their files.
runner::Job scheme_job(const exp::CliOptions& opt, exp::DumbbellConfig cfg) {
  runner::Job job;
  job.key = "pert_sim/scheme=" + cfg.scheme.display;
  job.seed = cfg.seed;  // same base seed per scheme, as if run one at a time
  job.tags = {{"scheme", cfg.scheme.display}};
  job.run = [cfg, warmup = opt.warmup, measure = opt.measure,
             files = outputs_for(opt, cfg.scheme)](const runner::Job&) {
    exp::Dumbbell d(cfg);
    std::unique_ptr<predictors::TraceRecorder> recorder;
    if (!files.trace_out.empty())
      recorder = std::make_unique<predictors::TraceRecorder>(d.fwd_sender(0),
                                                             d.fwd_queue());
    QueueSeries series;
    if (!files.series_out.empty()) d.add_probe(&series);

    runner::JobOutput out;
    out.metrics = d.measure_window(warmup, measure);
    out.events = d.network().sched().dispatched();
    out.registry = d.obs().registry();

    if (!files.trace_json.empty()) {
      std::ofstream f(files.trace_json);
      if (!f) throw std::runtime_error("cannot open " + files.trace_json);
      d.obs().tracer().write_chrome_trace(f);
    }
    if (!files.metrics_json.empty())
      runner::atomic_write_file(files.metrics_json,
                                runner::to_json(out.registry).dump(2) + "\n");
    if (recorder) predictors::save_trace(recorder->take(), files.trace_out);
    if (!files.series_out.empty())
      runner::atomic_write_file(files.series_out, series.csv());
    return out;
  };
  return job;
}

/// Runs one job per scheme on the experiment runner and prints each
/// scheme's banner, metrics and written files.
int run(const exp::CliOptions& opt, const runner::RunFlags& flags) {
  std::vector<runner::Job> batch;
  for (const exp::SchemeSpec& scheme : opt.schemes) {
    exp::DumbbellConfig cfg = opt.cfg;
    cfg.scheme = scheme;
    cfg.validate();  // a bad scenario is a usage error, not a failed cell
    batch.push_back(scheme_job(opt, std::move(cfg)));
  }

  const runner::RunReport report =
      runner::ExperimentRunner(flags.runner).run(batch);

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
    const exp::SchemeSpec& scheme = opt.schemes[r.cell];
    print_banner(opt, scheme);
    print_metrics(r.metrics);
    print_written(outputs_for(opt, scheme));
    std::printf("\n");
  }
  if (!flags.json.empty()) {
    runner::write_report(report, flags.json);
    std::printf("report written to %s\n", flags.json.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pert;

  exp::CliOptions opt;
  runner::RunFlags flags;
  bool list_schemes = false;
  std::string repro;
  exp::cli::OptionSet opts(
      "pert_sim",
      "Runs a dumbbell scenario, one runner job per scheme, and prints the "
      "windowed metrics.");
  runner::add_run_flags(opts, flags);
  opts.flag("--list-schemes", &list_schemes,
            "print the paper scheme names, CC modules and queue "
            "disciplines, then exit");
  exp::add_scenario_keys(opts, opt);
  opts.opt("repro", &repro,
           "replay a fuzzer repro bundle instead; exits 0 iff its "
           "violation reproduces",
           "BUNDLE")
      .parse_or_exit(argc, argv);

  if (list_schemes) {
    exp::print_scheme_catalog();
    return 0;
  }
  if (!repro.empty()) {
    try {
      return exp::fuzz::replay_repro_bundle(repro) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  flags.runner.name = "pert_sim";
  try {
    return run(opt, flags);
  } catch (const sim::ConfigError& e) {
    // Out-of-domain scenario parameters: a usage error, not a crash. Print
    // the human line plus the machine-greppable component=/param= detail.
    std::fprintf(stderr, "error: %s\n%s", e.what(), e.diagnostics().c_str());
    return 2;
  } catch (const std::exception& e) {
    // Batch-level failures: an unwritable --journal or --json, a --resume
    // against another sweep's journal.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
