// Ablations of the PERT design choices called out in DESIGN.md §4/§5:
//   - early-response decrease factor (eq. (1) trade-off: 0.2 / 0.35 / 0.5),
//   - gentle vs non-gentle emulated curve,
//   - once-per-RTT response limiting on vs off,
//   - srtt history weight (0.875 / 0.99 / 0.995),
//   - co-existence with non-proactive (plain SACK) flows,
//   - sensitivity to reverse-path traffic.
//
// Every ablation cell is independent, so all sections flatten into one job
// batch for the experiment runner (--jobs N runs cells concurrently); the
// section tables print from the collected results in the original order.
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "exp/dumbbell.h"
#include "exp/table.h"
#include "sweep.h"

namespace {

using namespace pert;

exp::DumbbellConfig base(bool full) {
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("pert");
  cfg.bottleneck_bps = full ? 150e6 : 50e6;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = 20;
  cfg.start_window = 5.0;
  cfg.seed = 99;
  return cfg;
}

struct Section {
  std::string title;
  std::string label_header;
  std::vector<std::string> labels;
  std::vector<std::size_t> cells;  ///< indices into the flat job vector
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kRunner);
  opt.banner("PERT design ablations",
             "beta trades utilization vs queue; non-gentle over-responds; "
             "unlimited response collapses utilization; heavier srtt weight "
             "lowers FP-driven responses");

  const double warmup = opt.full ? 50.0 : 20.0;
  const double measure = opt.full ? 100.0 : 40.0;

  std::vector<runner::Job> jobs;
  std::vector<Section> sections;
  // Queues one ablation cell (seed derived from the base seed and the
  // section/label key) under the current section.
  auto add_cell = [&](const std::string& label,
                      const exp::DumbbellConfig& cfg) {
    Section& sec = sections.back();
    sec.labels.push_back(label);
    sec.cells.push_back(jobs.size());
    jobs.push_back(bench::dumbbell_job("ablations/" + sec.title + "/" + label,
                                       {{"x", label}, {"scheme", sec.title}},
                                       cfg, warmup, measure, opt.trace_dir));
  };

  sections.push_back({"early-response decrease factor (paper uses 0.35)",
                      "beta", {}, {}});
  for (double beta : {0.20, 0.35, 0.50}) {
    exp::DumbbellConfig cfg = base(opt.full);
    cfg.pert.early_beta = beta;
    add_cell(exp::fmt(beta, "%.2f"), cfg);
  }

  sections.push_back({"gentle vs non-gentle emulated RED curve",
                      "curve", {}, {}});
  for (bool gentle : {true, false}) {
    exp::DumbbellConfig cfg = base(opt.full);
    cfg.pert.gentle = gentle;
    add_cell(gentle ? "gentle" : "non-gentle", cfg);
  }

  sections.push_back({"once-per-RTT early-response limiting", "limit", {}, {}});
  for (bool limit : {true, false}) {
    exp::DumbbellConfig cfg = base(opt.full);
    cfg.pert.limit_once_per_rtt = limit;
    add_cell(limit ? "once-per-rtt" : "unlimited", cfg);
  }

  sections.push_back({"srtt history weight", "alpha", {}, {}});
  for (double a : {0.875, 0.99, 0.995}) {
    exp::DumbbellConfig cfg = base(opt.full);
    cfg.pert.srtt_alpha = a;
    add_cell(exp::fmt(a, "%.3f"), cfg);
  }

  sections.push_back(
      {"co-existence with non-proactive SACK flows (Section 7)",
       "sack fraction", {}, {}});
  for (double f : {0.0, 0.25, 0.5}) {
    exp::DumbbellConfig cfg = base(opt.full);
    cfg.nonproactive_fraction = f;
    add_cell(exp::fmt(f, "%.2f"), cfg);
  }

  sections.push_back({"reverse-path traffic sensitivity (Section 7)",
                      "signal / reverse flows", {}, {}});
  for (std::int32_t rev : {0, 10, 20}) {
    for (bool owd : {false, true}) {
      exp::DumbbellConfig cfg = base(opt.full);
      cfg.num_rev_flows = rev;
      cfg.pert.use_one_way_delay = owd;
      add_cell(std::string(owd ? "one-way delay / " : "rtt / ") +
                   std::to_string(rev),
               cfg);
    }
  }

  sections.push_back(
      {"adaptive pmax (Section 7 self-configuring extension)",
       "pmax mode", {}, {}});
  for (bool adaptive : {false, true}) {
    exp::DumbbellConfig cfg = base(opt.full);
    cfg.pert.adaptive_pmax = adaptive;
    add_cell(adaptive ? "adaptive" : "fixed 0.05", cfg);
  }

  const runner::RunReport report = opt.run(jobs, "ablations");

  const std::vector<const runner::JobResult*> by_cell =
      bench::table_cells(report);
  for (const Section& sec : sections) {
    std::printf("-- %s --\n", sec.title.c_str());
    exp::Table t({sec.label_header, "avg queue (pkts)", "drop rate", "util (%)",
                  "jain", "early responses"});
    for (std::size_t i = 0; i < sec.cells.size(); ++i) {
      const runner::JobResult* r = by_cell[sec.cells[i]];
      if (r == nullptr) {
        t.row({sec.labels[i], "-", "-", "-", "-", "-"});
        continue;
      }
      const exp::WindowMetrics& m = r->metrics;
      t.row({sec.labels[i], exp::fmt(m.avg_queue_pkts, "%.1f"),
             exp::fmt(m.drop_rate, "%.2e"),
             exp::fmt(100 * m.utilization, "%.1f"), exp::fmt(m.jain, "%.3f"),
             std::to_string(m.early_responses)});
    }
    t.print();
    std::printf("\n");
  }
  return opt.finish(report);
}
