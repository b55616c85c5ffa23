// Extension: the paper's generality claim ("other AQM schemes can be
// potentially emulated at the end-host") carried out as a genuine
// cross-product sweep: every congestion-control module in the set runs
// against every bottleneck discipline in the set, one runner job per
// (cc, qdisc) cell. The paper's three emulation-vs-router pairs fall out of
// the product (pert/droptail vs sack/red, pert-pi/droptail vs sack/pi,
// pert-rem/droptail vs sack/rem); the extra rows show how the zoo (CUBIC,
// DCTCP senders; CoDel, FQ-CoDel, PIE disciplines) behaves on the same path.
//
// Cell keys are "ext_aqm/cc=<cc>/qdisc=<qdisc>" and each cell's seed is
// derived from the key, so the grid is bit-identical for any --jobs value.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "exp/dumbbell.h"
#include "exp/scheme.h"
#include "exp/table.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSmoke |
                  bench::kSimThreads | bench::kRunner);
  opt.banner("Extension: end-host emulation vs the router AQM zoo",
             "each end-host emulation over DropTail tracks its router "
             "counterpart; the cross product shows every cc x qdisc cell");

  const std::vector<std::string> ccs =
      opt.smoke ? std::vector<std::string>{"pert", "sack"}
                : std::vector<std::string>{"pert",  "pert-pi", "pert-rem",
                                           "sack",  "cubic",   "dctcp"};
  const std::vector<std::string> qdiscs =
      opt.smoke ? std::vector<std::string>{"droptail", "red"}
      : opt.full
          ? std::vector<std::string>{"droptail", "red", "pi", "rem", "avq",
                                     "codel", "fq-codel", "pie"}
          : std::vector<std::string>{"droptail", "red", "pi", "rem", "codel",
                                     "pie"};

  std::vector<exp::SchemeSpec> cells;
  for (const std::string& cc : ccs)
    for (const std::string& qd : qdiscs)
      cells.push_back(exp::parse_scheme_spec(cc + "/" + qd));

  std::vector<runner::Job> jobs;
  for (const exp::SchemeSpec& s : cells) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = opt.full ? 150e6 : 50e6;
    cfg.rtt = 0.060;
    cfg.num_fwd_flows = 25;
    cfg.num_web_sessions = opt.smoke ? 0 : 25;
    cfg.start_window = opt.full ? 50.0 : 5.0;
    cfg.seed = 31;
    cfg.sim_threads = static_cast<std::int32_t>(opt.sim_threads);
    const auto [warmup, measure] = opt.full    ? std::pair{100.0, 200.0}
                                   : opt.smoke ? std::pair{5.0, 10.0}
                                               : std::pair{20.0, 60.0};
    jobs.push_back(bench::dumbbell_job(
        "ext_aqm/cc=" + s.cc + "/qdisc=" + s.qdisc,
        {{"cc", s.cc}, {"qdisc", s.qdisc}}, cfg, warmup, measure,
        opt.trace_dir));
  }

  const runner::RunReport report = opt.run(jobs, "ext_aqm_generality");

  exp::Table t({"scheme", "where", "avg queue (pkts)", "drop rate",
                "ECN marks", "util (%)", "jain", "early resp."});
  // Under --shard only this shard's cells ran; absent and failed cells
  // print as "-".
  const std::vector<const runner::JobResult*> by_cell =
      bench::table_cells(report);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const exp::SchemeSpec& s = cells[i];
    const runner::JobResult* r = by_cell[i];
    if (r == nullptr) {
      t.row({s.display, "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const exp::WindowMetrics& m = r->metrics;
    t.row({s.display, s.router_aqm() ? "router" : "end-host",
           exp::fmt(m.avg_queue_pkts, "%.1f"), exp::fmt(m.drop_rate, "%.2e"),
           std::to_string(m.ecn_marks), exp::fmt(100 * m.utilization, "%.1f"),
           exp::fmt(m.jain, "%.3f"), std::to_string(m.early_responses)});
  }
  t.print();
  return opt.finish(report);
}
