// AQM comparison: run every scheme in the registry — end-host (PERT,
// PERT-PI, Vegas) and router-based (RED-ECN, PI-ECN) — over the same
// heterogeneous workload (long-term flows with mixed RTTs + web sessions)
// and print a side-by-side comparison.
//
// This is the paper's core claim in one program: emulating AQM at end hosts
// gets you router-AQM queueing behavior without touching the routers.
#include <cstdio>
#include <string>

#include "exp/dumbbell.h"
#include "exp/table.h"

int main() {
  using namespace pert;

  exp::Table t({"scheme", "router support?", "avg queue (pkts)", "drop rate",
                "ECN marks", "util (%)", "jain", "early resp."});

  for (const exp::SchemeSpec& scheme : exp::parse_scheme_list(
           "pert,pert-pi,pert-rem,vegas,sack-red,sack-pi,sack-rem,sack-avq,"
           "sack")) {
    std::fprintf(stderr, "running %s ...\n", scheme.display.c_str());
    exp::DumbbellConfig cfg;
    cfg.scheme = scheme;
    cfg.bottleneck_bps = 50e6;
    cfg.rtt = 0.080;
    cfg.flow_rtts = {0.040, 0.060, 0.080, 0.100, 0.120};
    cfg.num_fwd_flows = 15;
    cfg.num_web_sessions = 25;
    cfg.start_window = 5.0;
    cfg.seed = 2024;

    exp::Dumbbell d(cfg);
    const exp::WindowMetrics m = d.measure_window(20.0, 60.0);
    t.row({scheme.display,
           scheme.router_aqm() ? "yes (AQM queue)" : "no (DropTail)",
           exp::fmt(m.avg_queue_pkts, "%.1f"), exp::fmt(m.drop_rate, "%.2e"),
           std::to_string(m.ecn_marks), exp::fmt(100 * m.utilization, "%.1f"),
           exp::fmt(m.jain, "%.3f"), std::to_string(m.early_responses)});
  }
  t.print();
  std::puts("\nPERT rows should look like the RED-ECN/PI-ECN rows (low queue,"
            " ~zero drops)\nwhile running over plain DropTail routers.");
  return 0;
}
