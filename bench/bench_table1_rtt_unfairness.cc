// Table 1: flows with different RTTs (12, 24, ..., 120 ms) sharing a
// 150 Mbps bottleneck with 100 background web sessions: normalized average
// queue (Q), drop rate (p), utilization (U), Jain fairness (F).
//
// Expected shape: PERT and Vegas reduce TCP's RTT-unfairness (F well above
// SACK's); PERT's queue and drop rate below both SACK variants.
#include <vector>

#include "common.h"
#include "exp/dumbbell.h"
#include "exp/table.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(argc, argv, bench::kFull);
  opt.banner("Table 1: different RTTs sharing the bottleneck",
             "paper: PERT Q=0.28 p~4e-6 U=93.8 F=0.86 | Sack/DT F=0.44 | "
             "Sack/RED F=0.51 | Vegas Q=0.07 U~100 F=0.98");

  exp::Table t({"scheme", "Q (norm)", "p", "U (%)", "F"});
  for (const exp::SchemeSpec& s :
       exp::parse_scheme_list("pert,sack,sack-red,vegas")) {
    std::fprintf(stderr, "  running %s ...\n", s.display.c_str());
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = opt.full ? 150e6 : 100e6;
    cfg.num_fwd_flows = 10;
    cfg.flow_rtts.clear();
    for (int i = 1; i <= 10; ++i) cfg.flow_rtts.push_back(0.012 * i);
    cfg.rtt = 0.060;  // web sessions + buffer sizing reference
    cfg.num_web_sessions = opt.full ? 100 : 50;
    cfg.start_window = opt.full ? 50.0 : 10.0;
    cfg.seed = 1;
    exp::Dumbbell d(cfg);
    const auto m = opt.full ? d.measure_window(100.0, 200.0) : d.measure_window(25.0, 60.0);
    t.row({s.display, exp::fmt(m.norm_queue, "%.3f"),
           exp::fmt(m.drop_rate, "%.2e"),
           exp::fmt(100 * m.utilization, "%.2f"), exp::fmt(m.jain, "%.3f")});
  }
  t.print();
  return 0;
}
