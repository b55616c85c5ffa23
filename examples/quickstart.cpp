// Quickstart: build a dumbbell, run PERT flows against SACK/DropTail, and
// print the bottleneck metrics — the 60-second version of the paper's story:
// PERT keeps the queue and the loss rate near zero at comparable utilization.
#include <cstdio>

#include "exp/dumbbell.h"
#include "exp/table.h"

int main() {
  using namespace pert;

  exp::Table table({"scheme", "avg queue (pkts)", "drop rate", "utilization",
                    "jain", "early responses"});

  for (const exp::SchemeSpec& scheme :
       exp::parse_scheme_list("pert,sack,sack-red,vegas")) {
    exp::DumbbellConfig cfg;
    cfg.scheme = scheme;
    cfg.bottleneck_bps = 100e6;  // 100 Mbps
    cfg.rtt = 0.060;             // 60 ms
    cfg.num_fwd_flows = 10;
    cfg.start_window = 5.0;
    cfg.seed = 42;

    exp::Dumbbell d(cfg);
    exp::WindowMetrics m = d.measure_window(/*warmup=*/20.0, /*measure=*/40.0);

    table.row({scheme.display,
               exp::fmt(m.avg_queue_pkts, "%.1f"),
               exp::fmt(m.drop_rate, "%.2e"),
               exp::fmt(m.utilization, "%.3f"), exp::fmt(m.jain, "%.3f"),
               std::to_string(m.early_responses)});
  }
  table.print();
  std::puts("\nExpected shape: PERT/RED-ECN near-zero queue+drops; DropTail "
            "high queue; all near full utilization.");
  return 0;
}
