// Figure 9: impact of web (bursty) traffic (paper: 150 Mbps, RTT 60 ms,
// 50 long-term flows, 10 - 1000 web sessions per Feldmann et al.).
//
// Expected shape: PERT keeps the queue low and losses ~0 as web load grows,
// like SACK/RED-ECN; PERT utilization slightly below RED-ECN; jain of the
// long-term flows stays high.
#include "common.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSchemes | bench::kRunner);
  opt.banner("Figure 9: impact of web sessions",
             "queue stays low, ~zero drops for PERT and RED-ECN under "
             "increasing web load; long-term jain high");

  bench::SweepSpec spec;
  spec.name = "fig09_web_traffic";
  spec.x_name = "web sessions";
  spec.xs = opt.full ? std::vector<double>{10, 50, 100, 400, 1000}
                     : std::vector<double>{10, 50, 100, 250};
  for (double n : spec.xs) spec.x_labels.push_back(exp::fmt(n, "%g"));
  spec.schemes = opt.schemes_or("pert,sack,sack-red,vegas");
  const double bw = opt.full ? 150e6 : 100e6;
  spec.config = [&](double n, const exp::SchemeSpec& s) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = bw;
    cfg.rtt = 0.060;
    cfg.num_fwd_flows = 50;
    cfg.num_web_sessions = static_cast<std::int32_t>(n);
    cfg.start_window = opt.full ? 50.0 : 10.0;
    cfg.seed = 9;
    return cfg;
  };
  spec.window = [&](double) {
    return opt.full ? std::pair{100.0, 200.0} : std::pair{20.0, 40.0};
  };
  return opt.finish(bench::run_dumbbell_sweep(spec, opt));
}
