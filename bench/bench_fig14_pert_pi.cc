// Figure 14: emulating PI at end hosts. PERT-PI vs router-based PI with ECN
// vs SACK/DropTail across the RTT sweep (150 Mbps, 50 flows, 3 ms target
// delay), as in the Section 6.1 preliminary evaluation.
//
// Expected shape: PERT-PI utilization and average queue similar to router
// PI/ECN; both avoid packet drops; fairness comparable (PERT-PI slightly
// worse at low RTT, slightly better at high RTT).
#include "common.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSchemes | bench::kRunner);
  opt.banner("Figure 14: emulating PI at end hosts",
             "PERT-PI ~ router PI/ECN on queue/util; both ~zero drops");

  bench::SweepSpec spec;
  spec.name = "fig14_pert_pi";
  spec.x_name = "rtt";
  spec.xs = opt.full
                ? std::vector<double>{0.010, 0.030, 0.060, 0.100, 0.300, 1.0}
                : std::vector<double>{0.010, 0.030, 0.060, 0.100, 0.300};
  for (double r : spec.xs) spec.x_labels.push_back(exp::fmt(r * 1e3, "%g ms"));
  spec.schemes = opt.schemes_or("pert-pi,sack-pi,sack");
  const double bw = opt.full ? 150e6 : 100e6;
  spec.config = [&](double rtt, const exp::SchemeSpec& s) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = bw;
    cfg.rtt = rtt;
    cfg.num_fwd_flows = 50;
    cfg.pi_target_delay = 0.003;
    cfg.start_window = opt.full ? 50.0 : 10.0;
    cfg.seed = 14;
    return cfg;
  };
  spec.window = [&](double rtt) {
    const double warm = std::max(opt.full ? 100.0 : 20.0, 40.0 * rtt);
    const double meas = std::max(opt.full ? 200.0 : 40.0, 60.0 * rtt);
    return std::pair{warm, meas};
  };
  return opt.finish(bench::run_dumbbell_sweep(spec, opt));
}
