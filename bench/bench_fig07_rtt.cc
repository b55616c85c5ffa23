// Figure 7: impact of end-to-end RTT (paper: 150 Mbps, 50 flows,
// RTT 10 ms - 1 s).
//
// Expected shape: PERT's queue and drop rate track SACK/RED-ECN; adaptive
// RED's utilization slightly better than PERT's fixed thresholds; Jain high.
#include "common.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSchemes | bench::kRunner);
  opt.banner("Figure 7: impact of end-to-end RTT",
             "PERT ~ RED-ECN queue/drops; RED-ECN util slightly above PERT; "
             "jain stays high");

  bench::SweepSpec spec;
  spec.name = "fig07_rtt";
  spec.x_name = "rtt";
  spec.xs = opt.full
                ? std::vector<double>{0.010, 0.030, 0.060, 0.100, 0.300, 1.0}
                : std::vector<double>{0.010, 0.030, 0.060, 0.100, 0.300};
  for (double r : spec.xs) spec.x_labels.push_back(exp::fmt(r * 1e3, "%g ms"));
  spec.schemes = opt.schemes_or("pert,sack,sack-red,vegas");
  const double bw = opt.full ? 150e6 : 100e6;
  spec.config = [&](double rtt, const exp::SchemeSpec& s) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = bw;
    cfg.rtt = rtt;
    cfg.num_fwd_flows = 50;
    cfg.start_window = opt.full ? 50.0 : 10.0;
    cfg.seed = 7;
    return cfg;
  };
  spec.window = [&](double rtt) {
    // Long-RTT cases need longer convergence and measurement.
    const double warm = std::max(opt.full ? 100.0 : 20.0, 40.0 * rtt);
    const double meas = std::max(opt.full ? 200.0 : 40.0, 60.0 * rtt);
    return std::pair{warm, meas};
  };
  return opt.finish(bench::run_dumbbell_sweep(spec, opt));
}
