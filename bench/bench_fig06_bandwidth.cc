// Figure 6: impact of bottleneck link bandwidth (paper: 1 Mbps - 1 Gbps,
// RTT 60 ms, flow count scaled so the link can be utilized).
//
// Expected shape: PERT's average queue and drop rate track SACK/RED-ECN
// (both far below SACK/DropTail); PERT utilization dips at small bandwidths
// (short buffers) but matches elsewhere; PERT Jain ~ 1, Vegas Jain low.
#include "common.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSchemes | bench::kRunner);
  opt.banner("Figure 6: impact of bottleneck bandwidth",
             "PERT ~ RED-ECN on queue/drops; DropTail queue high; "
             "PERT jain ~1, Vegas jain low");

  bench::SweepSpec spec;
  spec.name = "fig06_bandwidth";
  spec.x_name = "bandwidth";
  if (opt.full)
    spec.xs = {1e6, 10e6, 100e6, 500e6, 1000e6};
  else
    spec.xs = {1e6, 5e6, 25e6, 100e6, 250e6};
  for (double bw : spec.xs)
    spec.x_labels.push_back(exp::fmt(bw / 1e6, "%g Mbps"));
  spec.schemes = opt.schemes_or("pert,sack,sack-red,vegas");
  spec.config = [&](double bw, const exp::SchemeSpec& s) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = bw;
    cfg.rtt = 0.060;
    // Scale the flow population with capacity so the link can be filled.
    cfg.num_fwd_flows = static_cast<std::int32_t>(
        std::max(10.0, std::min(opt.full ? 500.0 : 250.0, bw / 1e6)));
    cfg.start_window = opt.full ? 50.0 : 10.0;
    cfg.seed = 20070827;
    return cfg;
  };
  spec.window = [&](double) {
    return opt.full ? std::pair{100.0, 200.0} : std::pair{25.0, 50.0};
  };
  return opt.finish(bench::run_dumbbell_sweep(spec, opt));
}
