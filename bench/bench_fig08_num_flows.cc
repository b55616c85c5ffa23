// Figure 8: impact of the number of long-term flows (paper: 500 Mbps,
// RTT 60 ms, 1 - 1000 flows).
//
// Expected shape: PERT queue/drops ~ RED-ECN even at 1000 flows; Vegas queue
// and drops grow with the flow count (it pins alpha..beta packets per flow);
// Vegas jain low, PERT jain high.
#include "common.h"
#include "sweep.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSmoke | bench::kSchemes |
                  bench::kSimThreads | bench::kRunner);
  opt.banner("Figure 8: impact of the number of long-term flows",
             "Vegas queue grows with N; PERT stays low ~ RED-ECN; "
             "PERT jain high even at large N");

  bench::SweepSpec spec;
  spec.name = "fig08_num_flows";
  spec.x_name = "flows";
  spec.xs = opt.smoke ? std::vector<double>{2, 4, 8}
            : opt.full ? std::vector<double>{1, 10, 50, 100, 400, 1000}
                       : std::vector<double>{1, 10, 50, 100, 400};
  for (double n : spec.xs) spec.x_labels.push_back(exp::fmt(n, "%g"));
  spec.schemes =
      opt.schemes_or(opt.smoke ? "pert,sack" : "pert,sack,sack-red,vegas");
  const double bw = opt.smoke ? 20e6 : opt.full ? 500e6 : 250e6;
  spec.config = [&](double n, const exp::SchemeSpec& s) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = bw;
    cfg.rtt = 0.060;
    cfg.num_fwd_flows = static_cast<std::int32_t>(n);
    cfg.start_window = opt.smoke ? 2.0 : opt.full ? 50.0 : 10.0;
    cfg.seed = 8;
    cfg.sim_threads = static_cast<std::int32_t>(opt.sim_threads);
    return cfg;
  };
  spec.window = [&](double) {
    return opt.smoke ? std::pair{5.0, 10.0}
           : opt.full ? std::pair{100.0, 200.0}
                      : std::pair{20.0, 40.0};
  };
  return opt.finish(bench::run_dumbbell_sweep(spec, opt));
}
