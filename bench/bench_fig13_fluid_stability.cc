// Figure 13: the PERT fluid model.
//   (a) minimum stable sampling interval delta vs the lower bound N- on the
//       number of flows (C = 10 Mbps = 1000 pkt/s, R+ = 200 ms, pmax = 0.1,
//       Tmax = 100 ms, Tmin = 50 ms, alpha = 0.99)  — eq. (13);
//   (b)-(d) DDE trajectories of (14) at R = 100 / 160 / 171 ms
//       (C = 100 pkt/s, N = 5, delta = 0.1 ms): stable, stable after
//       decaying oscillations, and persistently oscillating.
#include <cmath>

#include "common.h"
#include "exp/table.h"
#include "fluid/pert_model.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(argc, argv, bench::kFull);
  opt.banner("Figure 13: fluid model of PERT",
             "(a) delta_min decreases toward ~0.1 s by N-=40; (b) R=100ms "
             "monotone stable; (c) R=160ms decaying oscillations; (d) "
             "R=171ms persistent oscillations");

  // ---- (a) minimum delta vs N- ----
  {
    fluid::PertModelParams p;
    p.rtt = 0.200;
    p.capacity = 1000;  // 10 Mbps at 1250-byte packets
    p.p_max = 0.1;
    p.t_max = 0.100;
    p.t_min = 0.050;
    p.alpha = 0.99;
    exp::Table t({"N-", "min delta (s)"});
    for (double n : {1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0,
                     45.0, 50.0}) {
      p.n_flows = n;
      t.row({exp::fmt(n, "%g"), exp::fmt(fluid::min_delta(p), "%.4f")});
    }
    std::printf("(a) minimum sampling interval vs N-\n");
    t.print();
    std::printf("\n");
  }

  // ---- (b)-(d) trajectories ----
  fluid::PertModelParams p;
  p.capacity = 100;  // 1 Mbps at 1250-byte packets
  p.n_flows = 5;
  p.p_max = 0.1;
  p.t_max = 0.100;
  p.t_min = 0.050;
  p.alpha = 0.99;
  p.delta = 1e-4;

  const double duration = opt.full ? 500.0 : 300.0;
  for (double r : {0.100, 0.160, 0.171}) {
    p.rtt = r;
    const auto eq = fluid::equilibrium(p);
    const bool thm1 = fluid::thm1_stable(p);
    const auto traj = fluid::simulate(p, duration, {1, 1, 1}, 5e-4, 10.0);
    const double tail = fluid::tail_window_error(traj, p);
    std::printf("R = %.0f ms: Theorem 1 %s, W* = %.2f pkts, "
                "tail window error = %.3f -> %s\n",
                r * 1e3, thm1 ? "satisfied" : "violated", eq.window, tail,
                tail < 0.10 ? "STABLE" : "OSCILLATING");
    exp::Table t({"t (s)", "W (pkts)", "Tq inst (s)", "Tq smooth (s)"});
    for (std::size_t i = 0; i < traj.size(); i += 3) {
      const auto& pt = traj[i];
      t.row({exp::fmt(pt.t, "%.0f"), exp::fmt(pt.window, "%.3f"),
             exp::fmt(pt.tq_inst, "%.4f"), exp::fmt(pt.tq_smooth, "%.4f")});
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
