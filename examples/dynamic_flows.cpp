// Dynamic workload walkthrough: cohorts of PERT flows join and leave a
// bottleneck while a CBR (non-responsive) burst comes and goes. Shows the
// library's runtime-topology API (add_flows / stop_flow) and prints a
// 5-second-bin time series of aggregate goodput and queue occupancy.
#include <cstdio>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/table.h"
#include "traffic/cbr_source.h"

int main() {
  using namespace pert;

  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("pert");
  cfg.bottleneck_bps = 30e6;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = 5;
  cfg.start_window = 1.0;
  cfg.seed = 77;
  exp::Dumbbell d(cfg);

  // A non-responsive 10 Mbps CBR source active during [40 s, 60 s),
  // entering at the left router and exiting at the right one.
  net::Network& net = d.network();
  auto* cbr_src_node = net.add_node();
  auto* cbr_dst_node = net.add_node();
  net.add_duplex_droptail(cbr_src_node, net.node(0), 100e6, 0.001, 1000);
  net.add_duplex_droptail(net.node(1), cbr_dst_node, 100e6, 0.001, 1000);
  net.add_agent<traffic::NullSink>(cbr_dst_node, 1);
  auto* cbr = net.add_agent<traffic::CbrSource>(nullptr, 0, net, 900, 10e6);
  cbr_src_node->bind(*cbr, 1);
  cbr->connect(cbr_dst_node->id(), 1);
  net.compute_routes();
  net.sched().schedule_at(40.0, [cbr] { cbr->start(40.0); });
  net.sched().schedule_at(60.0, [cbr] { cbr->stop(); });

  // Second PERT cohort joins at t=20 s and leaves at t=80 s.
  std::vector<std::int32_t> cohort2;
  net.sched().schedule_at(20.0, [&] { cohort2 = d.add_flows(5, 20.0); });
  net.sched().schedule_at(80.0, [&] {
    for (std::int32_t i : cohort2) d.stop_flow(i);
  });

  exp::Table t({"t (s)", "goodput c1 (Mbps)", "goodput c2 (Mbps)",
                "cbr active", "queue (pkts)"});
  std::vector<std::int64_t> acked(10, 0);
  auto goodput = [&](std::int32_t lo, std::int32_t hi, double dt) {
    double bits = 0;
    for (std::int32_t i = lo; i < hi && i < d.num_fwd(); ++i) {
      const std::int64_t a = d.flow_acked(i);
      bits += static_cast<double>(a - acked[i]) * 8 * cfg.tcp.seg_payload;
      acked[i] = a;
    }
    return bits / dt / 1e6;
  };

  for (double now = 5.0; now <= 100.0; now += 5.0) {
    net.run_until(now);
    t.row({exp::fmt(now, "%.0f"), exp::fmt(goodput(0, 5, 5.0), "%.1f"),
           exp::fmt(goodput(5, 10, 5.0), "%.1f"),
           (now > 40 && now <= 60) ? "yes" : "no",
           std::to_string(d.fwd_queue().len_pkts())});
  }
  t.print();
  std::puts("\nExpect: c1 ~ 28 Mbps alone; fair split with c2 after t=20;"
            "\nboth shrink while the 10 Mbps CBR burst runs (40-60 s);"
            "\nc1 reclaims the link after c2 leaves at t=80.");
  return 0;
}
