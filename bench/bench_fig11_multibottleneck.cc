// Figure 11: multiple bottlenecks (the Figure 10 six-router chain, 150 Mbps
// / 5 ms inter-router links, clouds of 20 hosts, plus cloud1 -> cloud6
// long-haul traffic): per-hop queue, drop rate, utilization, and fairness.
//
// Expected shape: PERT holds low queues and ~zero drops on every hop at
// utilization comparable to SACK/RED-ECN.
//
// Each scheme is one runner::Job (its own Scheduler and chain topology), so
// --jobs 4 runs all four schemes concurrently; per-hop tables print from the
// collected results in scheme order. The per-scheme JSON metrics carry the
// hop averages; the full hop tables stay on stdout.
#include <vector>

#include "common.h"
#include "exp/multi_bottleneck.h"
#include "exp/table.h"
#include "runner/seed.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(argc, argv);
  opt.banner("Figure 11: multiple bottlenecks (6-router chain)",
             "PERT: low queue + zero drops on all hops, util ~ RED-ECN, "
             "fairness maintained");

  const std::vector<exp::SchemeSpec> schemes =
      exp::parse_scheme_list("pert,sack,sack-red,vegas");

  // Per-hop results come back through a side channel: each job writes only
  // its own pre-sized slot, so no synchronization is needed beyond join.
  std::vector<std::vector<exp::HopMetrics>> hops(schemes.size());

  std::vector<runner::Job> jobs;
  for (std::size_t j = 0; j < schemes.size(); ++j) {
    exp::MultiBottleneckConfig cfg;
    cfg.scheme = schemes[j];
    cfg.num_routers = 6;
    cfg.hosts_per_cloud = opt.smoke ? 4 : opt.full ? 20 : 10;
    cfg.router_link_bps = opt.smoke ? 50e6 : opt.full ? 150e6 : 100e6;
    cfg.router_link_delay = 0.005;
    cfg.access_bps = 1e9;
    cfg.access_delay = 0.005;
    cfg.start_window = opt.smoke ? 2.0 : opt.full ? 50.0 : 10.0;
    cfg.sim_threads = static_cast<std::int32_t>(opt.sim_threads);
    const double warmup = opt.smoke ? 5.0 : opt.full ? 100.0 : 20.0;
    const double measure = opt.smoke ? 10.0 : opt.full ? 200.0 : 40.0;

    runner::Job job;
    job.key = "fig11_multibottleneck/" + schemes[j].display;
    job.seed = runner::derive_seed(11, job.key);
    job.tags = {{"scheme", schemes[j].display}};
    cfg.seed = job.seed;
    job.run = [cfg, warmup, measure, &slot = hops[j]](const runner::Job&) {
      exp::MultiBottleneck mb(cfg);
      slot = mb.measure_window(warmup, measure);
      runner::JobOutput out;
      out.events = mb.network().total_dispatched();
      // Report hop averages as the job's scalar metrics (tables below carry
      // the full per-hop detail).
      for (const exp::HopMetrics& h : slot) {
        out.metrics.avg_queue_pkts += h.avg_queue_pkts / slot.size();
        out.metrics.norm_queue += h.norm_queue / slot.size();
        out.metrics.drop_rate += h.drop_rate / slot.size();
        out.metrics.utilization += h.utilization / slot.size();
        out.metrics.jain += h.jain / slot.size();
      }
      out.metrics.duration = measure;
      return out;
    };
    jobs.push_back(std::move(job));
  }

  runner::RunnerOptions ropts = opt.runner();
  ropts.name = "fig11_multibottleneck";
  const runner::RunReport report = runner::ExperimentRunner(ropts).run(jobs);

  for (std::size_t j = 0; j < schemes.size(); ++j) {
    std::printf("scheme: %s\n",
                schemes[j].display.c_str());
    exp::Table t({"hop", "avg queue (pkts)", "drop rate", "utilization (%)",
                  "jain (hop group)"});
    for (std::size_t h = 0; h < hops[j].size(); ++h)
      t.row({"R" + std::to_string(h + 1) + "-R" + std::to_string(h + 2),
             exp::fmt(hops[j][h].avg_queue_pkts, "%.1f"),
             exp::fmt(hops[j][h].drop_rate, "%.2e"),
             exp::fmt(100 * hops[j][h].utilization, "%.1f"),
             exp::fmt(hops[j][h].jain, "%.3f")});
    t.print();
    std::printf("\n");
  }
  opt.export_report(report);
  return 0;
}
