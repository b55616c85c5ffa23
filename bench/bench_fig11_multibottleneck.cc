// Figure 11: multiple bottlenecks (the Figure 10 six-router chain, 150 Mbps
// / 5 ms inter-router links, clouds of 20 hosts, plus cloud1 -> cloud6
// long-haul traffic): per-hop queue, drop rate, utilization, and fairness.
//
// Expected shape: PERT holds low queues and ~zero drops on every hop at
// utilization comparable to SACK/RED-ECN.
//
// Each scheme is one runner::Job (its own Scheduler and chain topology), so
// --jobs 4 runs all four schemes concurrently. A job reports its hop
// averages as the scalar metrics and every hop's numbers as window.hop<h>.*
// gauges in its registry; the per-hop tables print from those, so cells
// recovered by --resume print the same tables as executed ones.
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "exp/multi_bottleneck.h"
#include "exp/table.h"
#include "runner/seed.h"
#include "sweep.h"

namespace {

/// Registry name of hop `h`'s metric `what` (MultiBottleneck's naming).
std::string hop_metric(std::size_t h, const char* what) {
  return "window.hop" + std::to_string(h) + "." + what;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSmoke | bench::kSchemes |
                  bench::kSimThreads | bench::kRunner);
  opt.banner("Figure 11: multiple bottlenecks (6-router chain)",
             "PERT: low queue + zero drops on all hops, util ~ RED-ECN, "
             "fairness maintained");

  const std::vector<exp::SchemeSpec> schemes =
      opt.schemes_or("pert,sack,sack-red,vegas");
  const std::int32_t num_routers = 6;

  std::vector<runner::Job> jobs;
  for (std::size_t j = 0; j < schemes.size(); ++j) {
    exp::MultiBottleneckConfig cfg;
    cfg.scheme = schemes[j];
    cfg.num_routers = num_routers;
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
    const std::string trace_path =
        bench::cell_trace(cfg.obs, opt.trace_dir, job.key);
    job.run = [cfg, warmup, measure, trace_path](const runner::Job&) {
      exp::MultiBottleneck mb(cfg);
      const std::vector<exp::WindowMetrics> hops =
          mb.measure_window(warmup, measure);
      bench::write_cell_trace(mb.obs().tracer(), trace_path);
      runner::JobOutput out;
      out.events = mb.network().total_dispatched();
      // Hop averages are the job's scalar metrics; the registry carries
      // every hop for the tables below.
      for (std::size_t h = 0; h < hops.size(); ++h) {
        const exp::WindowMetrics& m = hops[h];
        out.metrics.avg_queue_pkts += m.avg_queue_pkts / hops.size();
        out.metrics.norm_queue += m.norm_queue / hops.size();
        out.metrics.drop_rate += m.drop_rate / hops.size();
        out.metrics.utilization += m.utilization / hops.size();
        out.metrics.jain += m.jain / hops.size();
        out.registry.gauge(hop_metric(h, "avg_queue_pkts"))
            .set(m.avg_queue_pkts);
        out.registry.gauge(hop_metric(h, "norm_queue")).set(m.norm_queue);
        out.registry.gauge(hop_metric(h, "drop_rate")).set(m.drop_rate);
        out.registry.gauge(hop_metric(h, "utilization")).set(m.utilization);
        out.registry.gauge(hop_metric(h, "jain")).set(m.jain);
      }
      out.metrics.duration = measure;
      return out;
    };
    jobs.push_back(std::move(job));
  }

  const runner::RunReport report = opt.run(jobs, "fig11_multibottleneck");

  // Under --shard only this shard's schemes ran; absent and failed ones
  // print as "-".
  const std::vector<const runner::JobResult*> by_cell =
      bench::table_cells(report);
  for (std::size_t j = 0; j < schemes.size(); ++j) {
    std::printf("scheme: %s\n",
                schemes[j].display.c_str());
    exp::Table t({"hop", "avg queue (pkts)", "drop rate", "utilization (%)",
                  "jain (hop group)"});
    const runner::JobResult* r = by_cell[j];
    for (std::size_t h = 0; h + 1 < static_cast<std::size_t>(num_routers);
         ++h) {
      std::string hop =
          "R" + std::to_string(h + 1) + "-R" + std::to_string(h + 2);
      if (r == nullptr) {
        t.row({std::move(hop), "-", "-", "-", "-"});
        continue;
      }
      const auto gauge = [&](const char* what) {
        return r->registry.gauges().at(hop_metric(h, what)).last();
      };
      t.row({std::move(hop), exp::fmt(gauge("avg_queue_pkts"), "%.1f"),
             exp::fmt(gauge("drop_rate"), "%.2e"),
             exp::fmt(100 * gauge("utilization"), "%.1f"),
             exp::fmt(gauge("jain"), "%.3f")});
    }
    t.print();
    std::printf("\n");
  }
  return opt.finish(report);
}
