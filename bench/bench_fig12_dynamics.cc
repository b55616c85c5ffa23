// Figure 12: dynamic protocol behavior. Cohorts of 25 flows join at fixed
// intervals (severe contention), then leave one cohort at a time (sudden
// bandwidth availability). Prints the aggregate throughput time series of
// each cohort.
//
// Expected shape: after each arrival/departure the per-cohort aggregates
// converge quickly toward the fair split (PERT responds fast); Vegas shows
// persistent unfairness between cohorts.
#include <string>
#include <vector>

#include "common.h"
#include "exp/dumbbell.h"
#include "exp/table.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(argc, argv, bench::kFull);
  opt.banner("Figure 12: response to sudden changes in responsive traffic",
             "cohort aggregates re-converge quickly after each join/leave "
             "for PERT; Vegas cohorts stay unfair");

  const std::int32_t kCohort = opt.full ? 25 : 10;
  const double interval = opt.full ? 100.0 : 40.0;
  const double bin = interval / 10.0;
  const double bw = opt.full ? 150e6 : 50e6;

  for (const exp::SchemeSpec& s : exp::parse_scheme_list("pert,vegas,sack")) {
    std::fprintf(stderr, "  running %s ...\n", s.display.c_str());
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = bw;
    cfg.rtt = 0.060;
    cfg.num_fwd_flows = kCohort;  // cohort 1 at t=0
    cfg.start_window = 1.0;
    cfg.seed = 12;
    exp::Dumbbell d(cfg);

    // Cohorts 2..4 join at interval boundaries; then leave in join order.
    std::vector<std::vector<std::int32_t>> cohorts(4);
    for (std::int32_t i = 0; i < kCohort; ++i) cohorts[0].push_back(i);
    struct Event {
      double t;
      int join_cohort;   // -1 = none
      int leave_cohort;  // -1 = none
    };
    std::vector<Event> events;
    for (int c = 1; c <= 3; ++c)
      events.push_back({c * interval, c, -1});
    for (int c = 0; c <= 2; ++c)
      events.push_back({(4 + c) * interval, -1, c});
    const double total = 7 * interval;

    std::printf("scheme: %s (cohort size %d, %gs intervals)\n",
                s.display.c_str(), kCohort, interval);
    exp::Table t({"time (s)", "cohort1 (Mbps)", "cohort2 (Mbps)",
                  "cohort3 (Mbps)", "cohort4 (Mbps)"});

    std::size_t next_event = 0;
    std::vector<std::int64_t> last_acked(4 * kCohort, 0);
    auto cohort_tput = [&](int c, double dt) {
      double bits = 0;
      for (std::int32_t i : cohorts[c]) {
        const std::int64_t a = d.flow_acked(i);
        bits += static_cast<double>(a - last_acked[i]) * 8 *
                cfg.tcp.seg_payload;
        last_acked[i] = a;
      }
      return bits / dt / 1e6;
    };

    for (double now = bin; now <= total + 1e-9; now += bin) {
      while (next_event < events.size() && events[next_event].t <= now - bin + 1e-9) {
        const Event& e = events[next_event++];
        if (e.join_cohort >= 0) {
          const auto idx = d.add_flows(kCohort, e.t);
          cohorts[e.join_cohort] = idx;
          last_acked.resize(d.num_fwd(), 0);
        }
        if (e.leave_cohort >= 0)
          for (std::int32_t i : cohorts[e.leave_cohort]) d.stop_flow(i);
      }
      d.network().run_until(now);
      std::vector<std::string> row{exp::fmt(now, "%.0f")};
      for (int c = 0; c < 4; ++c)
        row.push_back(exp::fmt(cohort_tput(c, bin), "%.1f"));
      t.row(std::move(row));
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}
