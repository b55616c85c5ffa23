// Shared scenario for the Section 2 measurement study (Figures 2, 3, 4):
// a 100 Mbps / 20 ms-bottleneck dumbbell with a 750-packet queue, long-term
// SACK flows in both directions with heterogeneous RTTs plus web sessions;
// one tagged 60 ms flow records its per-ACK trace.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "exp/dumbbell.h"
#include "predictors/classic.h"
#include "predictors/trace_recorder.h"

namespace pert::bench {

struct CaseSpec {
  std::string name;
  std::int32_t long_term;  ///< total long-term flows (split fwd/rev)
  std::int32_t web;
};

inline std::vector<CaseSpec> paper_cases(bool full) {
  if (full)
    return {{"case1", 50, 100},  {"case2", 50, 500},  {"case3", 50, 1000},
            {"case4", 100, 100}, {"case5", 100, 500}, {"case6", 100, 1000}};
  // Reduced grid: lighter long-term load with proportionally heavier web
  // bursts, so both regimes appear — clean loss-terminated episodes *and*
  // web-burst episodes that dissolve without loss (the false-positive
  // source Figures 3/4 are about).
  return {{"case1", 4, 60},   {"case2", 10, 60},  {"case3", 10, 120},
          {"case4", 20, 60},  {"case5", 20, 100}, {"case6", 40, 100}};
}

/// Tagged-flow RTT (the paper observes a 60 ms flow, threshold 65 ms).
inline constexpr double kTaggedRtt = 0.060;
inline constexpr double kRttThreshold = 0.065;

/// Runs one case and returns the tagged flow's trace.
inline predictors::FlowTrace record_case(const CaseSpec& c, bool full,
                                         std::uint64_t seed = 2) {
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("sack");
  cfg.bottleneck_bps = 100e6;
  cfg.rtt = kTaggedRtt;
  cfg.buffer_pkts = 750;
  // Heterogeneous RTTs; index 0 keeps the tagged 60 ms path.
  cfg.flow_rtts = {kTaggedRtt, 0.030, 0.045, 0.080, 0.100, 0.120, 0.150};
  cfg.num_fwd_flows = c.long_term / 2;
  cfg.num_rev_flows = c.long_term - c.long_term / 2;
  cfg.num_web_sessions = c.web;
  cfg.start_window = 10.0;
  cfg.seed = seed;
  exp::Dumbbell d(cfg);

  const double warmup = 20.0;
  const double duration = full ? 1000.0 : 120.0;
  d.network().run_until(warmup);  // instrument only after convergence
  predictors::TraceRecorder rec(d.fwd_sender(0), d.fwd_queue());
  d.network().run_until(warmup + duration);
  return rec.take();
}

}  // namespace pert::bench
