// key=value command-line configuration for simulation drivers.
//
// Grammar (one token per argument, order-insensitive):
//   scheme=<spec>    a paper scheme alias (exp::scheme_aliases()) or any
//          registered "cc/qdisc" pair, e.g. scheme=cubic/codel or
//          scheme=dctcp/red+ecn ("+ecn"/"-ecn" overrides the default; run
//          `pert_sim schemes` for the aliases and module lists). A comma
//          list runs one scenario per scheme, e.g. scheme=pert,cubic/pie.
//   bw=<rate>        link rate: plain bits/s or with k/M/G suffix (150M)
//   rtt=<ms>         end-to-end RTT in milliseconds
//   rtts=<ms,ms,..>  per-flow RTT list (overrides rtt for long-term flows)
//   flows=<n> rev_flows=<n> web=<n> buffer=<pkts> seed=<n>
//   warmup=<s> measure=<s> start_window=<s>
//   sack_fraction=<0..1>   fraction of flows forced to plain SACK
//   beta=<0..1> pmax=<0..1> gentle=0|1 owd=0|1 adaptive=0|1
//   trace_out=<path>       record the tagged flow's trace (pert-trace v1)
//   series_out=<path>      bottleneck queue length as "t,value" CSV lines,
//                          one per observability sample
//   trace=<path>           structured event trace (Chrome trace_event JSON)
//   metrics=<path>         metric-registry snapshot JSON (the RunReport's
//                          registry encoding)
//   obs_interval=<ms>      observability sampling cadence, which also paces
//                          series_out (default 100)
//   impair=<model>:<k=v>,<k=v>...   composable; repeat for several models:
//     impair=loss:p=0.01
//     impair=gilbert:enter=0.005,exit=0.3[,loss_bad=1][,loss_good=0]
//     impair=reorder:p=0.05,min_ms=2,max_ms=10
//     impair=jitter:max_ms=5
//     impair=biterror:ber=1e-7
//     impair=flap:first=30,down=2[,period=10][,count=3]
//
// Unknown keys and malformed values throw std::invalid_argument with a
// message naming the offending token; unknown scheme names throw
// sim::ConfigError from parse_scheme_spec.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/scheme.h"

namespace pert::exp {

struct CliOptions {
  DumbbellConfig cfg;
  /// Every scheme named by the scheme= token, in order (cfg.scheme is the
  /// first). Drivers run one scenario per entry; size > 1 only when the user
  /// passed a comma list.
  std::vector<SchemeSpec> schemes{parse_scheme_spec("pert")};
  double warmup = 20.0;
  double measure = 40.0;
  std::string trace_out;
  std::string series_out;
  /// Structured observability outputs (empty = off). When set, cfg.obs is
  /// enabled accordingly so the scenario records events / metrics.
  std::string trace_json;
  std::string metrics_json;
};

/// Parses a rate like "150M", "2.5G", "64k", or "1000000".
double parse_rate(std::string_view s);

/// Parses one impair= specification ("model:key=value,...") into `out`,
/// merging with whatever is already set (so repeated impair= tokens compose).
/// Throws std::invalid_argument naming the bad model, key, or value.
void parse_impairment(std::string_view spec, net::ImpairmentConfig& out);

/// Parses the whole argument list (each element one "key=value" token).
CliOptions parse_cli(const std::vector<std::string>& args);

/// One-line usage string for drivers.
std::string cli_usage();

}  // namespace pert::exp
