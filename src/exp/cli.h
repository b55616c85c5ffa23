// The scenario keys of pert_sim: one dumbbell scenario written as key=value
// tokens, e.g.
//
//   scheme=pert,cubic/codel bw=100M rtt=60 flows=10 impair=loss:p=0.01
//
// add_scenario_keys registers every key on a cli::OptionSet, so the key
// list, its parsing and its --help text live in one place (cli.cc).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/option_set.h"
#include "exp/scheme.h"

namespace pert::exp {

struct CliOptions {
  DumbbellConfig cfg;
  /// Every scheme named by the scheme= key, in order (cfg.scheme is the
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
/// merging with whatever is already set (so repeated impair= keys compose).
/// Throws std::invalid_argument naming the bad model, key, or value.
void parse_impairment(std::string_view spec, net::ImpairmentConfig& out);

/// Registers the scenario keys on `keys`, bound to `out`, with the check
/// that the parsed scenario is runnable (flows >= 1, and warmup and measure
/// pass require_runnable_window). Unknown scheme names are reported with
/// the converter's did-you-mean message.
void add_scenario_keys(cli::OptionSet& keys, CliOptions& out);

}  // namespace pert::exp
