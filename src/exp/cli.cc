#include "exp/cli.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace pert::exp {

namespace {

std::vector<double> parse_ms_list(std::string_view s) {
  std::vector<double> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(cli::parse_double(s.substr(pos, comma - pos)) * 1e-3);
    if (comma == std::string_view::npos) return out;
    pos = comma + 1;
  }
}

double parse_prob(std::string_view s, std::string_view what) {
  const double v = cli::parse_double(s);
  if (v < 0.0 || v > 1.0)
    throw std::invalid_argument(std::string(what) + " must be in [0,1], got " +
                                std::string(s));
  return v;
}

double parse_nonneg(std::string_view s, std::string_view what) {
  const double v = cli::parse_double(s);
  if (v < 0.0)
    throw std::invalid_argument(std::string(what) + " must be >= 0, got " +
                                std::string(s));
  return v;
}

/// Splits "k=v,k=v,..." into pairs; every element must contain '='.
std::vector<std::pair<std::string_view, std::string_view>> split_kv(
    std::string_view s, std::string_view what) {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string_view tok =
        s.substr(pos, comma == std::string_view::npos ? s.size() - pos
                                                      : comma - pos);
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw std::invalid_argument("expected key=value in " + std::string(what) +
                                  " parameters, got: " + std::string(tok));
    out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

void parse_impairment(std::string_view spec, net::ImpairmentConfig& out) {
  const std::size_t colon = spec.find(':');
  const std::string_view model =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);
  const std::string_view params =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);
  if (model.empty() || params.empty())
    throw std::invalid_argument(
        "impair needs <model>:<key=value,...>, got: " + std::string(spec));
  const auto kvs = split_kv(params, "impair " + std::string(model));

  if (model == "loss") {
    for (const auto& [k, v] : kvs) {
      if (k == "p") out.loss.p = parse_prob(v, "loss p");
      else
        throw std::invalid_argument("unknown impair loss key: " +
                                    std::string(k));
    }
  } else if (model == "gilbert") {
    for (const auto& [k, v] : kvs) {
      if (k == "enter")
        out.gilbert.p_enter_bad = parse_prob(v, "gilbert enter");
      else if (k == "exit")
        out.gilbert.p_exit_bad = parse_prob(v, "gilbert exit");
      else if (k == "loss_bad")
        out.gilbert.loss_bad = parse_prob(v, "gilbert loss_bad");
      else if (k == "loss_good")
        out.gilbert.loss_good = parse_prob(v, "gilbert loss_good");
      else
        throw std::invalid_argument("unknown impair gilbert key: " +
                                    std::string(k));
    }
  } else if (model == "reorder") {
    for (const auto& [k, v] : kvs) {
      if (k == "p") out.reorder.p = parse_prob(v, "reorder p");
      else if (k == "min_ms")
        out.reorder.min_delay = parse_nonneg(v, "reorder min_ms") * 1e-3;
      else if (k == "max_ms")
        out.reorder.max_delay = parse_nonneg(v, "reorder max_ms") * 1e-3;
      else
        throw std::invalid_argument("unknown impair reorder key: " +
                                    std::string(k));
    }
  } else if (model == "jitter") {
    for (const auto& [k, v] : kvs) {
      if (k == "max_ms")
        out.jitter.max_delay = parse_nonneg(v, "jitter max_ms") * 1e-3;
      else
        throw std::invalid_argument("unknown impair jitter key: " +
                                    std::string(k));
    }
  } else if (model == "biterror") {
    for (const auto& [k, v] : kvs) {
      if (k == "ber") out.bit_error.ber = parse_prob(v, "biterror ber");
      else
        throw std::invalid_argument("unknown impair biterror key: " +
                                    std::string(k));
    }
  } else if (model == "flap") {
    for (const auto& [k, v] : kvs) {
      if (k == "first") out.flap.first_down = parse_nonneg(v, "flap first");
      else if (k == "down")
        out.flap.down_for = parse_nonneg(v, "flap down");
      else if (k == "period")
        out.flap.period = parse_nonneg(v, "flap period");
      else if (k == "count")
        out.flap.count = cli::parse_int<std::int32_t>(v);
      else
        throw std::invalid_argument("unknown impair flap key: " +
                                    std::string(k));
    }
    if (out.flap.down_for <= 0)
      throw std::invalid_argument("impair flap: down must be > 0");
  } else {
    throw std::invalid_argument(
        "unknown impair model: " + std::string(model) +
        " (expected loss|gilbert|reorder|jitter|biterror|flap)");
  }
}

double parse_rate(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("empty rate");
  double mult = 1.0;
  std::string_view num = s;
  switch (s.back()) {
    case 'k': case 'K': mult = 1e3; num = s.substr(0, s.size() - 1); break;
    case 'M': mult = 1e6; num = s.substr(0, s.size() - 1); break;
    case 'G': mult = 1e9; num = s.substr(0, s.size() - 1); break;
    default: break;
  }
  const double v = cli::parse_double(num) * mult;
  if (v <= 0) throw std::invalid_argument("rate must be positive");
  return v;
}

void add_scenario_keys(cli::OptionSet& keys, CliOptions& o) {
  std::string aliases;
  for (const SchemeAlias& a : scheme_aliases())
    aliases += (aliases.empty() ? "" : "|") + std::string(a.alias);
  const auto ms = [](const std::string& v) {
    return cli::parse_double(v) * 1e-3;
  };
  keys.opt("scheme", &o.schemes, parse_scheme_list,
           aliases + ", or any cc/qdisc[+ecn|-ecn] spec (e.g. cubic/codel); "
           "a comma list runs one job per scheme",
           "SPEC[,SPEC...]")
      .opt("bw", &o.cfg.bottleneck_bps, parse_rate,
           "bottleneck rate in bits/s, with an optional k/M/G suffix", "RATE")
      .opt("rtt", &o.cfg.rtt, ms, "end-to-end RTT in milliseconds", "MS")
      .opt("rtts", &o.cfg.flow_rtts, parse_ms_list,
           "per-flow RTT list (overrides rtt for the long-term flows)",
           "MS,MS,...")
      .opt("flows", &o.cfg.num_fwd_flows, "long-term forward flows (>= 1)")
      .opt("rev_flows", &o.cfg.num_rev_flows, "long-term reverse flows")
      .opt("web", &o.cfg.num_web_sessions, "web sessions")
      .opt("buffer", &o.cfg.buffer_pkts,
           "bottleneck buffer in packets (0 = the BDP, at least 2 per flow)",
           "PKTS")
      .opt("seed", &o.cfg.seed, "base seed")
      .opt("warmup", &o.warmup, "seconds run before the measurement window",
           "S")
      .opt("measure", &o.measure, "measurement window in seconds (> 0)", "S")
      .opt("start_window", &o.cfg.start_window,
           "long-term flows start uniformly in [0, S) seconds", "S")
      .opt("sack_fraction", &o.cfg.nonproactive_fraction,
           "fraction of flows forced to plain SACK", "0..1")
      .opt("beta", &o.cfg.pert.early_beta,
           "early response of pert, pert-pi and pert-rem: cwnd *= 1 - beta",
           "0..1")
      .opt("pmax", &o.cfg.pert.pmax,
           "response probability at T_max (pert only)", "0..1")
      .opt("gentle", &o.cfg.pert.gentle,
           "ramp p_max -> 1 on [T_max, 2 T_max], gentle RED (pert only)")
      .opt("owd", &o.cfg.pert.use_one_way_delay,
           "read one-way forward delay instead of RTT (pert only)")
      .opt("adaptive", &o.cfg.pert.adaptive_pmax,
           "adapt p_max to hold the queueing delay in [T_min, T_max] "
           "(pert only)")
      .opt("trace_out", &o.trace_out,
           "record the tagged flow's trace (pert-trace v1)", "PATH")
      .opt("series_out", &o.series_out,
           "bottleneck queue length as t,value CSV lines, one per "
           "obs_interval",
           "PATH")
      .opt("trace", &o.trace_json,
           "structured event trace (Chrome trace_event JSON)", "PATH")
      .opt("metrics", &o.metrics_json,
           "metric-registry snapshot JSON (the RunReport's registry "
           "encoding)",
           "PATH")
      .opt("obs_interval", &o.cfg.obs.sample_interval,
           [ms](const std::string& v) {
             const double s = ms(v);
             if (!(s > 0 && std::isfinite(s)))
               throw std::invalid_argument("must be finite and > 0");
             return s;
           },
           "observability sampling cadence in milliseconds; also paces "
           "series_out",
           "MS")
      .opt("impair", &o.cfg.impair,
           [&o](const std::string& v) {
             net::ImpairmentConfig merged = o.cfg.impair;
             parse_impairment(v, merged);
             return merged;
           },
           "impairment model; repeat to compose: loss:p= | "
           "gilbert:enter=,exit=[,loss_bad=][,loss_good=] | "
           "reorder:p=,min_ms=,max_ms= | jitter:max_ms= | biterror:ber= | "
           "flap:first=,down=[,period=][,count=]",
           "MODEL:K=V,...")
      .check([&o] {
        if (o.cfg.num_fwd_flows <= 0)
          throw std::invalid_argument("flows must be >= 1");
        try {
          require_runnable_window("pert_sim", o.warmup, o.measure);
        } catch (const sim::ConfigError& e) {
          throw std::invalid_argument(e.what());
        }
        o.cfg.scheme = o.schemes.front();
        if (!o.trace_json.empty()) o.cfg.obs.trace.enabled = true;
        if (!o.metrics_json.empty()) o.cfg.obs.metrics = true;
      });
}

}  // namespace pert::exp
