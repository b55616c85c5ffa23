#include "exp/cli.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace pert::exp {

namespace {

double parse_num(std::string_view s, std::string_view what) {
  char* end = nullptr;
  const std::string buf(s);
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty())
    throw std::invalid_argument("bad number for " + std::string(what) + ": " +
                                buf);
  return v;
}

bool parse_bool(std::string_view s, std::string_view what) {
  if (s == "1" || s == "true" || s == "on") return true;
  if (s == "0" || s == "false" || s == "off") return false;
  throw std::invalid_argument("bad boolean for " + std::string(what) + ": " +
                              std::string(s));
}

std::vector<double> parse_ms_list(std::string_view s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string_view tok =
        s.substr(pos, comma == std::string_view::npos ? s.size() - pos
                                                      : comma - pos);
    out.push_back(parse_num(tok, "rtts element") * 1e-3);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

double parse_prob(std::string_view s, std::string_view what) {
  const double v = parse_num(s, what);
  if (v < 0.0 || v > 1.0)
    throw std::invalid_argument(std::string(what) + " must be in [0,1], got " +
                                std::string(s));
  return v;
}

double parse_nonneg(std::string_view s, std::string_view what) {
  const double v = parse_num(s, what);
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
    if (out.gilbert.p_enter_bad > 0 && out.gilbert.p_exit_bad <= 0)
      throw std::invalid_argument(
          "impair gilbert: exit must be > 0 when enter > 0");
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
    if (out.reorder.p > 0 && out.reorder.max_delay <= 0)
      throw std::invalid_argument("impair reorder: max_ms must be > 0");
    if (out.reorder.min_delay > out.reorder.max_delay)
      throw std::invalid_argument("impair reorder: min_ms > max_ms");
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
        out.flap.count = static_cast<std::int32_t>(parse_nonneg(v, "flap count"));
      else
        throw std::invalid_argument("unknown impair flap key: " +
                                    std::string(k));
    }
    if (out.flap.down_for <= 0)
      throw std::invalid_argument("impair flap: down must be > 0");
    if (out.flap.count > 1 && out.flap.period <= 0)
      throw std::invalid_argument(
          "impair flap: period must be > 0 when count > 1");
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
  const double v = parse_num(num, "rate") * mult;
  if (v <= 0) throw std::invalid_argument("rate must be positive");
  return v;
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions o;
  for (const std::string& tok : args) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("expected key=value, got: " + tok);
    const std::string_view key = std::string_view(tok).substr(0, eq);
    const std::string_view val = std::string_view(tok).substr(eq + 1);

    if (key == "scheme") {
      o.schemes = parse_scheme_list(val);
      o.cfg.scheme = o.schemes.front();
    } else if (key == "bw") {
      o.cfg.bottleneck_bps = parse_rate(val);
    } else if (key == "rtt") {
      o.cfg.rtt = parse_num(val, key) * 1e-3;
    } else if (key == "rtts") {
      o.cfg.flow_rtts = parse_ms_list(val);
    } else if (key == "flows") {
      o.cfg.num_fwd_flows = static_cast<std::int32_t>(parse_num(val, key));
    } else if (key == "rev_flows") {
      o.cfg.num_rev_flows = static_cast<std::int32_t>(parse_num(val, key));
    } else if (key == "web") {
      o.cfg.num_web_sessions = static_cast<std::int32_t>(parse_num(val, key));
    } else if (key == "buffer") {
      o.cfg.buffer_pkts = static_cast<std::int32_t>(parse_num(val, key));
    } else if (key == "seed") {
      o.cfg.seed = static_cast<std::uint64_t>(parse_num(val, key));
    } else if (key == "warmup") {
      o.warmup = parse_num(val, key);
    } else if (key == "measure") {
      o.measure = parse_num(val, key);
    } else if (key == "start_window") {
      o.cfg.start_window = parse_num(val, key);
    } else if (key == "sack_fraction") {
      o.cfg.nonproactive_fraction = parse_num(val, key);
    } else if (key == "beta") {
      o.cfg.pert.early_beta = parse_num(val, key);
    } else if (key == "pmax") {
      o.cfg.pert.pmax = parse_num(val, key);
    } else if (key == "gentle") {
      o.cfg.pert.gentle = parse_bool(val, key);
    } else if (key == "owd") {
      o.cfg.pert.use_one_way_delay = parse_bool(val, key);
    } else if (key == "adaptive") {
      o.cfg.pert.adaptive_pmax = parse_bool(val, key);
    } else if (key == "trace_out") {
      o.trace_out = val;
    } else if (key == "series_out") {
      o.series_out = val;
    } else if (key == "trace") {
      o.trace_json = val;
      o.cfg.obs.trace.enabled = true;
    } else if (key == "metrics") {
      o.metrics_json = val;
      o.cfg.obs.metrics = true;
    } else if (key == "obs_interval") {
      const double ms = parse_num(val, key);
      if (ms <= 0) throw std::invalid_argument("obs_interval must be > 0");
      o.cfg.obs.sample_interval = ms * 1e-3;
    } else if (key == "impair") {
      parse_impairment(val, o.cfg.impair);
    } else {
      throw std::invalid_argument("unknown key: " + std::string(key));
    }
  }
  if (o.cfg.num_fwd_flows <= 0)
    throw std::invalid_argument("flows must be >= 1");
  if (o.warmup < 0 || o.measure <= 0)
    throw std::invalid_argument("warmup/measure out of range");
  return o;
}

std::string cli_usage() {
  std::string aliases;
  for (const SchemeAlias& a : scheme_aliases())
    aliases += (aliases.empty() ? "" : "|") + std::string(a.alias);
  return "usage: pert_sim [--jobs N] [--json PATH] [--journal PATH "
         "[--resume]] key=value ...\n"
         "       pert_sim repro=<bundle.json>   (replay a fuzzer repro "
         "bundle)\n"
         "       pert_sim schemes               (list CC modules + queue "
         "disciplines)\n"
         "  scheme=" + aliases + "\n"
         "         or any cc/qdisc pair, e.g. scheme=cubic/codel, "
         "scheme=dctcp/red+ecn\n"
         "         (comma list runs one scenario per scheme, in parallel "
         "with --jobs)\n"
         "  bw=150M rtt=60 [rtts=12,24,36] flows=50 [rev_flows=0] [web=0]\n"
         "  [buffer=<pkts>] [seed=1] [warmup=20] [measure=40] "
         "[start_window=10]\n"
         "  [sack_fraction=0] [beta=0.35] [pmax=0.05] [gentle=1] [owd=0] "
         "[adaptive=0]\n"
         "  [trace_out=trace.csv] [series_out=queue.csv] "
         "[trace=events.json]\n"
         "  [metrics=metrics.json] [obs_interval=100]\n"
         "  [impair=loss:p=0.01] [impair=gilbert:enter=,exit=,loss_bad=,"
         "loss_good=]\n"
         "  [impair=reorder:p=,min_ms=,max_ms=] [impair=jitter:max_ms=]\n"
         "  [impair=biterror:ber=] [impair=flap:first=,down=,period=,count=]\n";
}

}  // namespace pert::exp
