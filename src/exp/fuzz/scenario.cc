#include "exp/fuzz/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace pert::exp::fuzz {

namespace {

double num_or(const runner::JsonValue& obj, std::string_view key,
              double fallback) {
  const runner::JsonValue* v = obj.find(key);
  return v && v->is_number() ? v->as_double() : fallback;
}

/// An integer field keeps `fallback` when absent; present, it must be a
/// whole number that fits std::int32_t.
std::int32_t int_or(const runner::JsonValue& obj, std::string_view key,
                    std::int32_t fallback) {
  const runner::JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->is_number()) {
    using Limits = std::numeric_limits<std::int32_t>;
    const double d = v->as_double();
    if (d == std::trunc(d) && d >= Limits::min() && d <= Limits::max())
      return static_cast<std::int32_t>(d);
  }
  throw std::invalid_argument("scenario field " + std::string(key) +
                              " is not an integer in int32 range");
}

}  // namespace

std::string to_string(Topology t) {
  return t == Topology::kDumbbell ? "dumbbell" : "multi_bottleneck";
}

Topology topology_from_string(const std::string& s) {
  if (s == "dumbbell") return Topology::kDumbbell;
  if (s == "multi_bottleneck") return Topology::kMultiBottleneck;
  throw std::invalid_argument("unknown topology: " + s);
}

runner::JsonValue to_json(const Scenario& s) {
  runner::JsonValue::Object o;
  o.reserve(24);
  o.emplace_back("seed", runner::JsonValue(s.seed));
  o.emplace_back("topology", runner::JsonValue(to_string(s.topology)));
  o.emplace_back("scheme", runner::JsonValue(spec_string(s.scheme)));
  o.emplace_back("bottleneck_bps", runner::JsonValue(s.bottleneck_bps));
  o.emplace_back("rtt", runner::JsonValue(s.rtt));
  o.emplace_back("num_fwd_flows", runner::JsonValue(s.num_fwd_flows));
  o.emplace_back("num_rev_flows", runner::JsonValue(s.num_rev_flows));
  o.emplace_back("num_web_sessions", runner::JsonValue(s.num_web_sessions));
  o.emplace_back("buffer_pkts", runner::JsonValue(s.buffer_pkts));
  o.emplace_back("nonproactive_fraction",
                 runner::JsonValue(s.nonproactive_fraction));
  o.emplace_back("num_routers", runner::JsonValue(s.num_routers));
  o.emplace_back("hosts_per_cloud", runner::JsonValue(s.hosts_per_cloud));
  o.emplace_back("pert_pmax", runner::JsonValue(s.pert_pmax));
  o.emplace_back("pert_early_beta", runner::JsonValue(s.pert_early_beta));
  o.emplace_back("pert_gentle", runner::JsonValue(s.pert_gentle));
  o.emplace_back("loss_p", runner::JsonValue(s.loss_p));
  o.emplace_back("jitter_max_delay", runner::JsonValue(s.jitter_max_delay));
  o.emplace_back("reorder_p", runner::JsonValue(s.reorder_p));
  o.emplace_back("reorder_max_delay",
                 runner::JsonValue(s.reorder_max_delay));
  o.emplace_back("flap_first_down", runner::JsonValue(s.flap_first_down));
  o.emplace_back("flap_down_for", runner::JsonValue(s.flap_down_for));
  o.emplace_back("flap_period", runner::JsonValue(s.flap_period));
  o.emplace_back("flap_count", runner::JsonValue(s.flap_count));
  o.emplace_back("start_window", runner::JsonValue(s.start_window));
  o.emplace_back("warmup", runner::JsonValue(s.warmup));
  o.emplace_back("measure", runner::JsonValue(s.measure));
  return runner::JsonValue(std::move(o));
}

Scenario scenario_from_json(const runner::JsonValue& v) {
  Scenario s;
  if (const runner::JsonValue* seed = v.find("seed")) s.seed = seed->as_uint();
  if (const runner::JsonValue* t = v.find("topology"))
    s.topology = topology_from_string(t->as_string());
  if (const runner::JsonValue* sch = v.find("scheme"))
    s.scheme = parse_scheme_spec(sch->as_string());
  s.bottleneck_bps = num_or(v, "bottleneck_bps", s.bottleneck_bps);
  s.rtt = num_or(v, "rtt", s.rtt);
  s.num_fwd_flows = int_or(v, "num_fwd_flows", s.num_fwd_flows);
  s.num_rev_flows = int_or(v, "num_rev_flows", s.num_rev_flows);
  s.num_web_sessions = int_or(v, "num_web_sessions", s.num_web_sessions);
  s.buffer_pkts = int_or(v, "buffer_pkts", s.buffer_pkts);
  s.nonproactive_fraction =
      num_or(v, "nonproactive_fraction", s.nonproactive_fraction);
  s.num_routers = int_or(v, "num_routers", s.num_routers);
  s.hosts_per_cloud = int_or(v, "hosts_per_cloud", s.hosts_per_cloud);
  s.pert_pmax = num_or(v, "pert_pmax", s.pert_pmax);
  s.pert_early_beta = num_or(v, "pert_early_beta", s.pert_early_beta);
  if (const runner::JsonValue* g = v.find("pert_gentle"))
    s.pert_gentle = g->as_bool();
  s.loss_p = num_or(v, "loss_p", s.loss_p);
  s.jitter_max_delay = num_or(v, "jitter_max_delay", s.jitter_max_delay);
  s.reorder_p = num_or(v, "reorder_p", s.reorder_p);
  s.reorder_max_delay = num_or(v, "reorder_max_delay", s.reorder_max_delay);
  s.flap_first_down = num_or(v, "flap_first_down", s.flap_first_down);
  s.flap_down_for = num_or(v, "flap_down_for", s.flap_down_for);
  s.flap_period = num_or(v, "flap_period", s.flap_period);
  s.flap_count = int_or(v, "flap_count", s.flap_count);
  s.start_window = num_or(v, "start_window", s.start_window);
  s.warmup = num_or(v, "warmup", s.warmup);
  s.measure = num_or(v, "measure", s.measure);
  return s;
}

DumbbellConfig to_dumbbell(const Scenario& s) {
  if (s.topology != Topology::kDumbbell)
    throw std::logic_error("to_dumbbell called on a non-dumbbell scenario");
  DumbbellConfig cfg;
  cfg.scheme = s.scheme;
  cfg.bottleneck_bps = s.bottleneck_bps;
  cfg.rtt = s.rtt;
  cfg.num_fwd_flows = s.num_fwd_flows;
  cfg.num_rev_flows = s.num_rev_flows;
  cfg.num_web_sessions = s.num_web_sessions;
  cfg.buffer_pkts = s.buffer_pkts;
  cfg.nonproactive_fraction = s.nonproactive_fraction;
  cfg.start_window = s.start_window;
  cfg.seed = s.seed;
  cfg.pert.pmax = s.pert_pmax;
  cfg.pert.early_beta = s.pert_early_beta;
  cfg.pert.gentle = s.pert_gentle;
  cfg.impair.loss.p = s.loss_p;
  cfg.impair.jitter.max_delay = s.jitter_max_delay;
  cfg.impair.reorder.p = s.reorder_p;
  cfg.impair.reorder.max_delay = s.reorder_max_delay;
  if (s.has_flaps()) {
    cfg.impair.flap.first_down = s.flap_first_down;
    cfg.impair.flap.down_for = s.flap_down_for;
    cfg.impair.flap.period = s.flap_period;
    cfg.impair.flap.count = s.flap_count;
  }
  // Fuzz scenarios are short; a tight stall timeout turns a wedged
  // simulation into a structured StallError violation quickly.
  cfg.watchdog.stall_timeout = 30.0;
  return cfg;
}

MultiBottleneckConfig to_multi_bottleneck(const Scenario& s) {
  if (s.topology != Topology::kMultiBottleneck)
    throw std::logic_error(
        "to_multi_bottleneck called on a non-chain scenario");
  MultiBottleneckConfig cfg;
  cfg.scheme = s.scheme;
  cfg.num_routers = s.num_routers;
  cfg.hosts_per_cloud = s.hosts_per_cloud;
  cfg.router_link_bps = s.bottleneck_bps;
  // Spread the scenario RTT across the chain's per-hop propagation delays.
  cfg.router_link_delay =
      std::max(0.001, s.rtt / (2.0 * std::max(1, s.num_routers - 1)));
  cfg.buffer_pkts = s.buffer_pkts;
  cfg.start_window = s.start_window;
  cfg.seed = s.seed;
  cfg.pert.pmax = s.pert_pmax;
  cfg.pert.early_beta = s.pert_early_beta;
  cfg.pert.gentle = s.pert_gentle;
  cfg.watchdog.stall_timeout = 30.0;
  return cfg;
}

WindowMetrics most_loaded_hop(const std::vector<WindowMetrics>& hops,
                              double measure) {
  WindowMetrics out;
  out.duration = measure;
  for (const WindowMetrics& h : hops) {
    if (h.utilization >= out.utilization) {
      out.utilization = h.utilization;
      out.avg_queue_pkts = h.avg_queue_pkts;
      out.norm_queue = h.norm_queue;
      out.drop_rate = h.drop_rate;
      out.jain = h.jain;
    }
  }
  return out;
}

ScenarioOutcome run_scenario(const Scenario& s) {
  ScenarioOutcome out;
  if (s.topology == Topology::kDumbbell) {
    Dumbbell d(to_dumbbell(s));
    out.metrics = d.measure_window(s.warmup, s.measure);
    return out;
  }
  MultiBottleneck mb(to_multi_bottleneck(s));
  out.metrics =
      most_loaded_hop(mb.measure_window(s.warmup, s.measure), s.measure);
  return out;
}

}  // namespace pert::exp::fuzz
