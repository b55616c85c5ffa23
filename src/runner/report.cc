#include "runner/report.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "runner/journal.h"

namespace pert::runner {

namespace {

double num_or(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v && v->is_number() ? v->as_double() : fallback;
}

std::uint64_t uint_or(const JsonValue& obj, std::string_view key,
                      std::uint64_t fallback) {
  const JsonValue* v = obj.find(key);
  return v && v->is_uint() ? v->as_uint() : fallback;
}

}  // namespace

JsonValue to_json(const exp::WindowMetrics& m) {
  JsonValue::Object o;
  o.reserve(15);
  o.emplace_back("duration", JsonValue(m.duration));
  o.emplace_back("avg_queue_pkts", JsonValue(m.avg_queue_pkts));
  o.emplace_back("norm_queue", JsonValue(m.norm_queue));
  o.emplace_back("drop_rate", JsonValue(m.drop_rate));
  o.emplace_back("utilization", JsonValue(m.utilization));
  o.emplace_back("jain", JsonValue(m.jain));
  o.emplace_back("agg_goodput_bps", JsonValue(m.agg_goodput_bps));
  o.emplace_back("drops", JsonValue(m.drops));
  o.emplace_back("congestion_drops", JsonValue(m.congestion_drops));
  o.emplace_back("overflow_drops", JsonValue(m.overflow_drops));
  o.emplace_back("injected_drops", JsonValue(m.injected_drops));
  o.emplace_back("ecn_marks", JsonValue(m.ecn_marks));
  o.emplace_back("early_responses", JsonValue(m.early_responses));
  o.emplace_back("timeouts", JsonValue(m.timeouts));
  o.emplace_back("loss_events", JsonValue(m.loss_events));
  return JsonValue(std::move(o));
}

exp::WindowMetrics metrics_from_json(const JsonValue& v) {
  exp::WindowMetrics m;
  m.duration = num_or(v, "duration", 0);
  m.avg_queue_pkts = num_or(v, "avg_queue_pkts", 0);
  m.norm_queue = num_or(v, "norm_queue", 0);
  m.drop_rate = num_or(v, "drop_rate", 0);
  m.utilization = num_or(v, "utilization", 0);
  m.jain = num_or(v, "jain", 0);
  m.agg_goodput_bps = num_or(v, "agg_goodput_bps", 0);
  m.drops = uint_or(v, "drops", 0);
  m.congestion_drops = uint_or(v, "congestion_drops", 0);
  m.overflow_drops = uint_or(v, "overflow_drops", 0);
  m.injected_drops = uint_or(v, "injected_drops", 0);
  m.ecn_marks = uint_or(v, "ecn_marks", 0);
  m.early_responses = uint_or(v, "early_responses", 0);
  m.timeouts = uint_or(v, "timeouts", 0);
  m.loss_events = uint_or(v, "loss_events", 0);
  return m;
}

JsonValue to_json(const obs::MetricRegistry& reg) {
  JsonValue::Object o;
  o.reserve(3);
  JsonValue::Object counters;
  counters.reserve(reg.counters().size());
  for (const auto& [name, c] : reg.counters())
    counters.emplace_back(name, JsonValue(c.value()));
  o.emplace_back("counters", JsonValue(std::move(counters)));
  JsonValue::Object gauges;
  gauges.reserve(reg.gauges().size());
  for (const auto& [name, g] : reg.gauges()) {
    const stats::Summary& s = g.summary();
    JsonValue::Object go;
    go.reserve(6);
    go.emplace_back("last", JsonValue(g.last()));
    go.emplace_back("count",
                    JsonValue(static_cast<std::uint64_t>(s.count())));
    go.emplace_back("min", JsonValue(s.min()));
    go.emplace_back("max", JsonValue(s.max()));
    go.emplace_back("mean", JsonValue(s.mean()));
    go.emplace_back("m2", JsonValue(s.m2()));
    gauges.emplace_back(name, JsonValue(std::move(go)));
  }
  o.emplace_back("gauges", JsonValue(std::move(gauges)));
  JsonValue::Object histograms;
  histograms.reserve(reg.histograms().size());
  for (const auto& [name, h] : reg.histograms()) {
    JsonValue::Object ho;
    ho.reserve(3);
    ho.emplace_back("lo", JsonValue(h.lo()));
    ho.emplace_back("hi", JsonValue(h.hi()));
    JsonValue::Array counts;
    counts.reserve(h.bins());
    for (std::size_t i = 0; i < h.bins(); ++i)
      counts.push_back(JsonValue(static_cast<std::uint64_t>(h.bin_count(i))));
    ho.emplace_back("counts", JsonValue(std::move(counts)));
    histograms.emplace_back(name, JsonValue(std::move(ho)));
  }
  o.emplace_back("histograms", JsonValue(std::move(histograms)));
  return JsonValue(std::move(o));
}

obs::MetricRegistry registry_from_json(const JsonValue& v) {
  obs::MetricRegistry reg;
  if (const JsonValue* counters = v.find("counters"))
    for (const auto& [name, c] : counters->as_object())
      reg.counter(name).add(c.as_uint());
  if (const JsonValue* gauges = v.find("gauges"))
    for (const auto& [name, g] : gauges->as_object()) {
      const auto n = static_cast<std::size_t>(uint_or(g, "count", 0));
      reg.gauge(name).restore(
          num_or(g, "last", 0),
          stats::Summary::restore(n, num_or(g, "min", 0), num_or(g, "max", 0),
                                  num_or(g, "mean", 0), num_or(g, "m2", 0)));
    }
  if (const JsonValue* histograms = v.find("histograms"))
    for (const auto& [name, h] : histograms->as_object()) {
      std::vector<std::size_t> counts;
      if (const JsonValue* c = h.find("counts")) {
        counts.reserve(c->as_array().size());
        for (const JsonValue& bin : c->as_array())
          counts.push_back(static_cast<std::size_t>(bin.as_uint()));
      }
      if (counts.empty()) continue;  // malformed; shape is unrecoverable
      const double lo = num_or(h, "lo", 0), hi = num_or(h, "hi", 1);
      // Sized before the move: the right operand of `=` is evaluated first.
      const std::size_t bins = counts.size();
      reg.histogram(name, lo, hi, bins) =
          stats::Histogram::restore(lo, hi, std::move(counts));
    }
  return reg;
}

JsonValue to_json(const JobResult& r) {
  JsonValue::Object o;
  o.reserve(10 + r.tags.size());
  o.emplace_back("key", JsonValue(r.key));
  for (const auto& [k, val] : r.tags) o.emplace_back(k, JsonValue(val));
  o.emplace_back("seed", JsonValue(r.seed));
  o.emplace_back("cell", JsonValue(r.cell));
  o.emplace_back("events", JsonValue(r.events));
  o.emplace_back("wall_ms", JsonValue(r.wall_ms));
  o.emplace_back("ok", JsonValue(r.ok));
  o.emplace_back("status", JsonValue(std::string(to_string(r.status))));
  if (!r.ok) o.emplace_back("error", JsonValue(r.error));
  if (!r.diagnostics.empty())
    o.emplace_back("diagnostics", JsonValue(r.diagnostics));
  o.emplace_back("metrics", to_json(r.metrics));
  if (!r.registry.empty()) o.emplace_back("registry", to_json(r.registry));
  return JsonValue(std::move(o));
}

JobResult result_from_json(const JsonValue& v) {
  JobResult r;
  bool ok = false;
  std::optional<JobStatus> status;
  for (const auto& [k, val] : v.as_object()) {
    if (k == "key") r.key = val.as_string();
    else if (k == "seed") r.seed = val.as_uint();
    else if (k == "cell") r.cell = val.as_uint();
    else if (k == "events") r.events = val.as_uint();
    else if (k == "wall_ms") r.wall_ms = val.as_double();
    else if (k == "ok") ok = val.as_bool();
    else if (k == "status") status = job_status_from_string(val.as_string());
    else if (k == "error") r.error = val.as_string();
    else if (k == "diagnostics") r.diagnostics = val.as_string();
    else if (k == "metrics") r.metrics = metrics_from_json(val);
    else if (k == "registry") r.registry = registry_from_json(val);
    else if (val.is_string()) r.tags[k] = val.as_string();  // flattened tag
  }
  // "status" is the one source of truth; "ok" is read only from reports
  // written before the status field existed.
  r.status = status.value_or(ok ? JobStatus::kOk : JobStatus::kFailed);
  r.ok = r.status == JobStatus::kOk;
  return r;
}

JsonValue to_json(const RunReport& r) {
  JsonValue::Object o;
  o.reserve(8);
  o.emplace_back("name", JsonValue(r.name));
  o.emplace_back("status", JsonValue(r.status));
  o.emplace_back("threads", JsonValue(static_cast<std::uint64_t>(r.threads)));
  o.emplace_back("jobs", JsonValue(static_cast<std::uint64_t>(r.results.size())));
  // Shard slice metadata, only when this report covers a strict slice: the
  // unsharded document (what merged shards must be byte-identical to) does
  // not carry the block at all.
  if (r.shard.active()) {
    JsonValue::Object so;
    so.reserve(5);
    so.emplace_back("index",
                    JsonValue(static_cast<std::uint64_t>(r.shard.index)));
    so.emplace_back("count",
                    JsonValue(static_cast<std::uint64_t>(r.shard.count)));
    so.emplace_back("cells",
                    JsonValue(static_cast<std::uint64_t>(r.results.size())));
    so.emplace_back("total", JsonValue(r.grid_cells));
    so.emplace_back("grid", JsonValue(r.grid));
    o.emplace_back("shard", JsonValue(std::move(so)));
  }
  o.emplace_back("wall_ms", JsonValue(r.wall_ms));
  o.emplace_back("cpu_ms", JsonValue(r.cpu_ms));
  o.emplace_back("speedup", JsonValue(r.speedup()));
  JsonValue::Array results;
  results.reserve(r.results.size());
  for (const JobResult& jr : r.results) results.push_back(to_json(jr));
  o.emplace_back("results", JsonValue(std::move(results)));
  // Batch-level rollup of every per-job registry (submission order, so the
  // merge is deterministic). Derivable from "results"; not parsed back.
  obs::MetricRegistry merged;
  for (const JobResult& jr : r.results) merged.merge(jr.registry);
  if (!merged.empty()) o.emplace_back("registry", to_json(merged));
  return JsonValue(std::move(o));
}

RunReport report_from_json(const JsonValue& v) {
  RunReport r;
  if (const JsonValue* name = v.find("name")) r.name = name->as_string();
  if (const JsonValue* status = v.find("status"))
    r.status = status->as_string();
  r.threads = static_cast<unsigned>(uint_or(v, "threads", 1));
  r.wall_ms = num_or(v, "wall_ms", 0);
  r.cpu_ms = num_or(v, "cpu_ms", 0);
  if (const JsonValue* shard = v.find("shard")) {
    r.shard =
        ShardSpec(uint_or(*shard, "index", 0), uint_or(*shard, "count", 1));
    r.grid_cells = uint_or(*shard, "total", 0);
    r.grid = uint_or(*shard, "grid", 0);
  }
  if (const JsonValue* results = v.find("results"))
    for (const JsonValue& jr : results->as_array())
      r.results.push_back(result_from_json(jr));
  if (!r.shard.active()) r.grid_cells = r.results.size();
  return r;
}

void write_report(const RunReport& report, const std::string& path) {
  // Atomic replace: a crash mid-export can never leave a torn JSON document
  // under the report name (readers see the old complete file or the new one).
  atomic_write_file(path, to_json(report).dump(2) + "\n");
}

RunReport read_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return report_from_json(JsonValue::parse(ss.str()));
}

}  // namespace pert::runner
