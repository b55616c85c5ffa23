// Named metric registry: counters, gauges, and histograms.
//
// Naming convention (see docs/observability.md): dot-separated
// "<subsystem>.<object>.<metric>", e.g. "queue.bottleneck.len_pkts",
// "tcp.flow0.cwnd", "pert.flow0.srtt99". Registries are per-run (one per
// scenario / runner job), sampled on the scenario's observation cadence,
// and snapshots merge across runs (counters add, gauge summaries combine,
// histograms sum bin-wise), so a sweep's per-cell registries roll up into
// one aggregate without losing distribution shape.
//
// Deterministic by construction: storage is ordered by name. The JSON
// encoding is runner::to_json(const MetricRegistry&) (runner/report.h), the
// one the RunReport embeds and registry_from_json reads back.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stats/stats.h"

namespace pert::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins value whose sample distribution is also summarized.
class Gauge {
 public:
  void set(double v) {
    last_ = v;
    summary_.add(v);
  }
  double last() const noexcept { return last_; }
  const stats::Summary& summary() const noexcept { return summary_; }
  /// Combines another gauge's samples; the other's last value wins (it is
  /// the more recently finished run in a merge).
  void merge(const Gauge& o) noexcept {
    if (o.summary_.count() == 0) return;
    summary_.merge(o.summary_);
    last_ = o.last_;
  }
  /// Reconstructs a gauge from serialized state (JSON import).
  void restore(double last, const stats::Summary& s) noexcept {
    last_ = last;
    summary_ = s;
  }

 private:
  double last_ = 0.0;
  stats::Summary summary_;
};

class MetricRegistry {
 public:
  /// Finds or creates the named metric. A name is bound to one kind for the
  /// registry's lifetime; re-requesting it with a different kind throws
  /// std::invalid_argument (naming-convention enforcement).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Histogram bounds are fixed on first request; later requests for the
  /// same name ignore the bounds (and throw on a shape mismatch).
  stats::Histogram& histogram(const std::string& name, double lo, double hi,
                              std::size_t bins);

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, stats::Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Rolls another registry into this one: counters add, gauge summaries
  /// combine (the other's last value wins), histograms sum bin-wise. A name
  /// bound to different kinds, or histograms of different shape, throw
  /// std::invalid_argument.
  void merge(const MetricRegistry& o);

 private:
  void check_unbound(const std::string& name, int kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, stats::Histogram> histograms_;
};

}  // namespace pert::obs
