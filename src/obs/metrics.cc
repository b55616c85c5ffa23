#include "obs/metrics.h"

#include <stdexcept>

namespace pert::obs {

namespace {

enum Kind { kCounter = 0, kGauge, kHistogram };

}  // namespace

void MetricRegistry::check_unbound(const std::string& name, int kind) const {
  if (kind != kCounter && counters_.count(name))
    throw std::invalid_argument("metric '" + name + "' is already a counter");
  if (kind != kGauge && gauges_.count(name))
    throw std::invalid_argument("metric '" + name + "' is already a gauge");
  if (kind != kHistogram && histograms_.count(name))
    throw std::invalid_argument("metric '" + name + "' is already a histogram");
}

Counter& MetricRegistry::counter(const std::string& name) {
  check_unbound(name, kCounter);
  return counters_[name];
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  check_unbound(name, kGauge);
  return gauges_[name];
}

stats::Histogram& MetricRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins) {
  check_unbound(name, kHistogram);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, stats::Histogram(lo, hi, bins)).first;
  else if (it->second.lo() != lo || it->second.hi() != hi ||
           it->second.bins() != bins)
    throw std::invalid_argument("histogram '" + name +
                                "' requested with a different shape");
  return it->second;
}

void MetricRegistry::merge(const MetricRegistry& o) {
  for (const auto& [name, c] : o.counters_) {
    check_unbound(name, kCounter);
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : o.gauges_) {
    check_unbound(name, kGauge);
    gauges_[name].merge(g);
  }
  for (const auto& [name, h] : o.histograms_) {
    check_unbound(name, kHistogram);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      histograms_.emplace(name, h);
    else
      it->second.merge(h);
  }
}

}  // namespace pert::obs
