// Metric registry tests: kind binding, merge semantics (counters add, gauge
// summaries combine exactly, histograms sum bin-wise), and the deterministic
// JSON snapshot (the runner encoding, runner::to_json).
#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/metrics.h"
#include "runner/json.h"
#include "runner/report.h"
#include "stats/stats.h"

namespace pert::obs {
namespace {

TEST(MetricRegistry, NamesAreBoundToOneKind) {
  MetricRegistry reg;
  reg.counter("queue.drops").add(3);
  EXPECT_EQ(reg.counter("queue.drops").value(), 3u);
  EXPECT_THROW(reg.gauge("queue.drops"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("queue.drops", 0, 1, 4), std::invalid_argument);
  reg.gauge("queue.len").set(2.0);
  EXPECT_THROW(reg.counter("queue.len"), std::invalid_argument);
}

TEST(MetricRegistry, HistogramShapeFixedOnFirstRequest) {
  MetricRegistry reg;
  reg.histogram("norm_queue", 0, 1, 10).add(0.25);
  EXPECT_EQ(reg.histogram("norm_queue", 0, 1, 10).total(), 1u);
  EXPECT_THROW(reg.histogram("norm_queue", 0, 2, 10), std::invalid_argument);
  EXPECT_THROW(reg.histogram("norm_queue", 0, 1, 20), std::invalid_argument);
}

TEST(MetricRegistry, MergeAddsCombinesAndSums) {
  MetricRegistry a, b;
  a.counter("drops").add(2);
  b.counter("drops").add(5);
  b.counter("marks").add(1);  // only in b

  a.gauge("util").set(0.5);
  a.gauge("util").set(0.7);
  b.gauge("util").set(0.9);

  a.histogram("q", 0, 1, 4).add(0.1);
  b.histogram("q", 0, 1, 4).add(0.9);
  b.histogram("q", 0, 1, 4).add(0.95);

  a.merge(b);
  EXPECT_EQ(a.counter("drops").value(), 7u);
  EXPECT_EQ(a.counter("marks").value(), 1u);
  // Gauge merge equals adding all samples to one summary (Chan et al.).
  stats::Summary direct;
  direct.add(0.5);
  direct.add(0.7);
  direct.add(0.9);
  const stats::Summary& merged = a.gauge("util").summary();
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  EXPECT_NEAR(merged.variance(), direct.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.gauge("util").last(), 0.9);  // other's last wins
  EXPECT_EQ(a.histogram("q", 0, 1, 4).total(), 3u);
  EXPECT_EQ(a.histogram("q", 0, 1, 4).bin_count(0), 1u);
  EXPECT_EQ(a.histogram("q", 0, 1, 4).bin_count(3), 2u);
}

TEST(MetricRegistry, MergeRejectsKindAndShapeConflicts) {
  MetricRegistry a, b;
  a.counter("x").add(1);
  b.gauge("x").set(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);

  MetricRegistry c, d;
  c.histogram("h", 0, 1, 4).add(0.5);
  d.histogram("h", 0, 2, 4).add(0.5);
  EXPECT_THROW(c.merge(d), std::invalid_argument);
}

TEST(MetricRegistry, WriteJsonIsValidAndComplete) {
  MetricRegistry reg;
  reg.counter("window.drops").add(4);
  reg.gauge("window.util").set(0.8);
  reg.histogram("window.norm_queue", 0, 1, 2).add(0.9);

  const runner::JsonValue doc =
      runner::JsonValue::parse(runner::to_json(reg).dump(2));
  EXPECT_EQ(doc.find("counters")->find("window.drops")->as_uint(), 4u);
  const runner::JsonValue* util = doc.find("gauges")->find("window.util");
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->find("last")->as_double(), 0.8);
  EXPECT_EQ(util->find("count")->as_uint(), 1u);
  const runner::JsonValue* h =
      doc.find("histograms")->find("window.norm_queue");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("lo")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(h->find("hi")->as_double(), 1.0);
  EXPECT_EQ(h->find("counts")->as_array().size(), 2u);
  EXPECT_EQ(h->find("counts")->as_array()[1].as_uint(), 1u);

  // Complete: the document reads back to an equal registry.
  const MetricRegistry back = runner::registry_from_json(doc);
  EXPECT_EQ(back.counters().at("window.drops").value(), 4u);
  EXPECT_DOUBLE_EQ(back.gauges().at("window.util").last(), 0.8);
  EXPECT_EQ(back.histograms().at("window.norm_queue").total(), 1u);
  EXPECT_EQ(runner::to_json(back).dump(), runner::to_json(reg).dump());
}

TEST(Summary, RestoreIsExactInverse) {
  stats::Summary s;
  for (double x : {1.0, 2.5, -3.0, 7.25}) s.add(x);
  const stats::Summary r = stats::Summary::restore(s.count(), s.min(),
                                                   s.max(), s.mean(), s.m2());
  EXPECT_EQ(r.count(), s.count());
  EXPECT_EQ(r.mean(), s.mean());
  EXPECT_EQ(r.m2(), s.m2());
  EXPECT_EQ(r.min(), s.min());
  EXPECT_EQ(r.max(), s.max());
}

}  // namespace
}  // namespace pert::obs
