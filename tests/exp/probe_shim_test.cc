// Probe API tests.
//
// The ad-hoc per-experiment recording fields were replaced by obs::Probe /
// measure_window() (the deprecated run() shims are gone). These tests pin
// (a) that installed probes observe the run without changing its results,
// and (b) that an un-observed run is not perturbed by the observability
// layer existing.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exp/dumbbell.h"

namespace pert::exp {
namespace {

DumbbellConfig small() {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("pert");
  cfg.num_fwd_flows = 2;
  cfg.bottleneck_bps = 10e6;
  cfg.rtt = 0.04;
  cfg.seed = 7;
  return cfg;
}

TEST(ProbeShim, InstalledProbeObservesSamplesAndEvents) {
  struct RecordingProbe final : obs::Probe {
    std::map<std::string, int> samples;
    std::map<std::string, int> events;
    void on_sample(const obs::Sample& s) override { ++samples[s.name]; }
    void on_event(const obs::Event& e) override { ++events[e.name]; }
  } probe;

  Dumbbell d(small());
  d.add_probe(&probe);
  const WindowMetrics with_probe = d.measure_window(3.0, 5.0);

  EXPECT_GT(probe.samples["queue.len"], 0);
  EXPECT_GT(probe.samples["queue.delay"], 0);
  EXPECT_GT(probe.events["pert.srtt99"], 0);

  // Observation must not perturb the simulation: an un-probed run with the
  // same seed produces identical windowed metrics. (The sampler timer fires
  // between packet events at fixed times; it consumes no RNG draws.)
  Dumbbell clean(small());
  const WindowMetrics without_probe = clean.measure_window(3.0, 5.0);
  EXPECT_EQ(with_probe, without_probe);
}

TEST(ProbeShim, UnobservedRunSchedulesNoSampler) {
  // With no trace, no metrics, and no probes, the scenario must not even
  // schedule its sampling timer — dispatch counts stay what they were before
  // the observability layer existed (event-for-event determinism).
  Dumbbell a(small());
  a.measure_window(3.0, 5.0);
  const std::uint64_t base_events = a.network().sched().dispatched();

  DumbbellConfig traced = small();
  traced.obs.trace.enabled = true;
  Dumbbell b(traced);
  b.measure_window(3.0, 5.0);
  EXPECT_GT(b.network().sched().dispatched(), base_events)
      << "tracing-enabled run should add sampler dispatches";
}

}  // namespace
}  // namespace pert::exp
