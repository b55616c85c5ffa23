// Construction-time rejection tests: every net-layer component throws a
// typed sim::ConfigError on out-of-domain parameters, and the intentional
// auto-tuning clamps surface as one-shot trace warnings rather than
// disappearing silently.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/avq_queue.h"
#include "net/impairment.h"
#include "net/network.h"
#include "net/pi_queue.h"
#include "net/queue.h"
#include "net/red_queue.h"
#include "net/rem_queue.h"
#include "obs/obs.h"
#include "sim/errors.h"
#include "sim/scheduler.h"

namespace pert::net {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ConfigReject, QueueCapacityAtLeastOne) {
  sim::Scheduler sched;
  EXPECT_NO_THROW(DropTailQueue(sched, 1));
  EXPECT_THROW(DropTailQueue(sched, 0), sim::ConfigError);
  EXPECT_THROW(DropTailQueue(sched, -5), sim::ConfigError);
}

TEST(ConfigReject, RedParams) {
  sim::Scheduler sched;
  RedParams ok;
  EXPECT_NO_THROW(RedQueue(sched, 100, ok));

  RedParams inverted;
  inverted.min_th = 20;
  inverted.max_th = 10;
  EXPECT_THROW(RedQueue(sched, 100, inverted), sim::ConfigError);

  RedParams bad_p;
  bad_p.max_p = 1.5;
  EXPECT_THROW(RedQueue(sched, 100, bad_p), sim::ConfigError);

  RedParams bad_wq;
  bad_wq.wq = 0.0;
  EXPECT_THROW(RedQueue(sched, 100, bad_wq), sim::ConfigError);

  RedParams nan_th;
  nan_th.min_th = kNaN;
  EXPECT_THROW(RedQueue(sched, 100, nan_th), sim::ConfigError);
}

TEST(ConfigReject, PiDesign) {
  sim::Scheduler sched;
  EXPECT_NO_THROW(PiQueue(sched, 100, PiDesign{}));

  PiDesign bad_a;
  bad_a.a = 0.0;
  EXPECT_THROW(PiQueue(sched, 100, bad_a), sim::ConfigError);

  // The discretization needs a > b; equal gains make the integrator inert.
  PiDesign a_le_b;
  a_le_b.a = 1e-5;
  a_le_b.b = 1e-5;
  EXPECT_THROW(PiQueue(sched, 100, a_le_b), sim::ConfigError);

  PiDesign bad_hz;
  bad_hz.sample_hz = 0.0;
  EXPECT_THROW(PiQueue(sched, 100, bad_hz), sim::ConfigError);
}

TEST(ConfigReject, RemParams) {
  sim::Scheduler sched;
  EXPECT_NO_THROW(RemQueue(sched, 100, RemParams{}));

  // phi = 1 makes the marking probability identically zero; phi < 1 makes
  // it negative. Both must be rejected, not silently accepted.
  RemParams phi_one;
  phi_one.phi = 1.0;
  EXPECT_THROW(RemQueue(sched, 100, phi_one), sim::ConfigError);

  RemParams phi_small;
  phi_small.phi = 0.9;
  EXPECT_THROW(RemQueue(sched, 100, phi_small), sim::ConfigError);

  RemParams bad_gamma;
  bad_gamma.gamma = -0.001;
  EXPECT_THROW(RemQueue(sched, 100, bad_gamma), sim::ConfigError);
}

TEST(ConfigReject, AvqParams) {
  sim::Scheduler sched;
  EXPECT_NO_THROW(AvqQueue(sched, 100, 10e6, AvqParams{}));

  AvqParams gamma_high;
  gamma_high.gamma = 1.01;  // a target utilization above 1 is meaningless
  EXPECT_THROW(AvqQueue(sched, 100, 10e6, gamma_high), sim::ConfigError);

  AvqParams gamma_zero;
  gamma_zero.gamma = 0.0;
  EXPECT_THROW(AvqQueue(sched, 100, 10e6, gamma_zero), sim::ConfigError);

  AvqParams bad_alpha;
  bad_alpha.alpha = -0.15;
  EXPECT_THROW(AvqQueue(sched, 100, 10e6, bad_alpha), sim::ConfigError);

  EXPECT_THROW(AvqQueue(sched, 100, 0.0, AvqParams{}), sim::ConfigError);
}

TEST(ConfigReject, LinkGeometry) {
  Network net;
  Node* a = net.add_node();
  Node* b = net.add_node();
  EXPECT_NO_THROW(net.add_link(a, b, 1e6, 0.01,
                               std::make_unique<DropTailQueue>(net.sched(), 10)));
  EXPECT_THROW(net.add_link(a, b, 0.0, 0.01,
                            std::make_unique<DropTailQueue>(net.sched(), 10)),
               sim::ConfigError);
  EXPECT_THROW(net.add_link(a, b, -1e6, 0.01,
                            std::make_unique<DropTailQueue>(net.sched(), 10)),
               sim::ConfigError);
  EXPECT_THROW(net.add_link(a, b, 1e6, -0.01,
                            std::make_unique<DropTailQueue>(net.sched(), 10)),
               sim::ConfigError);
}

TEST(ConfigReject, ImpairmentConfig) {
  ImpairmentConfig ok;
  EXPECT_NO_THROW(ok.validate());

  ImpairmentConfig bad_loss;
  bad_loss.loss.p = 1.5;
  EXPECT_THROW(bad_loss.validate(), sim::ConfigError);

  ImpairmentConfig bad_gilbert;
  bad_gilbert.gilbert.p_enter_bad = -0.1;
  EXPECT_THROW(bad_gilbert.validate(), sim::ConfigError);

  ImpairmentConfig inverted_reorder;
  inverted_reorder.reorder.min_delay = 0.2;
  inverted_reorder.reorder.max_delay = 0.1;
  EXPECT_THROW(inverted_reorder.validate(), sim::ConfigError);

  ImpairmentConfig bad_flap;
  bad_flap.flap.first_down = -1.0;
  EXPECT_THROW(bad_flap.validate(), sim::ConfigError);

  ImpairmentConfig bad_count;
  bad_count.flap.count = -1;
  EXPECT_THROW(bad_count.validate(), sim::ConfigError);

  // A Gilbert channel that can never leave the bad state.
  ImpairmentConfig stuck_bad;
  stuck_bad.gilbert.p_enter_bad = 0.01;
  EXPECT_THROW(stuck_bad.validate(), sim::ConfigError);

  // Reordering that never holds a packet.
  ImpairmentConfig no_hold;
  no_hold.reorder.p = 0.05;
  EXPECT_THROW(no_hold.validate(), sim::ConfigError);

  // Several flaps with no period between them run as one outage.
  ImpairmentConfig one_outage;
  one_outage.flap.down_for = 0.1;
  one_outage.flap.count = 3;
  EXPECT_THROW(one_outage.validate(), sim::ConfigError);
}

TEST(ConfigReject, HealthyQueueHasNoNumericViolation) {
  sim::Scheduler sched;
  DropTailQueue dt(sched, 10);
  EXPECT_EQ(dt.numeric_violation(), "");
  RedQueue red(sched, 100, RedParams{});
  EXPECT_EQ(red.numeric_violation(), "");
  PiQueue pi(sched, 100, PiDesign{});
  EXPECT_EQ(pi.numeric_violation(), "");
}

// Counts "queue.param_clamped" trace instants.
class ClampProbe : public obs::Probe {
 public:
  void on_event(const obs::Event& e) override {
    if (std::string(e.name) == "queue.param_clamped") ++clamps;
  }
  int clamps = 0;
};

TEST(ConfigReject, AutoTuneClampsSurfaceAsOneShotWarnings) {
  sim::Scheduler sched;
  // A 6-packet queue forces RedParams::auto_tuned onto its 5/15 threshold
  // floors — max_th (cap/2 = 3) is clamped up to 15, above the capacity.
  RedParams tuned = RedParams::auto_tuned(6, 1000.0);
  ASSERT_FALSE(tuned.clamps.empty());
  RedQueue q(sched, 6, tuned);
  EXPECT_GT(q.pending_clamp_notes(), 0u);

  obs::ObsConfig ocfg;
  ocfg.trace.enabled = true;
  ocfg.trace.min_severity = obs::Severity::kWarn;
  obs::Observability obs(ocfg);
  ClampProbe probe;
  obs.add_probe(&probe);

  // Attaching the tracer flushes the buffered notes exactly once.
  q.set_tracer(&obs.tracer(), 0);
  EXPECT_GT(probe.clamps, 0);
  EXPECT_EQ(q.pending_clamp_notes(), 0u);

  const int first_flush = probe.clamps;
  q.set_tracer(&obs.tracer(), 0);  // re-attach must not duplicate
  EXPECT_EQ(probe.clamps, first_flush);
}

TEST(ConfigReject, NoClampNotesForExplicitParams) {
  sim::Scheduler sched;
  RedQueue q(sched, 100, RedParams{});  // hand-set params: nothing clamped
  EXPECT_EQ(q.pending_clamp_notes(), 0u);
}

}  // namespace
}  // namespace pert::net
