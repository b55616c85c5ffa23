// Validation and NaN-injection tests for the PERT core: the PertParams /
// PiEmuDesign validators reject out-of-domain knobs, the standalone
// estimator/integrator sentinels catch poisoned state, and — end to end —
// a NaN injected into a live sender's hot state is caught by the default-on
// invariant checker as a DiagnosticError carrying a state snapshot.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>

#include "core/pert_params.h"
#include "core/pert_sender.h"
#include "core/pi_emulation.h"
#include "core/sampled_pert.h"
#include "core/srtt_estimator.h"
#include "exp/dumbbell.h"
#include "sim/errors.h"

namespace pert::core {

// Test-only backdoor, befriended by the senders: reaches
// the private hot state to poison it the way a latent arithmetic bug would,
// without widening any public API.
class SentinelTestPeer {
 public:
  static void poison_srtt(PertSender& s) {
    s.state().estimator.add_sample(std::numeric_limits<double>::quiet_NaN());
  }
  static void poison_pi(PertPiSender& s) {
    s.state().controller.update(std::numeric_limits<double>::quiet_NaN());
  }
};

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(PertParamsValidate, DefaultsPass) {
  EXPECT_NO_THROW(PertParams{}.validate());
}

TEST(PertParamsValidate, RejectsBadKnobs) {
  PertParams p;
  p.srtt_alpha = 1.0;  // alpha = 1 never incorporates a sample
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.srtt_alpha = -0.1;
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.tmin_offset = 0.02;  // inverted [T_min, T_max] band
  p.tmax_offset = 0.01;
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.pmax = 1.5;
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.early_beta = 1.0;  // full collapse on every early response
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.adapt_interval = 0.0;
  EXPECT_THROW(p.validate(), sim::ConfigError);
  p = {};
  p.pmax_min = 0.5;
  p.pmax_max = 0.1;  // inverted adaptive range
  EXPECT_THROW(p.validate(), sim::ConfigError);
}

TEST(PiEmuDesignValidate, ForPathPassesRejectionsThrow) {
  EXPECT_NO_THROW(PiEmuDesign::for_path(12500.0, 10, 0.2).validate());
  PiEmuDesign d = PiEmuDesign::for_path(12500.0, 10, 0.2);
  d.a = 0.0;
  EXPECT_THROW(d.validate(), sim::ConfigError);
  d = PiEmuDesign::for_path(12500.0, 10, 0.2);
  d.b = d.a;  // a <= b integrates with negative gain
  EXPECT_THROW(d.validate(), sim::ConfigError);
  d = PiEmuDesign::for_path(12500.0, 10, 0.2);
  d.tq_ref = -0.003;
  EXPECT_THROW(d.validate(), sim::ConfigError);
  d = PiEmuDesign::for_path(12500.0, 10, 0.2);
  d.sample_interval = kNaN;
  EXPECT_THROW(d.validate(), sim::ConfigError);
}

TEST(SrttSentinel, NaNSamplePoisonsEstimator) {
  SrttEstimator est;
  est.add_sample(0.05);
  ASSERT_TRUE(est.ready());
  EXPECT_EQ(est.numeric_violation(), "");
  est.add_sample(kNaN);
  const std::string v = est.numeric_violation();
  ASSERT_NE(v, "");
  EXPECT_NE(v.find("srtt99"), std::string::npos) << v;
}

TEST(PiEmulatorSentinel, NaNSamplePoisonsIntegrator) {
  PiEmulator pi(PiEmuDesign::for_path(12500.0, 10, 0.2));
  pi.update(0.003);
  EXPECT_EQ(pi.numeric_violation(), "");
  // std::clamp passes NaN through (comparisons are false), so one NaN delay
  // sample rots prob_ permanently — exactly what the sentinel exists for.
  pi.update(kNaN);
  const std::string v = pi.numeric_violation();
  ASSERT_NE(v, "");
  EXPECT_NE(v.find("pert_pi"), std::string::npos) << v;
}

// Smallest dumbbell that converges quickly: a handful of PERT flows, short
// RTT, everything started inside the first second.
exp::DumbbellConfig small_dumbbell(std::string_view scheme) {
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec(scheme);
  cfg.bottleneck_bps = 10e6;
  cfg.rtt = 0.04;
  cfg.num_fwd_flows = 4;
  cfg.start_window = 0.5;
  return cfg;
}

TEST(SentinelEndToEnd, InjectedNaNInSrttCaughtByWatchdog) {
  exp::Dumbbell d(small_dumbbell("pert"));
  d.network().sched().run_until(3.0);  // flows up, estimators seeded
  auto* sender = dynamic_cast<PertSender*>(&d.fwd_sender(0));
  ASSERT_NE(sender, nullptr);
  ASSERT_TRUE(sender->estimator().ready());
  SentinelTestPeer::poison_srtt(*sender);
  try {
    // The next watchdog tick (0.5 s cadence) polls the sentinels.
    d.network().sched().run_until(5.0);
    FAIL() << "expected the watchdog to catch the poisoned srtt EWMA";
  } catch (const sim::DiagnosticError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("srtt99"), std::string::npos) << what;
    // The snapshot names the flow and carries per-flow diagnostics.
    EXPECT_FALSE(e.diagnostics().empty());
  }
}

TEST(SentinelEndToEnd, InjectedNaNInPiIntegratorCaughtByWatchdog) {
  exp::Dumbbell d(small_dumbbell("pert-pi"));
  d.network().sched().run_until(3.0);
  auto* sender = dynamic_cast<PertPiSender*>(&d.fwd_sender(0));
  ASSERT_NE(sender, nullptr);
  SentinelTestPeer::poison_pi(*sender);
  try {
    d.network().sched().run_until(5.0);
    FAIL() << "expected the watchdog to catch the poisoned PI integrator";
  } catch (const sim::DiagnosticError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pert_pi"), std::string::npos) << what;
    EXPECT_FALSE(e.diagnostics().empty());
  }
}

TEST(SentinelEndToEnd, HealthyRunTripsNothing) {
  exp::Dumbbell d(small_dumbbell("pert"));
  EXPECT_NO_THROW(d.network().sched().run_until(5.0));
}

}  // namespace
}  // namespace pert::core
