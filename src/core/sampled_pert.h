// PERT/PI and PERT/REM: one end-host module templated on the emulated
// controller (Section 6 and the paper's "other AQM algorithms" claim).
//
// Both are PERT with another source for the response probability: a
// per-flow timer feeds the srtt_0.99 queueing-delay estimate to the
// controller every sample_interval(), and each RTT sample draws PERT's
// early response (core::early_response, with the flow's PertParams) at the
// controller's current probability. A controller (PiEmulator, RemEmulator)
// provides `Design`, update(tq), probability(), sample_interval(),
// numeric_violation() and three names: kCcName (registry key) and
// kProbSeries/kTqSeries (its trace counters).
#pragma once

#include <new>
#include <string>
#include <utility>

#include "core/pert_params.h"
#include "core/pert_sender.h"
#include "core/pi_emulation.h"
#include "core/rem_emulation.h"
#include "core/srtt_estimator.h"
#include "sim/random.h"
#include "sim/timer.h"
#include "sim/validate.h"
#include "tcp/tcp_sender.h"

namespace pert::core {

template <class Controller>
class SampledPertSender final : public tcp::TcpSender {
 public:
  /// init_arg payload for ops(): the design plus the PERT knobs the module
  /// reads (srtt_alpha and the early response).
  struct Config {
    typename Controller::Design design;
    PertParams pert;
  };

  /// Per-flow state (the module's private-state slot).
  struct State {
    Controller controller;
    SrttEstimator estimator;
    sim::Rng rng;
    sim::Timer sample_timer;
    EarlyResponseParams early;
    sim::Time last_early = kNeverEarly;
  };

  SampledPertSender(net::Network& net, tcp::TcpConfig cfg, net::FlowId flow,
                    typename Controller::Design design,
                    const PertParams& pert = {})
      : tcp::TcpSender(net, std::move(cfg), flow, ops(Config{design, pert})) {}

  double response_probability() const noexcept {
    return state().controller.probability();
  }

  /// The ops table. init validates the config, forks the network RNG and
  /// starts the sampling timer; same init_arg lifetime contract as
  /// cubic_ops.
  static tcp::CongestionOps ops(const Config& cfg) {
    tcp::CongestionOps o;
    o.name = Controller::kCcName;
    o.priv_size = sizeof(State);
    o.init_arg = &cfg;
    o.init = &init;
    o.release = [](void* priv) { st(priv).~State(); };
    o.on_rtt_sample = &on_rtt_sample;
    o.invariant_check = &invariants;
    return o;
  }

 private:
  static State& st(void* priv) { return *static_cast<State*>(priv); }

  /// Periodic controller update (the timer callback). Re-derives the state
  /// from the sender's priv blob — both addresses are stable for the
  /// sender's lifetime.
  static void tick(tcp::TcpSender& sender, State& s) {
    tcp::CcHost h(sender);
    if (s.estimator.ready()) {
      s.controller.update(s.estimator.queueing_delay());
      if (obs::Tracer* tr = h.tracer();
          tr && tr->wants(obs::Category::kPert, obs::Severity::kInfo)) {
        tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                    Controller::kProbSeries, h.trace_id(),
                    s.controller.probability());
        tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                    Controller::kTqSeries, h.trace_id(),
                    s.estimator.queueing_delay());
      }
    }
    s.sample_timer.schedule_in(s.controller.sample_interval());
  }

  static void init(tcp::CcHost& h, void* priv) {
    const auto& cfg = *static_cast<const Config*>(h.ops().init_arg);
    cfg.design.validate();
    cfg.pert.validate();
    tcp::TcpSender* sender = &h.sender();
    // Brace-init evaluates left to right, reproducing the legacy member
    // order: controller, estimator, RNG fork, then the timer.
    auto* s = new (priv) State{
        Controller(cfg.design), SrttEstimator(cfg.pert.srtt_alpha),
        h.net().rng().fork(),
        sim::Timer(h.net().sched(),
                   [sender, priv] { tick(*sender, st(priv)); }),
        cfg.pert};
    s->sample_timer.schedule_in(cfg.design.sample_interval);
  }

  static void on_rtt_sample(tcp::CcHost& h, void* priv, double rtt) {
    State& s = st(priv);
    s.estimator.add_sample(rtt);
    const double p = s.controller.probability();
    if (p > 0.0 && s.rng.bernoulli(p))
      early_response(h, s.early, s.last_early, rtt);
  }

  static std::string invariants(const tcp::TcpSender& /*sender*/,
                                const void* priv) {
    const State& s = *static_cast<const State*>(priv);
    if (std::string v = s.controller.numeric_violation(); !v.empty())
      return v;
    return s.estimator.numeric_violation();
  }

  const State& state() const noexcept {
    return *static_cast<const State*>(cc_priv());
  }
  State& state() noexcept { return *static_cast<State*>(cc_priv()); }

  friend class SentinelTestPeer;  // NaN-injection tests for the sentinel layer
};

using PertPiSender = SampledPertSender<PiEmulator>;
using PertRemSender = SampledPertSender<RemEmulator>;

}  // namespace pert::core
