#include "core/cc_pert_modules.h"

#include <algorithm>

#include "core/pert_params.h"
#include "core/pert_sender.h"
#include "core/sampled_pert.h"
#include "tcp/cc_registry.h"

namespace pert::core {

namespace {

/// The builder's PERT knobs, or the defaults when it carries none.
PertParams pert_params(const tcp::CcContext& ctx) {
  const auto* pp = static_cast<const PertParams*>(ctx.pert_params);
  return pp != nullptr ? *pp : PertParams{};
}

tcp::TcpSender* make_pert(const tcp::CcContext& ctx) {
  return ctx.net->add_agent<PertSender>(nullptr, 0, *ctx.net, ctx.tcp,
                                        ctx.flow, pert_params(ctx));
}

tcp::TcpSender* make_pert_pi(const tcp::CcContext& ctx) {
  const PiEmuDesign d =
      PiEmuDesign::for_path(ctx.pps, std::max(1.0, ctx.n_flows), ctx.rtt_max,
                            ctx.target_delay, ctx.sample_hz, ctx.gain_boost);
  return ctx.net->add_agent<PertPiSender>(nullptr, 0, *ctx.net, ctx.tcp,
                                          ctx.flow, d, pert_params(ctx));
}

tcp::TcpSender* make_pert_rem(const tcp::CcContext& ctx) {
  const RemEmuDesign d =
      RemEmuDesign::for_path(ctx.pps, ctx.target_delay, ctx.sample_hz);
  return ctx.net->add_agent<PertRemSender>(nullptr, 0, *ctx.net, ctx.tcp,
                                           ctx.flow, d, pert_params(ctx));
}

}  // namespace

void register_pert_cc_modules() {
  auto& r = tcp::CcRegistry::instance();
  r.add({"pert",
         "PERT: probabilistic early response emulating gentle RED (Sec. 3)",
         false, &make_pert});
  r.add({PiEmulator::kCcName,
         "PERT/PI: end-host PI controller on queueing delay (Sec. 6)", false,
         &make_pert_pi});
  r.add({RemEmulator::kCcName,
         "PERT/REM: end-host REM price on queueing delay (Sec. 6)", false,
         &make_pert_rem});
}

}  // namespace pert::core
