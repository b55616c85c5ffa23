#include "tcp/cc_registry.h"

#include "tcp/cc_cubic.h"
#include "tcp/cc_dctcp.h"
#include "tcp/tcp_sender.h"
#include "tcp/vegas.h"

namespace pert::tcp {

namespace {

TcpSender* make_sack(const CcContext& ctx) {
  return ctx.net->add_agent<TcpSender>(nullptr, 0, *ctx.net, ctx.tcp,
                                       ctx.flow);
}

}  // namespace

void CcInfo::add_builtins(sim::Registry<CcInfo>& r) {
  r.add({"sack", "SACK loss recovery, Reno growth (the paper's baseline)",
         false, &make_sack});
  r.add({"vegas", "TCP Vegas delay-based avoidance (Brakmo-Peterson)", false,
         &make_vegas_sender});
  r.add({"cubic", "CUBIC window growth (RFC 9438), beta=0.7", false,
         &make_cubic_sender});
  r.add({"dctcp",
         "DCTCP: ECN-mark-fraction proportional reduction (alpha EWMA)", true,
         &make_dctcp_sender});
}

}  // namespace pert::tcp
