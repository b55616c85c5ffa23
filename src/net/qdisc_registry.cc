#include "net/qdisc_registry.h"

#include "net/avq_queue.h"
#include "net/codel_queue.h"
#include "net/fq_codel_queue.h"
#include "net/pi_queue.h"
#include "net/pie_queue.h"
#include "net/red_queue.h"
#include "net/rem_queue.h"

namespace pert::net {

namespace {

std::unique_ptr<Queue> make_droptail(const QdiscContext& ctx) {
  return std::make_unique<DropTailQueue>(*ctx.sched, ctx.capacity_pkts);
}

std::unique_ptr<Queue> make_red(const QdiscContext& ctx) {
  RedParams rp = RedParams::auto_tuned(ctx.capacity_pkts, ctx.pps, ctx.ecn);
  return std::make_unique<RedQueue>(*ctx.sched, ctx.capacity_pkts, rp,
                                    ctx.fork_rng());
}

std::unique_ptr<Queue> make_pi(const QdiscContext& ctx) {
  PiDesign d =
      PiDesign::for_link(ctx.pps, ctx.n_flows, ctx.rtt_max, ctx.q_ref);
  auto q = std::make_unique<PiQueue>(*ctx.sched, ctx.capacity_pkts, d,
                                     ctx.ecn, ctx.fork_rng());
  if (ctx.q_ref < ctx.q_ref_requested)
    q->note_param_clamp("q_ref", ctx.q_ref_requested, ctx.q_ref);
  return q;
}

std::unique_ptr<Queue> make_rem(const QdiscContext& ctx) {
  RemParams rp;
  rp.q_ref = ctx.q_ref;
  rp.ecn = ctx.ecn;
  auto q = std::make_unique<RemQueue>(*ctx.sched, ctx.capacity_pkts, rp,
                                      ctx.fork_rng());
  if (ctx.q_ref < ctx.q_ref_requested)
    q->note_param_clamp("q_ref", ctx.q_ref_requested, ctx.q_ref);
  return q;
}

std::unique_ptr<Queue> make_avq(const QdiscContext& ctx) {
  AvqParams ap;
  ap.ecn = ctx.ecn;
  return std::make_unique<AvqQueue>(*ctx.sched, ctx.capacity_pkts,
                                    ctx.link_bps, ap);
}

std::unique_ptr<Queue> make_codel(const QdiscContext& ctx) {
  CodelParams cp;
  cp.ecn = ctx.ecn;
  return std::make_unique<CodelQueue>(*ctx.sched, ctx.capacity_pkts, cp);
}

std::unique_ptr<Queue> make_fq_codel(const QdiscContext& ctx) {
  FqCodelParams fp;
  fp.codel.ecn = ctx.ecn;
  return std::make_unique<FqCodelQueue>(*ctx.sched, ctx.capacity_pkts, fp);
}

std::unique_ptr<Queue> make_pie(const QdiscContext& ctx) {
  PieParams pp;
  pp.target = ctx.target_delay;
  pp.pps = ctx.pps;
  pp.ecn = ctx.ecn;
  return std::make_unique<PieQueue>(*ctx.sched, ctx.capacity_pkts, pp,
                                    ctx.fork_rng());
}

}  // namespace

void QdiscInfo::add_builtins(sim::Registry<QdiscInfo>& r) {
  r.add({"droptail", "tail-drop FIFO (the paper's non-AQM baseline)", false,
         &make_droptail});
  r.add({"red", "Random Early Detection, auto-tuned thresholds", true,
         &make_red});
  r.add({"pi", "PI controller on instantaneous queue length", true,
         &make_pi});
  r.add({"rem", "Random Exponential Marking price integrator", true,
         &make_rem});
  r.add({"avq", "Adaptive Virtual Queue (Kunniyur-Srikant)", true,
         &make_avq});
  r.add({"codel", "CoDel sojourn-time AQM (RFC 8289)", true, &make_codel});
  r.add({"fq-codel", "per-flow CoDel with DRR fair queueing (RFC 8290)", true,
         &make_fq_codel});
  r.add({"pie", "PIE latency-based drop-probability AQM (RFC 8033)", true,
         &make_pie});
}

}  // namespace pert::net
