#include "exp/dumbbell.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "exp/invariants.h"
#include "net/qdisc_registry.h"
#include "stats/stats.h"
#include "tcp/cc_registry.h"

namespace pert::exp {

namespace {
constexpr std::int32_t kPort = 1;
/// Access links run at this multiple of the bottleneck rate.
constexpr double kAccessMultiplier = 4.0;
}

void DumbbellConfig::validate() const {
  // Resolve both scheme names up front so a typo'd combination fails here,
  // before any node is built, with the registries' did-you-mean hint.
  require_registered(scheme, "DumbbellConfig");
  sim::require_positive("DumbbellConfig", "bottleneck_bps", bottleneck_bps);
  sim::require_positive("DumbbellConfig", "rtt", rtt);
  for (double r : flow_rtts)
    sim::require_positive("DumbbellConfig", "flow_rtts[i]", r);
  sim::require_at_least("DumbbellConfig", "num_fwd_flows", num_fwd_flows, 1);
  sim::require_at_least("DumbbellConfig", "num_rev_flows", num_rev_flows, 0);
  sim::require_at_least("DumbbellConfig", "num_web_sessions", num_web_sessions,
                        0);
  sim::require_at_least("DumbbellConfig", "buffer_pkts", buffer_pkts, 0);
  sim::require_non_negative("DumbbellConfig", "start_window", start_window);
  sim::require_non_negative("DumbbellConfig", "start_offset", start_offset);
  sim::require_at_least("DumbbellConfig", "flow_id_base", flow_id_base, 0);
  sim::require_positive("DumbbellConfig", "pi_target_delay", pi_target_delay);
  sim::require_positive("DumbbellConfig", "pert_pi_gain_boost",
                        pert_pi_gain_boost);
  sim::require_positive("DumbbellConfig", "pert_pi_sample_hz",
                        pert_pi_sample_hz);
  sim::require_prob("DumbbellConfig", "nonproactive_fraction",
                    nonproactive_fraction);
  sim::require_positive("DumbbellConfig", "obs.sample_interval",
                        obs.sample_interval);
  sim::require_at_least("DumbbellConfig", "sim_threads", sim_threads, 0);
  if (sim_threads > 0) {
    // The parallel engine runs shards on worker threads; anything that reads
    // cross-shard state mid-run from a single timer (web session generators,
    // the watchdog poller, observability sampling) is a data race there and
    // must be off. Window metrics still work: they snapshot between engine
    // rounds on the calling thread.
    if (num_web_sessions > 0)
      throw sim::ConfigError(
          "DumbbellConfig: web sessions are not supported with sim_threads > 0",
          "component=DumbbellConfig param=num_web_sessions value=" +
              std::to_string(num_web_sessions) + "\n");
    if (obs.any())
      throw sim::ConfigError(
          "DumbbellConfig: observability is not supported with sim_threads > 0",
          "component=DumbbellConfig param=obs sim_threads=" +
              std::to_string(sim_threads) + "\n");
  }
  tcp.validate();
  pert.validate();
  impair.validate();
}

std::int32_t DumbbellConfig::resolved_buffer_pkts() const {
  if (buffer_pkts > 0) return buffer_pkts;
  // Paper rule: buffer = BDP (packets), at least twice the number of flows.
  const double bdp = bottleneck_bps * rtt / (8.0 * tcp.seg_bytes());
  const double n_long = num_fwd_flows + num_rev_flows;
  return static_cast<std::int32_t>(std::max({bdp, 2.0 * n_long, 10.0}));
}

Dumbbell::Dumbbell(DumbbellConfig cfg)
    : cfg_(cfg),
      net_(cfg.seed),
      obs_(cfg.obs),
      sampler_(net_.sched(), [this] { sample_tick(); }) {
  cfg_.validate();
  if (cfg_.sim_threads > 0) {
    net_.set_shards(2 + kFlowShards);
    net_.set_sim_threads(cfg_.sim_threads);
  }
  // Shard layout, a function of the shard count. With 2 + kFlowShards
  // shards: shard 0 holds r1 and the forward bottleneck, shard 1 holds r2
  // and the reverse bottleneck (the bottleneck propagation delay is the
  // lookahead between them — splitting the routers roughly halves the
  // busiest shard's event share), and shards 2.. hold one endpoint lane
  // each, dealt round-robin. A one-shard network puts both routers and its
  // one lane on shard 0.
  const bool sharded = net_.num_shards() > 1;
  const int r2_shard = sharded ? 1 : 0;
  next_flow_ = cfg_.flow_id_base;
  cfg_.tcp.ecn = cfg_.scheme.ecn;

  // Struct-of-arrays arenas for the hot per-flow state, one per endpoint
  // lane, pre-sized for the configured flow population (later add_flows
  // cohorts that overflow fall back to inline storage — an optimization
  // lost, not an error).
  const std::int32_t total_paths =
      cfg_.num_fwd_flows + cfg_.num_rev_flows + cfg_.num_web_sessions;
  const std::int32_t n_lanes = sharded ? kFlowShards : 1;
  const std::int32_t per_arena =
      std::max(1, (total_paths + n_lanes - 1) / n_lanes);
  for (std::int32_t i = 0; i < n_lanes; ++i)
    arenas_.push_back(std::make_unique<tcp::FlowArena>(per_arena));

  double min_rtt = cfg_.rtt;
  if (!cfg_.flow_rtts.empty())
    min_rtt = *std::min_element(cfg_.flow_rtts.begin(), cfg_.flow_rtts.end());

  buffer_pkts_ = cfg_.resolved_buffer_pkts();

  bottleneck_delay_ = 0.2 * min_rtt;  // one-way; access links supply the rest

  r1_ = net_.add_node();
  {
    net::Network::ShardCursor at_r2(net_, r2_shard);
    r2_ = net_.add_node();
  }
  std::unique_ptr<net::Queue> fwd_q = make_bottleneck_queue();
  if (cfg_.impair.any_queue_impairment()) {
    // Fork the impairment stream only when enabled, so a clean run draws the
    // same RNG sequence as builds without impairment support.
    fwd_q = std::make_unique<net::ImpairmentQueue>(
        net_.sched(), std::move(fwd_q), cfg_.impair, net_.rng().fork());
  }
  fwd_link_ = net_.add_link(r1_, r2_, cfg_.bottleneck_bps, bottleneck_delay_,
                            std::move(fwd_q));
  {
    // The reverse transmitter (and its queue) run on r2's shard.
    net::Network::ShardCursor at_r2(net_, r2_shard);
    net_.add_link(r2_, r1_, cfg_.bottleneck_bps, bottleneck_delay_,
                  make_bottleneck_queue());
  }
  fwd_queue_ = &fwd_link_->queue();
  if (cfg_.impair.flaps_link())
    net::schedule_link_flaps(net_.sched(), *fwd_link_, cfg_.impair.flap);

  // Long-term forward flows.
  for (std::int32_t i = 0; i < cfg_.num_fwd_flows; ++i) {
    const double rtt = cfg_.flow_rtts.empty()
                           ? cfg_.rtt
                           : cfg_.flow_rtts[i % cfg_.flow_rtts.size()];
    const bool force_sack =
        cfg_.nonproactive_fraction > 0 &&
        static_cast<double>(i) <
            cfg_.nonproactive_fraction * cfg_.num_fwd_flows;
    const sim::Time start =
        cfg_.start_offset + net_.rng().uniform(0.0, cfg_.start_window);
    fwd_senders_.push_back(add_flow_path(r1_, r2_, rtt, next_flow_++, start,
                                         force_sack, /*reverse=*/false));
  }
  // Long-term reverse flows.
  for (std::int32_t i = 0; i < cfg_.num_rev_flows; ++i) {
    const sim::Time start =
        cfg_.start_offset + net_.rng().uniform(0.0, cfg_.start_window);
    rev_senders_.push_back(add_flow_path(r2_, r1_, cfg_.rtt, next_flow_++,
                                         start, /*force_sack=*/false,
                                         /*reverse=*/true));
  }
  // Web sessions (forward direction).
  for (std::int32_t i = 0; i < cfg_.num_web_sessions; ++i) {
    tcp::TcpSender* s =
        add_flow_path(r1_, r2_, cfg_.rtt, next_flow_++,
                      /*start=*/-1.0, /*force_sack=*/false, /*reverse=*/false);
    web_senders_.push_back(s);
    const sim::Time start =
        cfg_.start_offset + net_.rng().uniform(0.0, cfg_.start_window);
    web_sessions_.push_back(std::make_unique<traffic::WebSession>(
        net_.sched(), *s, cfg_.web, net_.rng().fork(), start));
  }

  net_.compute_routes();
  net_.finalize_shards();

  // The watchdog polls every queue and sender from one shard-0 timer, which
  // is a cross-shard read under the parallel engine — skip it on two or more
  // shards (both sim_threads=1 and =N skip, so the determinism oracle still
  // matches).
  if (!sharded)
    checker_ = install_standard_invariants(
        net_,
        [this] {
          std::vector<const tcp::TcpSender*> all;
          all.reserve(fwd_senders_.size() + rev_senders_.size() +
                      web_senders_.size());
          for (auto* s : fwd_senders_) all.push_back(s);
          for (auto* s : rev_senders_) all.push_back(s);
          for (auto* s : web_senders_) all.push_back(s);
          return all;
        },
        cfg_.watchdog);

  // Wire the tracer through every layer. This changes no simulation
  // behavior (instrumentation points gate on wants(), which is false for a
  // disabled probe-less tracer), so clean runs stay deterministic.
  net_.sched().set_tracer(&obs_.tracer());
  fwd_link_->set_tracer(&obs_.tracer(), 0);  // covers the bottleneck queue
  for (auto* s : fwd_senders_) s->set_tracer(&obs_.tracer());
  for (auto* s : rev_senders_) s->set_tracer(&obs_.tracer());
  for (auto* s : web_senders_) s->set_tracer(&obs_.tracer());
}

std::unique_ptr<net::Queue> Dumbbell::make_bottleneck_queue() {
  const double pps = cfg_.bottleneck_bps / (8.0 * cfg_.tcp.seg_bytes());
  net::QdiscContext qc;
  qc.sched = &net_.sched();
  qc.capacity_pkts = buffer_pkts_;
  qc.link_bps = cfg_.bottleneck_bps;
  qc.pps = pps;
  qc.ecn = cfg_.scheme.ecn;
  qc.n_flows = std::max(1, cfg_.num_fwd_flows);
  qc.rtt_max = cfg_.rtt * 1.5 + buffer_pkts_ / pps;
  qc.target_delay = cfg_.pi_target_delay;
  // The discipline's backlog target: the delay target in packets, capped at
  // half the buffer (the factory emits the q_ref clamp note when capped).
  qc.q_ref_requested = pps * cfg_.pi_target_delay;
  qc.q_ref = std::min<double>(buffer_pkts_ / 2.0, qc.q_ref_requested);
  // Lazy: only drawing disciplines fork, so DropTail/AVQ/CoDel builds leave
  // the scenario RNG stream exactly where the hard-wired switch left it.
  qc.fork_rng = [this] { return net_.rng().fork(); };
  return net::QdiscRegistry::instance().make(cfg_.scheme.qdisc, qc);
}

tcp::TcpSender* Dumbbell::make_sender(net::FlowId flow, bool force_sack,
                                      tcp::FlowArena* arena) {
  tcp::CcContext cx;
  cx.net = &net_;
  cx.tcp = cfg_.tcp;
  cx.tcp.ecn = force_sack ? false : cfg_.scheme.ecn;
  cx.tcp.arena = arena;
  cx.flow = flow;
  cx.pps = cfg_.bottleneck_bps / (8.0 * cfg_.tcp.seg_bytes());
  cx.n_flows = std::max(1, cfg_.num_fwd_flows);
  // When the controller works, the stationary RTT is close to the
  // propagation RTT plus the target delay — designing for the full
  // buffer-delay worst case makes K ~ R^-3 uselessly sluggish.
  cx.rtt_max = cfg_.rtt * 1.2 + 4.0 * cfg_.pi_target_delay;
  cx.target_delay = cfg_.pi_target_delay;
  cx.gain_boost = cfg_.pert_pi_gain_boost;
  cx.sample_hz = cfg_.pert_pi_sample_hz;
  cx.pert_params = &cfg_.pert;
  return tcp::CcRegistry::instance().make(
      force_sack ? "sack" : cfg_.scheme.cc, cx);
}

tcp::TcpSender* Dumbbell::add_flow_path(net::Node* edge_src,
                                        net::Node* edge_dst, double rtt,
                                        net::FlowId flow, sim::Time start,
                                        bool force_sack, bool reverse) {
  // Endpoint lane for this flow path: everything built below — nodes,
  // access queues, sink, sender (and the timers they capture) — belongs to
  // its shard, one of the last n_lanes shards. Round-robin over a FIXED lane
  // count so the layout (and with it the cross-shard event keys) never
  // depends on the worker-thread count.
  const auto n_lanes = static_cast<std::int32_t>(arenas_.size());
  const std::int32_t lane = next_lane_++ % n_lanes;
  net::Network::ShardCursor shard_scope(net_,
                                        net_.num_shards() - n_lanes + lane);

  // One-way budget: rtt/2 = access_src + bottleneck + access_dst.
  const double access_delay =
      std::max(0.0005, (rtt / 2.0 - bottleneck_delay_) / 2.0);
  const double access_bps =
      std::max(cfg_.bottleneck_bps * kAccessMultiplier, 10e6);
  const std::int32_t access_buf =
      std::max(64, buffer_pkts_);

  net::Node* src = net_.add_node();
  net::Node* dst = net_.add_node();
  net_.add_duplex_droptail(src, edge_src, access_bps, access_delay, access_buf);
  net_.add_duplex_droptail(edge_dst, dst, access_bps, access_delay, access_buf);

  auto* sink = net_.add_agent<tcp::TcpSink>(dst, kPort, net_);
  if (!reverse) fwd_sinks_.push_back(sink);

  tcp::TcpSender* sender = make_sender(
      flow, force_sack, arenas_[static_cast<std::size_t>(lane)].get());
  src->bind(*sender, kPort);
  sender->connect(dst->id(), kPort);
  if (start >= 0) sender->start(start);
  return sender;
}

void Dumbbell::maybe_start_sampler() {
  if (sampler_started_ || !obs_.sampling_active()) return;
  // validate() rejects observed sharded configs; this catches probes added
  // after construction, which would race the sampler across shards.
  if (net_.num_shards() > 1)
    throw sim::ConfigError(
        "Dumbbell: observability sampling is not supported with "
        "sim_threads > 0",
        "component=Dumbbell param=obs\n");
  sampler_started_ = true;
  sampler_.schedule_in(obs_.config().sample_interval);
}

void Dumbbell::sample_tick() {
  const double t = net_.now();
  const double qlen = static_cast<double>(fwd_queue_->len_pkts());
  const double qdelay =
      qlen * cfg_.tcp.seg_bytes() * 8.0 / cfg_.bottleneck_bps;
  obs_.sample(t, "queue.len", 0, qlen);
  obs_.sample(t, "queue.delay", 0, qdelay);
  obs::Tracer& tr = obs_.tracer();
  if (tr.wants(obs::Category::kQueue, obs::Severity::kInfo))
    tr.counter(t, obs::Category::kQueue, obs::Severity::kInfo, "queue.delay",
               0, qdelay);
  if (!fwd_senders_.empty()) {
    const tcp::TcpSender* s0 = fwd_senders_.front();
    obs_.sample(t, "tcp.cwnd", 0, s0->cwnd());
    obs_.sample(t, "tcp.srtt", 0, s0->srtt());
    if (tr.wants(obs::Category::kTcp, obs::Severity::kInfo))
      tr.counter(t, obs::Category::kTcp, obs::Severity::kInfo, "tcp.cwnd", 0,
                 s0->cwnd());
  }
  sampler_.schedule_in(obs_.config().sample_interval);
}

WindowMetrics Dumbbell::measure_window(sim::Time warmup, sim::Time measure) {
  require_runnable_window("Dumbbell", warmup, measure);
  maybe_start_sampler();
  net_.run_until(warmup);
  recorder_.begin(*fwd_queue_, *fwd_link_, fwd_senders_, net_.now());
  net_.run_until(warmup + measure);
  WindowMetrics m =
      recorder_.end(buffer_pkts_, cfg_.bottleneck_bps, net_.now());
  goodputs_ = recorder_.goodputs();

  if (obs_.config().metrics) {
    obs::MetricRegistry& reg = obs_.registry();
    reg.counter("window.count").add(1);
    reg.counter("window.drops").add(m.drops);
    reg.counter("window.drops.congestion").add(m.congestion_drops);
    reg.counter("window.drops.overflow").add(m.overflow_drops);
    reg.counter("window.drops.injected").add(m.injected_drops);
    reg.counter("window.ecn_marks").add(m.ecn_marks);
    reg.counter("window.early_responses").add(m.early_responses);
    reg.counter("window.timeouts").add(m.timeouts);
    reg.counter("window.loss_events").add(m.loss_events);
    reg.gauge("window.avg_queue_pkts").set(m.avg_queue_pkts);
    reg.gauge("window.utilization").set(m.utilization);
    reg.gauge("window.jain").set(m.jain);
    reg.gauge("window.agg_goodput_bps").set(m.agg_goodput_bps);
    reg.histogram("window.norm_queue", 0.0, 1.0, 20).add(m.norm_queue);
  }
  return m;
}

std::vector<std::int32_t> Dumbbell::add_flows(std::int32_t n, sim::Time at) {
  // Topology is frozen once finalize_shards() has routed boundary links
  // through channels; the dynamic-behavior experiment stays single-threaded.
  if (net_.num_shards() > 1)
    throw sim::ConfigError(
        "Dumbbell: add_flows is not supported with sim_threads > 0",
        "component=Dumbbell param=sim_threads\n");
  std::vector<std::int32_t> idx;
  for (std::int32_t i = 0; i < n; ++i) {
    idx.push_back(static_cast<std::int32_t>(fwd_senders_.size()));
    fwd_senders_.push_back(add_flow_path(r1_, r2_, cfg_.rtt, next_flow_++, at,
                                         /*force_sack=*/false,
                                         /*reverse=*/false));
    fwd_senders_.back()->set_tracer(&obs_.tracer());
  }
  net_.compute_routes();
  return idx;
}

void Dumbbell::stop_flow(std::int32_t i) { fwd_senders_.at(i)->stop(); }

}  // namespace pert::exp
