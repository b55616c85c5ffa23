// Repository benchmark: PERT emulating AQM at the end host, SACK senders
// behind a router AQM, and PERT under web-session churn.
//
//   perfbench --workload endhost-aqm|router-aqm|web-mix --seed N
//             --seconds S --trace 0|1 [--reference FILE] [--out-dir DIR]
//   perfbench --self-test | --list
//
// Every cell is an exp::Dumbbell built from an exp::SchemeSpec string and run
// as a runner::Job on a one-thread runner::ExperimentRunner. The whole grid
// repeats until S seconds have passed; end-to-end metrics aggregate the
// repetitions (see run_workload). All timings are host wall time around
// public calls; the simulated outputs are checked (conservation, sanity
// bands, a digest that must repeat exactly), never timed.
//
// --trace 1 prints the per-layer metrics instead: spans around each call the
// benchmark makes (exp.setup, sim.warmup, sim.measure, exp.collect,
// runner.cell, runner.run, runner.report), exact counts read from public
// counters at the phase boundaries, and per-op costs of each layer's public
// functions timed in isolation on inputs shaped like the cell. A layer's
// share is its count times its isolated ns/op over the sim.measure wall.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when any cell failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "core/pi_emulation.h"
#include "core/response_curve.h"
#include "core/srtt_estimator.h"
#include "exp/dumbbell.h"
#include "exp/scheme.h"
#include "net/network.h"
#include "net/qdisc_registry.h"
#include "runner/json.h"
#include "runner/report.h"
#include "runner/runner.h"
#include "runner/seed.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "tcp/cc_registry.h"
#include "tcp/flow_arena.h"
#include "tcp/tcp_sender.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace pert;
using Clock = std::chrono::steady_clock;
using runner::JsonValue;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kRtt = 0.060;
/// Long-term flows and web sessions start uniformly in [0, kStartWindow).
constexpr double kStartWindow = 1.0;

struct CellSpec {
  std::string key;
  std::string scheme;  ///< exp::parse_scheme_spec input
  std::int32_t flows = 0;
  std::int32_t web = 0;
  double bps = 0;
};

struct Workload {
  std::string name;
  double warmup = 0;   ///< simulated seconds before the measure window
  double measure = 0;  ///< simulated seconds measured
  std::vector<CellSpec> cells;
};

void add_cell(Workload& w, const std::string& scheme, std::int32_t flows,
              std::int32_t web, double bps) {
  std::string key = w.name + "/" + scheme + "/flows=" + std::to_string(flows);
  if (web > 0) key += "/web=" + std::to_string(web);
  w.cells.push_back({key, scheme, flows, web, bps});
}

std::vector<Workload> all_workloads() {
  std::vector<Workload> out;
  // The paper's proposal: delay-based early response at the end host over a
  // DropTail bottleneck. Work sits in TCP ACK handling and the PERT
  // estimator; the queue discipline does almost nothing.
  Workload e{"endhost-aqm", 2.0, 1.5, {}};
  for (std::int32_t n : {100, 1000})
    for (const char* s : {"pert", "pert-pi"}) add_cell(e, s, n, 0, 250e6);
  out.push_back(e);
  // The paper's baselines plus PIE: plain Reno/SACK senders (empty
  // CongestionOps table) behind a router AQM. Work moves into net qdiscs.
  Workload r{"router-aqm", 2.0, 1.5, {}};
  for (std::int32_t n : {100, 1000})
    for (const char* s : {"sack-red", "sack-pi", "sack/pie"})
      add_cell(r, s, n, 0, 250e6);
  out.push_back(r);
  // Fig. 9's mix: 50 long-term PERT flows plus web sessions. Short transfers
  // make session churn, sender restarts and RTO timer churn dominate.
  Workload m{"web-mix", 3.0, 3.0, {}};
  for (std::int32_t web : {250, 1000}) add_cell(m, "pert", 50, web, 150e6);
  out.push_back(m);
  return out;
}

exp::DumbbellConfig make_config(const CellSpec& c, std::uint64_t seed) {
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec(c.scheme);
  cfg.bottleneck_bps = c.bps;
  cfg.rtt = kRtt;
  cfg.num_fwd_flows = c.flows;
  cfg.num_web_sessions = c.web;
  cfg.start_window = kStartWindow;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Output digest: every WindowMetrics field, dispatched events, and each
// link's transmit and queue counters. Bit patterns, so any change in
// simulated behaviour moves it.

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    add(u);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string cell_digest(const exp::WindowMetrics& m, std::uint64_t events,
                        const net::Network& net) {
  Digest d;
  for (double v : {m.duration, m.avg_queue_pkts, m.norm_queue, m.drop_rate,
                   m.utilization, m.jain, m.agg_goodput_bps})
    d.add(v);
  for (std::uint64_t v :
       {m.drops, m.congestion_drops, m.overflow_drops, m.injected_drops,
        m.ecn_marks, m.early_responses, m.timeouts, m.loss_events})
    d.add(v);
  d.add(events);
  for (const net::Link* l : net.links()) {
    const net::Link::Stats ls = l->snapshot();
    d.add(ls.pkts_tx);
    d.add(ls.bytes_tx);
    const net::Queue::Stats q = l->queue().snapshot();
    for (std::uint64_t v : {q.arrivals, q.departures, q.drops, q.forced_drops,
                            q.early_drops, q.injected_drops, q.ecn_marks,
                            q.bytes_in})
      d.add(v);
    d.add(q.len_integral);
  }
  return d.hex();
}

// ---------------------------------------------------------------------------
// Phase-boundary snapshots (public counters only)

struct Snap {
  std::uint64_t link_tx = 0;
  std::uint64_t events = 0;
  // Traced runs only below.
  std::uint64_t long_term_tx = 0;  ///< transmissions of long-term flows
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  net::Queue::Stats q;
  net::PacketPool::Stats pool;
  tcp::TcpSender::FlowStats tcp;
};

/// Dumbbell links are created bottleneck pair first, then four private
/// access links per flow path in flow order: src->edge (data), edge->src
/// (ACKs), edge->dst (data), dst->edge (ACKs). A long-term packet that
/// reaches its far access link also crossed the bottleneck once.
std::uint64_t long_term_tx(const std::vector<std::uint64_t>& tx,
                           std::int32_t flows) {
  std::uint64_t sum = 0;
  for (std::int32_t k = 0; k < flows; ++k) {
    const std::size_t b = 2 + 4 * static_cast<std::size_t>(k);
    if (b + 3 >= tx.size()) break;
    sum += tx[b] + tx[b + 1] + tx[b + 2] + tx[b + 3] + tx[b + 1] + tx[b + 2];
  }
  return sum;
}

Snap take_snap(exp::Dumbbell& d, bool traced) {
  Snap s;
  net::Network& net = d.network();
  std::vector<std::uint64_t> tx;
  for (const net::Link* l : net.links()) {
    tx.push_back(l->snapshot().pkts_tx);
    s.link_tx += tx.back();
  }
  s.events = net.total_dispatched();
  if (!traced) return s;
  s.long_term_tx = long_term_tx(tx, d.num_fwd());
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    const net::Node* n = net.node(static_cast<net::NodeId>(i));
    s.forwarded += n->forwarded();
    s.delivered += n->delivered();
  }
  s.q = d.fwd_queue().snapshot();
  s.pool = net.packet_pool().stats();
  for (std::int32_t i = 0; i < d.num_fwd(); ++i) {
    const auto& f = d.fwd_sender(i).flow_stats();
    s.tcp.acks_rx += f.acks_rx;
    s.tcp.rexmits += f.rexmits;
    s.tcp.timeouts += f.timeouts;
    s.tcp.loss_events += f.loss_events;
    s.tcp.early_responses += f.early_responses;
    s.tcp.ecn_responses += f.ecn_responses;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Cell records and spans

struct Span {
  std::string name;
  std::string cell;
  int rep = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  double start = 0, end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  int add(std::string name, std::string cell, int rep, int parent,
          Clock::time_point a, Clock::time_point b) {
    spans_.push_back({std::move(name), std::move(cell), rep, parent,
                      secs(origin_, a), secs(origin_, b)});
    return static_cast<int>(spans_.size()) - 1;
  }
  JsonValue to_json() const {
    JsonValue::Array arr;
    for (const Span& s : spans_) {
      JsonValue o{JsonValue::Object{}};
      o.set("name", s.name);
      o.set("cell", s.cell);
      o.set("rep", s.rep);
      o.set("parent", static_cast<double>(s.parent));
      o.set("start_s", s.start);
      o.set("end_s", s.end);
      arr.push_back(std::move(o));
    }
    return JsonValue{std::move(arr)};
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What the isolated micro-benches need to look like the cell.
struct CellShape {
  exp::DumbbellConfig cfg;
  std::int32_t buffer_pkts = 0;
  double avg_queue_pkts = 0;
  std::size_t nodes = 0;
  double ack_gap = 0.01;      ///< simulated seconds between one flow's ACKs
  double reduce_every = 0;    ///< ACKs per window reduction (0 = none seen)
};

struct CellRecord {
  Clock::time_point t_begin, t_setup, t_warm, t_measure, t_end;
  std::uint64_t link_tx = 0;  ///< measure-phase transmissions, all links
  std::uint64_t events = 0;   ///< measure-phase dispatched events
  std::string digest;
  std::string problem;        ///< first failed output check, "" when fine
  // Traced runs only:
  std::uint64_t pending = 0;
  std::uint64_t node_hops = 0, forwarded = 0, delivered = 0;
  std::uint64_t q_arrivals = 0, q_drops = 0, q_marks = 0;
  std::uint64_t pool_acquires = 0, pool_allocations = 0, pool_outstanding = 0;
  std::uint64_t acks = 0, rexmits = 0, timeouts = 0, loss_events = 0;
  std::uint64_t early = 0, web_pkts = 0;
  CellShape shape;

  double setup_s() const { return secs(t_begin, t_setup); }
  double warmup_s() const { return secs(t_setup, t_warm); }
  double measure_s() const { return secs(t_warm, t_measure); }
  double collect_s() const { return secs(t_measure, t_end); }
  double cell_s() const { return secs(t_begin, t_end); }
};

/// Output checks that hold for every cell of every workload.
std::string check_outputs(const exp::WindowMetrics& m, exp::Dumbbell& d,
                          std::uint64_t link_tx) {
  for (const net::Link* l : d.network().links())
    if (std::string v = l->queue().conservation_violation(); !v.empty())
      return "queue conservation: " + v;
  if (!(m.utilization > 0.1 && m.utilization <= 1.001))
    return "utilization out of band: " + std::to_string(m.utilization);
  if (!(m.agg_goodput_bps > 0)) return "no long-term goodput";
  if (!(m.jain > 0 && m.jain <= 1.0 + 1e-9))
    return "jain out of range: " + std::to_string(m.jain);
  if (!(m.avg_queue_pkts >= 0 && m.avg_queue_pkts <= d.buffer_pkts()))
    return "average queue out of range: " + std::to_string(m.avg_queue_pkts);
  if (link_tx == 0) return "no link transmissions in the measure window";
  return {};
}

// ---------------------------------------------------------------------------
// One repetition of a workload's grid on a one-thread runner.

struct GridRun {
  /// runner.run() from t_begin to t_run (every cell, construction on), then
  /// the report write until t_report.
  Clock::time_point t_begin, t_run, t_report;
  std::vector<CellRecord> cells;
  std::vector<bool> ok;
  std::vector<std::string> errors;

  double wall_s() const { return secs(t_begin, t_run); }
  double report_s() const { return secs(t_run, t_report); }
};

GridRun run_grid(const Workload& w, std::uint64_t seed, bool traced,
                 const std::string& report_path) {
  GridRun g;
  g.cells.resize(w.cells.size());
  std::vector<runner::Job> jobs;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    runner::Job job;
    job.key = w.cells[i].key;
    job.seed = runner::derive_seed(seed, job.key);
    job.tags["scheme"] = w.cells[i].scheme;
    CellRecord* rec = &g.cells[i];
    const CellSpec spec = w.cells[i];
    const double warmup = w.warmup, measure = w.measure;
    job.run = [rec, spec, warmup, measure,
               traced](const runner::Job& j) -> runner::JobOutput {
      rec->t_begin = Clock::now();
      auto d = std::make_unique<exp::Dumbbell>(make_config(spec, j.seed));
      rec->t_setup = Clock::now();
      d->network().run_until(warmup);
      rec->t_warm = Clock::now();
      const Snap s0 = take_snap(*d, traced);
      if (traced) rec->pending = d->network().sched().pending();
      const exp::WindowMetrics m = d->measure_window(warmup, measure);
      rec->t_measure = Clock::now();
      const Snap s1 = take_snap(*d, traced);
      runner::JobOutput out;
      out.metrics = m;
      out.events = d->network().total_dispatched();
      rec->link_tx = s1.link_tx - s0.link_tx;
      rec->events = s1.events - s0.events;
      rec->digest = cell_digest(m, out.events, d->network());
      rec->problem = check_outputs(m, *d, rec->link_tx);
      if (traced) {
        rec->forwarded = s1.forwarded - s0.forwarded;
        rec->delivered = s1.delivered - s0.delivered;
        rec->node_hops = rec->forwarded + rec->delivered;
        rec->q_arrivals = s1.q.arrivals - s0.q.arrivals;
        rec->q_drops = s1.q.drops - s0.q.drops;
        rec->q_marks = s1.q.ecn_marks - s0.q.ecn_marks;
        rec->pool_acquires = s1.pool.acquires - s0.pool.acquires;
        rec->pool_allocations = s1.pool.allocations - s0.pool.allocations;
        rec->pool_outstanding = d->network().packet_pool().outstanding();
        rec->acks = static_cast<std::uint64_t>(s1.tcp.acks_rx - s0.tcp.acks_rx);
        rec->rexmits =
            static_cast<std::uint64_t>(s1.tcp.rexmits - s0.tcp.rexmits);
        rec->timeouts =
            static_cast<std::uint64_t>(s1.tcp.timeouts - s0.tcp.timeouts);
        rec->loss_events = static_cast<std::uint64_t>(s1.tcp.loss_events -
                                                      s0.tcp.loss_events);
        rec->early = static_cast<std::uint64_t>(s1.tcp.early_responses -
                                                s0.tcp.early_responses);
        const std::uint64_t lt = s1.long_term_tx - s0.long_term_tx;
        rec->web_pkts = rec->link_tx > lt ? rec->link_tx - lt : 0;
        CellShape& sh = rec->shape;
        sh.cfg = d->config();
        sh.buffer_pkts = d->buffer_pkts();
        sh.avg_queue_pkts = m.avg_queue_pkts;
        sh.nodes = d->network().num_nodes();
        const double per_flow_acks =
            static_cast<double>(rec->acks) / std::max(1, d->num_fwd());
        sh.ack_gap = per_flow_acks > 0 ? measure / per_flow_acks : 0.01;
        const std::int64_t reductions =
            (s1.tcp.ecn_responses - s0.tcp.ecn_responses) +
            (s1.tcp.loss_events - s0.tcp.loss_events) +
            (s1.tcp.early_responses - s0.tcp.early_responses);
        sh.reduce_every = reductions > 0 ? static_cast<double>(rec->acks) /
                                               static_cast<double>(reductions)
                                         : 0.0;
      }
      d.reset();  // teardown is part of what a user waits for
      rec->t_end = Clock::now();
      return out;
    };
    jobs.push_back(std::move(job));
  }
  runner::RunnerOptions opts;
  opts.threads = 1;
  opts.progress = false;
  opts.name = "perfbench/" + w.name;
  runner::ExperimentRunner run(opts);
  g.t_begin = Clock::now();
  const runner::RunReport report = run.run(jobs);
  g.t_run = Clock::now();
  if (!report_path.empty()) runner::write_report(report, report_path);
  g.t_report = Clock::now();
  for (const runner::JobResult& r : report.results) {
    g.ok.push_back(r.ok);
    g.errors.push_back(r.ok ? std::string() : r.error);
  }
  return g;
}

// ---------------------------------------------------------------------------
// Isolated per-layer micro-benches: each times one layer's public functions on
// inputs shaped like the cell and returns the median ns/op of 5 batches.

/// Keeps a computed value alive so the timed loop is not optimized away.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

template <class Op>
double time_ns_per_op(Op&& op) {
  std::int64_t i = 0;
  // Calibrate a batch to ~4 ms so the clock read is negligible.
  std::int64_t batch = 256;
  for (;;) {
    const auto a = Clock::now();
    for (std::int64_t k = 0; k < batch; ++k) op(i++);
    const double s = secs(a, Clock::now());
    if (s > 0.004 || batch > (1 << 24)) break;
    batch *= 2;
  }
  std::vector<double> ns;
  for (int b = 0; b < 5; ++b) {
    const auto a = Clock::now();
    for (std::int64_t k = 0; k < batch; ++k) op(i++);
    ns.push_back(secs(a, Clock::now()) * 1e9 / static_cast<double>(batch));
  }
  return median(ns);
}

std::vector<double> draws(std::uint64_t seed, std::size_t n, double lo,
                          double hi) {
  sim::Rng r(seed);
  std::vector<double> v(n);
  for (double& x : v) x = r.uniform(lo, hi);
  return v;
}

/// Scheduler hold model at the cell's heap depth: schedule one event at a
/// random future time, dispatch the earliest.
double sched_ns(std::uint64_t depth) {
  sim::Scheduler s;
  const auto dt = draws(7, 4096, 0.0, 1.0);
  std::uint64_t n = 0;
  for (std::uint64_t k = 0; k < std::max<std::uint64_t>(depth, 1); ++k)
    s.schedule_at(dt[k % dt.size()], [&n] { ++n; });
  return time_ns_per_op([&](std::int64_t i) {
    s.schedule_at(s.now() + dt[static_cast<std::size_t>(i) & 4095],
                  [&n] { ++n; });
    s.run_next();
  });
}

/// Schedule + cancel at the cell's heap depth (an RTO timer rearm).
double cancel_ns(std::uint64_t depth) {
  sim::Scheduler s;
  const auto dt = draws(8, 4096, 0.0, 1.0);
  for (std::uint64_t k = 0; k < std::max<std::uint64_t>(depth, 1); ++k)
    s.schedule_at(dt[k % dt.size()], [] {});
  return time_ns_per_op([&](std::int64_t i) {
    s.cancel(s.schedule_at(dt[static_cast<std::size_t>(i) & 4095], [] {}));
  });
}

/// Node forwarding lookup with the cell's route-table size, and local demux
/// to a bound agent; weighted by the cell's forwarded/delivered mix.
double node_ns(std::size_t nodes, std::uint64_t forwarded,
               std::uint64_t delivered) {
  net::Network net(1);
  std::vector<net::Node*> all;
  for (std::size_t i = 0; i < std::max<std::size_t>(nodes, 2); ++i)
    all.push_back(net.add_node());
  net::Node* router = all[0];
  for (std::size_t i = 1; i < all.size(); ++i)
    router->set_route(all[i]->id(), nullptr);
  // Routes exist for every destination; the value is irrelevant to lookup.
  const auto pick = draws(9, 4096, 1.0, static_cast<double>(all.size()));
  const double fwd = time_ns_per_op([&](std::int64_t i) {
    const auto k =
        static_cast<std::size_t>(pick[static_cast<std::size_t>(i) & 4095]);
    keep(router->route(all[k]->id()));
  });
  struct Holder final : net::Agent {
    net::PacketPtr held;
    void receive(net::PacketPtr p) override { held = std::move(p); }
  };
  auto* h = net.add_agent<Holder>(all[1], 1);
  h->held = net.make_packet();
  h->held->dst = all[1]->id();
  h->held->dst_port = 1;
  const double dlv = time_ns_per_op([&](std::int64_t) {
    all[1]->receive(std::move(h->held));
  });
  const double total = static_cast<double>(forwarded + delivered);
  if (total <= 0) return fwd;
  return (fwd * static_cast<double>(forwarded) +
          dlv * static_cast<double>(delivered)) /
         total;
}

/// The bottleneck discipline exactly as Dumbbell::make_bottleneck_queue
/// builds it for `cfg` with `buffer` packets.
std::unique_ptr<net::Queue> make_isolated_queue(const exp::DumbbellConfig& cfg,
                                                std::int32_t buffer,
                                                sim::Scheduler& sched,
                                                sim::Rng& rng) {
  const double pps = cfg.bottleneck_bps / (8.0 * cfg.tcp.seg_bytes());
  net::QdiscContext qc;
  qc.sched = &sched;
  qc.capacity_pkts = buffer;
  qc.link_bps = cfg.bottleneck_bps;
  qc.pps = pps;
  qc.ecn = cfg.scheme.ecn;
  qc.n_flows = std::max(1, cfg.num_fwd_flows);
  qc.rtt_max = cfg.rtt * 1.5 + buffer / pps;
  qc.target_delay = cfg.pi_target_delay;
  qc.q_ref_requested = pps * cfg.pi_target_delay;
  qc.q_ref = std::min<double>(buffer / 2.0, qc.q_ref_requested);
  qc.fork_rng = [&rng] { return rng.fork(); };
  return net::QdiscRegistry::instance().make(cfg.scheme.qdisc, qc);
}

/// Enqueue + dequeue of the cell's discipline held at its measured
/// occupancy, with the clock advancing one packet time per op. Packets are
/// recycled, and the same loop without the queue is subtracted, so the
/// figure is the discipline's own cost.
double qdisc_ns(const CellShape& sh) {
  // The pool outlives the queue: queued packets release into it.
  net::PacketPool pool;
  sim::Scheduler sched, idle;
  sim::Rng rng(sh.cfg.seed);
  auto q = make_isolated_queue(sh.cfg, sh.buffer_pkts, sched, rng);
  const double pkt_time = 8.0 * sh.cfg.tcp.seg_bytes() / sh.cfg.bottleneck_bps;
  const auto target = static_cast<std::int32_t>(std::lround(sh.avg_queue_pkts));
  const net::Ecn ect = sh.cfg.scheme.ecn ? net::Ecn::Ect0 : net::Ecn::NotEct;
  std::vector<net::PacketPtr> spare;
  auto packet = [&](std::int64_t i) {
    net::PacketPtr p;
    if (spare.empty()) {
      p = pool.acquire();
    } else {
      p = std::move(spare.back());
      spare.pop_back();
    }
    p->size_bytes = sh.cfg.tcp.seg_bytes();
    p->flow = static_cast<net::FlowId>(i % std::max(1, sh.cfg.num_fwd_flows));
    p->ecn = ect;
    return p;
  };
  for (std::int32_t k = 0; k < target; ++k) q->enqueue(packet(k));
  double t = 0;
  const double with_queue = time_ns_per_op([&](std::int64_t i) {
    t += pkt_time;
    sched.run_until(t);
    q->enqueue(packet(i));
    if (q->len_pkts() > target) spare.push_back(q->dequeue());
  });
  double t0 = 0;
  const double loop_only = time_ns_per_op([&](std::int64_t i) {
    t0 += pkt_time;
    idle.run_until(t0);
    spare.push_back(packet(i));
  });
  return std::max(0.0, with_queue - loop_only);
}

/// PacketPool acquire + release with the cell's outstanding population.
double pool_ns(std::uint64_t outstanding) {
  net::PacketPool pool;
  std::vector<net::PacketPtr> ring(std::max<std::uint64_t>(outstanding, 1));
  for (auto& p : ring) p = pool.acquire();
  return time_ns_per_op([&](std::int64_t i) {
    ring[static_cast<std::size_t>(i) % ring.size()] = pool.acquire();
  });
}

/// The sender exactly as Dumbbell::make_sender builds it for `cfg`.
tcp::TcpSender* make_isolated_sender(const exp::DumbbellConfig& cfg,
                                     net::Network& net,
                                     tcp::FlowArena* arena) {
  tcp::CcContext cx;
  cx.net = &net;
  cx.tcp = cfg.tcp;
  cx.tcp.ecn = cfg.scheme.ecn;
  cx.tcp.arena = arena;
  cx.flow = 0;
  cx.pps = cfg.bottleneck_bps / (8.0 * cfg.tcp.seg_bytes());
  cx.n_flows = std::max(1, cfg.num_fwd_flows);
  cx.rtt_max = cfg.rtt * 1.2 + 4.0 * cfg.pi_target_delay;
  cx.target_delay = cfg.pi_target_delay;
  cx.gain_boost = cfg.pert_pi_gain_boost;
  cx.sample_hz = cfg.pert_pi_sample_hz;
  cx.pert_params = &cfg.pert;
  return tcp::CcRegistry::instance().make(cfg.scheme.cc, cx);
}

/// One flow's RTT samples: mostly propagation plus the cell's average
/// queueing delay, with a propagation-only sample every 100 ACKs so
/// delay-based modules estimate the same queueing delay the cell saw.
double rtt_sample(const CellShape& sh, std::int64_t i) {
  const double pps = sh.cfg.bottleneck_bps / (8.0 * sh.cfg.tcp.seg_bytes());
  const double qdelay = sh.avg_queue_pkts / pps;
  return i % 100 == 0 ? sh.cfg.rtt : sh.cfg.rtt + qdelay;
}

/// TcpSender ACK handling with the cell's cc module: new cumulative ACKs at
/// the cell's per-flow ACK spacing, ECN-echo at the cell's reduction rate
/// when the scheme uses ECN. Data segments leave through an unrouted node
/// (dropped there) instead of a link.
double tcp_ack_ns(const CellShape& sh) {
  tcp::FlowArena arena(1);  // outlives the sender, which the network owns
  net::Network net(sh.cfg.seed);
  net::Node* a = net.add_node();
  net::Node* b = net.add_node();
  tcp::TcpSender* s = make_isolated_sender(sh.cfg, net, &arena);
  a->bind(*s, 1);
  s->connect(b->id(), 1);
  s->start(0.0);
  net.run_until(0.0);
  const auto every = static_cast<std::int64_t>(std::llround(sh.reduce_every));
  double t = 0;
  auto ack = [&](std::int64_t i) {
    t += sh.ack_gap;
    net.sched().run_until(t);
    auto p = net.make_packet();
    p->is_ack = true;
    p->flow = 0;
    p->dst = a->id();
    p->dst_port = 1;
    p->ack = std::min(s->snd_una() + 1, s->next_seq());
    p->ts_echo = t - rtt_sample(sh, i);
    p->ece = sh.cfg.scheme.ecn && every > 0 && i % every == 0;
    return p;
  };
  const double with_sender =
      time_ns_per_op([&](std::int64_t i) { s->receive(ack(i)); });
  // The ACK the sink would have built, and the clock advance, are not the
  // sender's work: time the same loop without receive() and subtract.
  const double loop_only = time_ns_per_op([&](std::int64_t i) { ack(i); });
  return std::max(0.0, with_sender - loop_only);
}

/// PERT's per-ACK estimator update plus the response probability and its
/// Bernoulli draw (curve for pert, PI controller for pert-pi).
double core_ns(const CellShape& sh) {
  core::SrttEstimator est(sh.cfg.pert.srtt_alpha);
  sim::Rng rng(sh.cfg.seed);
  double r = 0;
  if (sh.cfg.scheme.cc == "pert-pi") {
    const double pps = sh.cfg.bottleneck_bps / (8.0 * sh.cfg.tcp.seg_bytes());
    core::PiEmulator pi(core::PiEmuDesign::for_path(
        pps, std::max(1, sh.cfg.num_fwd_flows),
        sh.cfg.rtt * 1.2 + 4.0 * sh.cfg.pi_target_delay,
        sh.cfg.pi_target_delay, sh.cfg.pert_pi_sample_hz,
        sh.cfg.pert_pi_gain_boost));
    r = time_ns_per_op([&](std::int64_t i) {
      est.add_sample(rtt_sample(sh, i));
      const double p = pi.update(est.queueing_delay());
      keep(p > 0 && rng.bernoulli(p));
    });
  } else {
    const core::ResponseCurve curve(sh.cfg.pert);
    r = time_ns_per_op([&](std::int64_t i) {
      est.add_sample(rtt_sample(sh, i));
      const double p = curve.probability(est.queueing_delay());
      keep(p > 0 && rng.bernoulli(p));
    });
  }
  return r;
}

bool is_pert_family(const std::string& cc) {
  return cc.rfind("pert", 0) == 0;
}

/// Layers attributed as count x isolated ns/op, in table order. core runs
/// inside tcp (the isolated TCP micro-bench runs the cell's cc module), so
/// it is shown but not added to attrib.coverage.
enum Layer { kSim, kNode, kQdisc, kPool, kTcp, kCore, kLayers };
constexpr const char* kLayerName[kLayers] = {"sim",  "node", "qdisc",
                                             "pool", "tcp",  "core"};

struct LayerCost {
  std::array<double, kLayers> ns{};  ///< isolated ns/op per layer
  double cancel_ns = 0;              ///< scheduler schedule + cancel
};

LayerCost measure_layers(const CellRecord& c) {
  LayerCost l;
  l.ns[kSim] = sched_ns(c.pending);
  l.cancel_ns = cancel_ns(c.pending);
  l.ns[kNode] = node_ns(c.shape.nodes, c.forwarded, c.delivered);
  l.ns[kQdisc] = qdisc_ns(c.shape);
  l.ns[kPool] = pool_ns(c.pool_outstanding);
  l.ns[kTcp] = tcp_ack_ns(c.shape);
  l.ns[kCore] =
      is_pert_family(c.shape.cfg.scheme.cc) ? core_ns(c.shape) : 0.0;
  return l;
}

/// The counts each layer's ns/op multiplies: dispatched events, node hops,
/// bottleneck arrivals, pool acquires, long-term ACKs, and the ACKs that ran
/// the PERT estimator.
std::array<double, kLayers> layer_counts(const CellRecord& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {d(c.events),        d(c.node_hops), d(c.q_arrivals),
          d(c.pool_acquires), d(c.acks),
          is_pert_family(c.shape.cfg.scheme.cc) ? d(c.acks) : 0.0};
}

// ---------------------------------------------------------------------------
// Build stamp and result printing

bool optimized_build() {
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  JsonValue m{JsonValue::Object{}};
  for (const Metric& x : metrics) {
    JsonValue v{JsonValue::Object{}};
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  JsonValue out{JsonValue::Object{}};
  out.set("correct", correct);
  out.set("attempted", static_cast<std::uint64_t>(attempted));
  out.set("failed", static_cast<std::uint64_t>(failed));
  out.set("metrics", std::move(m));
  std::printf("%s\n", out.dump().c_str());
}

void print_metric_table(const std::vector<Metric>& metrics) {
  for (const Metric& x : metrics)
    std::printf("  %-24s %16.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
}

/// Reference digests for the default seed: {"<cell key>": "<hex>", ...}.
std::map<std::string, std::string> load_reference(const std::string& path) {
  std::map<std::string, std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = JsonValue::parse(ss.str());
  for (const auto& [k, v] : doc.at("cells").as_object())
    out[k] = v.as_string();
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string out_dir;
  std::string stamp = "unknown";
  bool self_test = false;
  bool list = false;
  bool write_reference = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--reference") o.reference = next();
    else if (a == "--out-dir") o.out_dir = next();
    else if (a == "--stamp") o.stamp = next();
    else if (a == "--self-test") o.self_test = true;
    else if (a == "--list") o.list = true;
    else if (a == "--write-reference") o.write_reference = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return o;
}

void print_stamp(const Options& o, const Workload& w) {
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# source: %s\n", o.stamp.c_str());
  std::printf("# build: type=%s compiler=%s flags=%s\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS);
  std::printf("# host: nproc=%u\n", std::thread::hardware_concurrency());
  std::printf("# cells (warmup %gs, measure %gs simulated, closed-loop TCP):\n",
              w.warmup, w.measure);
  for (const CellSpec& c : w.cells)
    std::printf("#   %s  (%g Mbps, %d long-term flows, %d web sessions)\n",
                c.key.c_str(), c.bps / 1e6, c.flows, c.web);
}

// ---------------------------------------------------------------------------
// The workload run

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::string> first_digest;
  std::map<std::string, std::string> reference;
  bool check_reference = false;

  double fail_ratio() const {
    return static_cast<double>(failed) /
           static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  }

  /// Records one grid repetition's outcome for every cell.
  void account(const Workload& w, const GridRun& g, const char* tag) {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const std::string& key = w.cells[i].key;
      const CellRecord& c = g.cells[i];
      ++attempted;
      std::string why;
      if (!g.ok[i]) why = "job failed: " + g.errors[i];
      else if (!c.problem.empty()) why = c.problem;
      else if (auto it = first_digest.find(key);
               it != first_digest.end() && it->second != c.digest)
        why = "digest " + c.digest + " differs from earlier repetition " +
              it->second;
      else if (check_reference) {
        auto ref = reference.find(key);
        if (ref == reference.end()) why = "no reference digest";
        else if (ref->second != c.digest)
          why = "digest " + c.digest + " != reference " + ref->second;
      }
      if (g.ok[i]) first_digest.emplace(key, c.digest);
      if (!why.empty()) {
        ++failed;
        std::printf("FAIL %s [%s]: %s\n", key.c_str(), tag, why.c_str());
      }
    }
  }
};

struct EngineWalls {
  double wall[3] = {0, 0, 0};  ///< sim_threads 0, 1, 4
  bool agree = true;           ///< sim_threads 1 and 4 give equal metrics
};

/// Measure-phase wall of the 1000-flow pert cell at sim_threads 0, 1, 4
/// (watchdog off on all three, as the parallel engine requires).
EngineWalls engine_walls(std::uint64_t seed) {
  const Workload e = all_workloads()[0];
  const CellSpec* cell = nullptr;
  for (const CellSpec& c : e.cells)
    if (c.scheme == "pert" && c.flows == 1000) cell = &c;
  EngineWalls out;
  exp::WindowMetrics ref;
  const int threads[3] = {0, 1, 4};
  for (int k = 0; k < 3; ++k) {
    exp::DumbbellConfig cfg =
        make_config(*cell, runner::derive_seed(seed, cell->key));
    cfg.watchdog.enabled = false;
    cfg.sim_threads = threads[k];
    exp::Dumbbell d(cfg);
    d.network().run_until(e.warmup);
    const auto t0 = Clock::now();
    const exp::WindowMetrics m = d.measure_window(e.warmup, e.measure);
    out.wall[k] = secs(t0, Clock::now());
    if (k == 1) ref = m;
    if (k == 2 && !(m == ref)) out.agree = false;
  }
  return out;
}

std::string out_path(const Options& o, const std::string& w,
                     const std::string& what) {
  return o.out_dir.empty() ? std::string() : o.out_dir + "/" + w + "." + what;
}

int run_workload(const Options& o) {
  const std::vector<Workload> ws = all_workloads();
  auto it = std::find_if(ws.begin(), ws.end(), [&](const Workload& w) {
    return w.name == o.workload;
  });
  if (it == ws.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const Workload& w = *it;
  print_stamp(o, w);
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimized or sanitizer "
                 "build (%s %s)\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }

  Tally tally;
  tally.reference = load_reference(o.reference);
  tally.check_reference = o.seed == kDefaultSeed && !o.write_reference;

  const auto origin = Clock::now();
  const auto deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(o.seconds));
  SpanLog spans(origin);
  std::vector<GridRun> plain, traced;
  // Untraced runs repeat the grid until the deadline. Traced runs alternate
  // untraced and traced repetitions over 60% of it (the untraced ones are
  // the base of trace.overhead), then time the isolated layer micro-benches.
  const auto grid_deadline =
      o.trace ? origin + (deadline - origin) * 6 / 10 : deadline;
  // A repetition starts only if one as long as the last still fits.
  int rep = 0;
  double last = 0;
  do {
    const bool t = o.trace && rep % 2 == 1;
    GridRun g = run_grid(w, o.seed, t, out_path(o, w.name, "report.json"));
    tally.account(w, g, t ? "traced" : "untraced");
    std::printf("rep %d%s: grid %.3f s\n", rep, t ? " (traced)" : "",
                g.wall_s());
    last = g.wall_s();
    (t ? traced : plain).push_back(std::move(g));
    ++rep;
  } while (secs(Clock::now(), grid_deadline) > last ||
           (o.trace && traced.empty()));

  if (o.write_reference && o.seed == kDefaultSeed) {
    for (const auto& [k, v] : tally.first_digest)
      std::printf("reference %s %s\n", k.c_str(), v.c_str());
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    // This host's speed switches between modes every few tens of seconds,
    // so walls are averaged over the run's repetitions (steadier from run
    // to run than their median); set-up takes the median of its repeats.
    double grid = 0, tx = 0, meas = 0;
    std::vector<double> setup;
    for (const GridRun& g : plain) {
      double su = 0;
      for (const CellRecord& c : g.cells) {
        su += c.setup_s();
        meas += c.measure_s();
        tx += static_cast<double>(c.link_tx);
      }
      grid += g.wall_s();
      setup.push_back(su);
    }
    metrics = {{"sim_pkts_per_s", meas > 0 ? tx / meas : 0.0, "pkts/s"},
               {"grid_wall_s", grid / static_cast<double>(plain.size()), "s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    std::printf("end-to-end (%zu repetitions):\n", plain.size());
    print_metric_table(metrics);
    std::printf("  %-24s %16.6g %s\n", "fail_ratio", tally.fail_ratio(),
                "ratio");
    print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return tally.failed == 0 ? 0 : 1;
  }

  // ---- traced: per-layer attribution ----
  for (std::size_t r = 0; r < traced.size(); ++r) {
    const GridRun& g = traced[r];
    const int rep_id = static_cast<int>(r);
    const int run = spans.add("runner.run", "", rep_id, -1, g.t_begin, g.t_run);
    spans.add("runner.report", "", rep_id, -1, g.t_run, g.t_report);
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
      const CellRecord& c = g.cells[i];
      const std::string& key = w.cells[i].key;
      const int cell =
          spans.add("runner.cell", key, rep_id, run, c.t_begin, c.t_end);
      spans.add("exp.setup", key, rep_id, cell, c.t_begin, c.t_setup);
      spans.add("sim.warmup", key, rep_id, cell, c.t_setup, c.t_warm);
      spans.add("sim.measure", key, rep_id, cell, c.t_warm, c.t_measure);
      spans.add("exp.collect", key, rep_id, cell, c.t_measure, c.t_end);
    }
  }

  const EngineWalls eng = engine_walls(o.seed);
  ++tally.attempted;
  if (!eng.agree) {
    ++tally.failed;
    std::printf("FAIL engine: sim_threads 1 and 4 disagree\n");
  }

  // Counts repeat exactly across repetitions (the digest check enforces
  // it), so they come from the first traced one; walls are medians.
  const std::vector<CellRecord>& cells = traced.front().cells;
  auto wall = [&](std::size_t i, double (CellRecord::*f)() const) {
    std::vector<double> v;
    for (const GridRun& g : traced) v.push_back((g.cells[i].*f)());
    return median(v);
  };
  auto total = [&](std::uint64_t CellRecord::*f) {
    double sum = 0;
    for (const CellRecord& c : cells) sum += static_cast<double>(c.*f);
    return sum;
  };
  std::array<double, kLayers> count{}, busy{};  // busy = count x ns/op, s
  double measure = 0, setup = 0, warm = 0, collect = 0, cancel = 0,
         pending = 0;
  std::printf("\nattribution per cell (count x isolated ns/op vs measured "
              "sim.measure wall):\n");
  std::printf("  %-36s %-6s %12s %9s %9s %7s\n", "cell", "layer", "count",
              "ns/op", "sum s", "share");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LayerCost cost = measure_layers(cells[i]);
    const std::array<double, kLayers> n = layer_counts(cells[i]);
    const double mw = wall(i, &CellRecord::measure_s);
    for (int l = 0; l < kLayers; ++l) {
      const double b = n[l] * cost.ns[l] * 1e-9;
      std::printf("  %-36s %-6s %12.0f %9.1f %9.4f %7.3f\n",
                  w.cells[i].key.c_str(), kLayerName[l], n[l], cost.ns[l], b,
                  b / mw);
      count[l] += n[l];
      busy[l] += b;
    }
    cancel += n[kSim] * cost.cancel_ns;
    measure += mw;
    setup += wall(i, &CellRecord::setup_s);
    warm += wall(i, &CellRecord::warmup_s);
    collect += wall(i, &CellRecord::collect_s);
    pending = std::max(pending, static_cast<double>(cells[i].pending));
  }
  const auto ns_per = [&](int l) {
    return count[l] > 0 ? busy[l] * 1e9 / count[l] : 0.0;
  };
  const auto share = [&](int l) { return busy[l] / measure; };
  double coverage = 0;
  for (int l = 0; l < kCore; ++l) coverage += share(l);

  std::vector<double> plain_grid, traced_grid, overhead, report;
  for (const GridRun& g : plain) plain_grid.push_back(g.wall_s());
  for (const GridRun& g : traced) {
    traced_grid.push_back(g.wall_s());
    double cs = 0;
    for (const CellRecord& c : g.cells) cs += c.cell_s();
    overhead.push_back(g.wall_s() - cs);
    report.push_back(g.report_s());
  }
  const double tx = total(&CellRecord::link_tx);
  const double events = count[kSim];

  metrics = {
      {"sim.events", events, "count"},
      {"sim.events_per_pkt", tx > 0 ? events / tx : 0.0, "ratio"},
      {"sim.ns_per_event", events > 0 ? measure * 1e9 / events : 0.0, "ns"},
      {"sim.pending", pending, "count"},
      {"sim.sched_ns", ns_per(kSim), "ns"},
      {"sim.cancel_ns", events > 0 ? cancel / events : 0.0, "ns"},
      {"sim.share", share(kSim), "ratio"},
      {"sim.warmup_s", warm, "s"},
      {"sim.measure_s", measure, "s"},
      {"engine.wall_0t_s", eng.wall[0], "s"},
      {"engine.wall_1t_s", eng.wall[1], "s"},
      {"engine.wall_4t_s", eng.wall[2], "s"},
      {"engine.speedup_4t", eng.wall[2] > 0 ? eng.wall[0] / eng.wall[2] : 0.0,
       "ratio"},
      {"net.link_tx", tx, "count"},
      {"net.node_hops", count[kNode], "count"},
      {"net.node_ns", ns_per(kNode), "ns"},
      {"net.node.share", share(kNode), "ratio"},
      {"net.qdisc_arrivals", count[kQdisc], "count"},
      {"net.qdisc_drops", total(&CellRecord::q_drops), "count"},
      {"net.qdisc_marks", total(&CellRecord::q_marks), "count"},
      {"net.qdisc_ns", ns_per(kQdisc), "ns"},
      {"net.qdisc.share", share(kQdisc), "ratio"},
      {"net.pool_acquires", count[kPool], "count"},
      {"net.pool_allocations", total(&CellRecord::pool_allocations), "count"},
      {"net.pool_outstanding", total(&CellRecord::pool_outstanding), "count"},
      {"net.pool_ns", ns_per(kPool), "ns"},
      {"net.pool.share", share(kPool), "ratio"},
      {"tcp.acks", count[kTcp], "count"},
      {"tcp.rexmits", total(&CellRecord::rexmits), "count"},
      {"tcp.timeouts", total(&CellRecord::timeouts), "count"},
      {"tcp.loss_events", total(&CellRecord::loss_events), "count"},
      {"tcp.ack_ns", ns_per(kTcp), "ns"},
      {"tcp.ack.share", share(kTcp), "ratio"},
      {"core.early_responses", total(&CellRecord::early), "count"},
      {"core.response_ns", ns_per(kCore), "ns"},
      {"core.response.share", share(kCore), "ratio"},
      {"traffic.web_pkts", total(&CellRecord::web_pkts), "count"},
      {"exp.setup_s", setup, "s"},
      {"exp.collect_s", collect, "s"},
      {"runner.overhead_s", median(overhead), "s"},
      {"runner.report_s", median(report), "s"},
      {"attrib.coverage", coverage, "ratio"},
      {"trace.overhead", median(traced_grid) / median(plain_grid) - 1.0,
       "ratio"},
      {"fail_ratio", tally.fail_ratio(), "ratio"},
  };

  std::printf("\nattribution for %s (sum over cells; sim.measure wall %.4f "
              "s):\n",
              w.name.c_str(), measure);
  std::printf("  %-6s %12s %9s %9s %7s\n", "layer", "count", "ns/op", "sum s",
              "share");
  for (int l = 0; l < kLayers; ++l)
    std::printf("  %-6s %12.0f %9.1f %9.4f %7.3f\n", kLayerName[l], count[l],
                ns_per(l), busy[l], share(l));
  std::printf("  attrib.coverage %.3f (sim+node+qdisc+pool+tcp; core runs "
              "inside tcp; the gap to 1 is the next thing to profile)\n",
              coverage);
  std::printf("\nper-layer metrics:\n");
  print_metric_table(metrics);

  if (!o.out_dir.empty()) {
    JsonValue doc{JsonValue::Object{}};
    doc.set("workload", w.name);
    doc.set("seed", static_cast<std::uint64_t>(o.seed));
    doc.set("source", o.stamp);
    doc.set("build", std::string(PERFBENCH_BUILD_TYPE) + " " +
                         PERFBENCH_COMPILER + " " + PERFBENCH_CXX_FLAGS);
    doc.set("spans", spans.to_json());
    std::ofstream f(out_path(o, w.name, "spans.json"));
    f << doc.dump(1) << "\n";
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-tests

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  exp::ensure_scheme_modules();

  // 1. On a tiny cell, the traced and untraced runs give the same digest.
  Workload tiny{"tiny", 1.0, 1.0, {}};
  add_cell(tiny, "pert", 10, 0, 10e6);
  add_cell(tiny, "sack-red", 10, 0, 10e6);
  add_cell(tiny, "pert", 5, 20, 10e6);
  const GridRun a = run_grid(tiny, 3, false, "");
  const GridRun b = run_grid(tiny, 3, true, "");
  for (std::size_t i = 0; i < tiny.cells.size(); ++i) {
    expect(a.ok[i] && b.ok[i], tiny.cells[i].key + " runs");
    expect(a.cells[i].digest == b.cells[i].digest,
           tiny.cells[i].key + " traced digest == untraced digest");
  }

  // 2. Each isolated micro-bench builds the same discipline and cc module as
  //    the cell it stands in for.
  for (const Workload& w : all_workloads()) {
    for (const CellSpec& c : w.cells) {
      const exp::DumbbellConfig cfg = make_config(c, 1);
      exp::Dumbbell d(cfg);
      sim::Scheduler sched;
      sim::Rng rng(1);
      auto q = make_isolated_queue(d.config(), d.buffer_pkts(), sched, rng);
      const net::Queue& cq = d.fwd_queue();
      expect(typeid(*q) == typeid(cq) &&
                 q->capacity_pkts() == cq.capacity_pkts(),
             c.key + " qdisc micro-bench builds " + typeid(cq).name());
      tcp::FlowArena arena(1);
      net::Network net(1);
      tcp::TcpSender* s = make_isolated_sender(d.config(), net, &arena);
      const tcp::TcpSender& cs = d.fwd_sender(0);
      const tcp::CongestionOps& x = s->cc_ops();
      const tcp::CongestionOps& y = cs.cc_ops();
      expect(typeid(*s) == typeid(cs) && x.on_ack == y.on_ack &&
                 x.on_rtt_sample == y.on_rtt_sample &&
                 x.ack_event == y.ack_event && x.on_ecn == y.on_ecn &&
                 x.init == y.init &&
                 s->config().ecn == cs.config().ecn,
             c.key + " tcp micro-bench builds the cell's cc module");
    }
  }
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    if (o.self_test) return self_test();
    if (o.list) {
      for (const Workload& w : all_workloads()) {
        std::printf("workload %s\n", w.name.c_str());
        for (const CellSpec& c : w.cells)
          std::printf("  cell %s\n", c.key.c_str());
      }
      return 0;
    }
    return run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
