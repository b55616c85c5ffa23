// Micro-benchmarks (google-benchmark): scheduler throughput, queue
// disciplines, RNG, TCP ACK-path, and a small end-to-end simulation.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/response_curve.h"
#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "net/network.h"
#include "net/pi_queue.h"
#include "net/red_queue.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"

namespace {

using namespace pert;

/// One schedule + (amortized) one dispatch per iteration, so the reported
/// ns/op is per *event*. An earlier version scheduled and drained 64 events
/// inside each iteration, silently reporting ns per 64-event block — any
/// scheduler regression under ~64x was invisible in the committed baseline.
void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  sim::Scheduler s;
  std::uint64_t n = 0;
  int i = 0;
  for (auto _ : state) {
    s.schedule_in(static_cast<double>(i % 7) * 1e-6, [&n] { ++n; });
    if (++i % 64 == 0) s.run();
  }
  s.run();
  benchmark::DoNotOptimize(n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerScheduleDispatch);

/// Same per-event accounting, but every group of 64 events shares one
/// timestamp: the same-time case (PERT/PI and PERT/REM sampling ticks fall
/// in lockstep), dispatched one event at a time like every other.
void BM_SchedulerBatchDispatch(benchmark::State& state) {
  sim::Scheduler s;
  std::uint64_t n = 0;
  int i = 0;
  for (auto _ : state) {
    s.schedule_at(s.now() + 1e-6, [&n] { ++n; });
    if (++i % 64 == 0) s.run_until(s.now() + 1e-6);
  }
  s.run();
  benchmark::DoNotOptimize(n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerBatchDispatch);

/// Hold model at a fixed heap depth (the `sched_ns` perfbench times at each
/// cell's depth): the heap starts with range(0) events at uniform times in
/// [0, 1); each iteration schedules one event at now() plus a uniform draw
/// in [0, 1) and dispatches the earliest, so the depth stays constant.
void BM_SchedulerHold(benchmark::State& state) {
  sim::Scheduler s;
  sim::Rng rng(7);
  std::vector<double> draws(4096);
  for (double& d : draws) d = rng.uniform(0.0, 1.0);
  std::uint64_t n = 0;
  for (std::int64_t k = 0; k < state.range(0); ++k)
    s.schedule_at(draws[static_cast<std::size_t>(k) & 4095], [&n] { ++n; });
  std::size_t i = 0;
  for (auto _ : state) {
    s.schedule_at(s.now() + draws[i++ & 4095], [&n] { ++n; });
    s.run_next();
  }
  benchmark::DoNotOptimize(n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerHold)->Arg(64)->Arg(4096);

void BM_SchedulerCancel(benchmark::State& state) {
  sim::Scheduler s;
  for (auto _ : state) {
    auto id = s.schedule_in(1.0, [] {});
    s.cancel(id);
  }
}
BENCHMARK(BM_SchedulerCancel);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  sim::Scheduler s;
  net::DropTailQueue q(s, 1024);
  for (auto _ : state) {
    auto p = net::make_packet();
    p->size_bytes = 1040;
    q.enqueue(std::move(p));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_RedEnqueueDequeue(benchmark::State& state) {
  sim::Scheduler s;
  net::RedParams rp;
  rp.min_th = 200;
  rp.max_th = 600;
  rp.adaptive = false;
  net::RedQueue q(s, 1024, rp);
  for (auto _ : state) {
    auto p = net::make_packet();
    p->size_bytes = 1040;
    q.enqueue(std::move(p));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedEnqueueDequeue);

void BM_PiEnqueueDequeue(benchmark::State& state) {
  sim::Scheduler s;
  net::PiQueue q(s, 1024, net::PiDesign{});
  for (auto _ : state) {
    auto p = net::make_packet();
    p->size_bytes = 1040;
    p->ecn = net::Ecn::Ect0;
    q.enqueue(std::move(p));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiEnqueueDequeue);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng r(1);
  double acc = 0;
  for (auto _ : state) acc += r.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_RngBoundedPareto(benchmark::State& state) {
  sim::Rng r(1);
  double acc = 0;
  for (auto _ : state) acc += r.bounded_pareto(1.2, 2000, 5e6);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngBoundedPareto);

void BM_ResponseCurve(benchmark::State& state) {
  core::ResponseCurve c{core::PertParams{}};
  double tq = 0, acc = 0;
  for (auto _ : state) {
    acc += c.probability(tq);
    tq += 1e-6;
    if (tq > 0.025) tq = 0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ResponseCurve);

/// Forwarding micro: batch of packets through node -> link -> node delivery.
/// Exercises the full per-hop path (route lookup, queue, serialization event,
/// propagation event, receive) without TCP on top.
void BM_LinkForward(benchmark::State& state) {
  net::Network net(1);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 1e9, 1e-4,
               std::make_unique<net::DropTailQueue>(net.sched(), 1024));
  net.compute_routes();
  struct CountSink final : net::Agent {
    std::uint64_t n = 0;
    void receive(net::PacketPtr) override { ++n; }
  };
  auto* sink = net.add_agent<CountSink>(b, 1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      auto p = net.make_packet();
      p->dst = b->id();
      p->dst_port = 1;
      a->send(std::move(p));
    }
    net.sched().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sink->n));
  state.counters["pkts/s"] = benchmark::Counter(
      static_cast<double>(sink->n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinkForward);

/// End-to-end: a loaded 10 Mbps dumbbell (8 TCP flows over a shared
/// bottleneck) advanced one simulated second per iteration. Reports both
/// packets/sec (bottleneck departures per wall second) and events/sec.
void BM_EndToEndDumbbell(benchmark::State& state) {
  net::Network net(1);
  auto* lhs = net.add_node();
  auto* r1 = net.add_node();
  auto* r2 = net.add_node();
  auto* rhs = net.add_node();
  net.add_duplex_droptail(lhs, r1, 100e6, 0.002, 1000);
  auto [fwd, rev] = net.add_duplex_droptail(r1, r2, 10e6, 0.02, 100);
  net.add_duplex_droptail(r2, rhs, 100e6, 0.002, 1000);
  net.compute_routes();
  tcp::TcpConfig cfg;
  for (int i = 0; i < 8; ++i) {
    net.add_agent<tcp::TcpSink>(rhs, 10 + i, net);
    auto* s = net.add_agent<tcp::TcpSender>(lhs, 10 + i, net, cfg, i);
    s->connect(rhs->id(), 10 + i);
    s->start(0.0);
  }
  double t = 1.0;
  for (auto _ : state) {
    net.run_until(t);
    t += 1.0;
  }
  const auto stats = fwd->snapshot();
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.pkts_tx));
  state.counters["pkts/s"] = benchmark::Counter(
      static_cast<double>(stats.pkts_tx), benchmark::Counter::kIsRate);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(net.sched().dispatched()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndDumbbell);

/// End-to-end: one second of simulated time on a loaded 10 Mbps dumbbell.
void BM_EndToEndSimSecond(benchmark::State& state) {
  net::Network net(1);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 10e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 100));
  net.add_link(b, a, 10e6, 0.02,
               std::make_unique<net::DropTailQueue>(net.sched(), 1000));
  net.compute_routes();
  tcp::TcpConfig cfg;
  for (int i = 0; i < 4; ++i) {
    net.add_agent<tcp::TcpSink>(b, 10 + i, net);
    auto* s = net.add_agent<tcp::TcpSender>(a, 10 + i, net, cfg, i);
    s->connect(b->id(), 10 + i);
    s->start(0.0);
  }
  double t = 1.0;
  for (auto _ : state) {
    net.run_until(t);
    t += 1.0;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(net.sched().dispatched()));
}
BENCHMARK(BM_EndToEndSimSecond);

/// Paper-scale dumbbell (PERT, 150 Mbps): one simulated second per
/// iteration. The benchmark argument is sim_threads: 0 = one shard, run
/// without the engine, >= 1 = the sharded parallel engine with that many
/// workers (1 is the determinism oracle; speedup needs real cores). The
/// watchdog is off in all variants so one shard and many simulate the same
/// event population. Wall-clock (UseRealTime) is the honest metric when
/// worker threads are doing the simulating.
void end_to_end_dumbbell(benchmark::State& state, std::int32_t flows) {
  exp::DumbbellConfig c;
  c.scheme = exp::parse_scheme_spec("pert");
  c.bottleneck_bps = 150e6;
  c.rtt = 0.060;
  c.num_fwd_flows = flows;
  c.start_window = 2.0;
  c.watchdog.enabled = false;
  c.sim_threads = static_cast<std::int32_t>(state.range(0));
  exp::Dumbbell d(c);
  d.network().run_until(3.0);  // starts + slow start outside the timed loop
  double t = 3.0;
  const std::int64_t before =
      static_cast<std::int64_t>(d.network().total_dispatched());
  for (auto _ : state) {
    t += 1.0;
    d.network().run_until(t);
  }
  const std::int64_t events =
      static_cast<std::int64_t>(d.network().total_dispatched()) - before;
  state.SetItemsProcessed(events);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_EndToEndDumbbell100Flows(benchmark::State& state) {
  end_to_end_dumbbell(state, 100);
}
BENCHMARK(BM_EndToEndDumbbell100Flows)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndDumbbell1000Flows(benchmark::State& state) {
  end_to_end_dumbbell(state, 1000);
}
BENCHMARK(BM_EndToEndDumbbell1000Flows)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Set-up cost: build and tear down the paper-scale pert dumbbell above
/// (topology, routes, agents, watchdog) and simulate no time. The argument
/// is the number of long-term flows; each adds two hosts.
void BM_DumbbellSetup(benchmark::State& state) {
  exp::DumbbellConfig c;
  c.scheme = exp::parse_scheme_spec("pert");
  c.bottleneck_bps = 150e6;
  c.rtt = 0.060;
  c.num_fwd_flows = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    exp::Dumbbell d(c);
    benchmark::DoNotOptimize(d.network().num_nodes());
  }
}
BENCHMARK(BM_DumbbellSetup)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

/// Paper-scale Figure 10/11 chain (6 routers, 20 hosts per cloud): one
/// simulated second per iteration; argument = sim_threads as above (the
/// sharded layout is one shard per router cloud).
void BM_EndToEndMultiBottleneck(benchmark::State& state) {
  exp::MultiBottleneckConfig c;
  c.scheme = exp::parse_scheme_spec("pert");
  c.start_window = 2.0;
  c.watchdog.enabled = false;
  c.sim_threads = static_cast<std::int32_t>(state.range(0));
  exp::MultiBottleneck m(c);
  m.network().run_until(3.0);
  double t = 3.0;
  const std::int64_t before =
      static_cast<std::int64_t>(m.network().total_dispatched());
  for (auto _ : state) {
    t += 1.0;
    m.network().run_until(t);
  }
  const std::int64_t events =
      static_cast<std::int64_t>(m.network().total_dispatched()) - before;
  state.SetItemsProcessed(events);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndMultiBottleneck)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
