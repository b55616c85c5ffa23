#include "net/impairment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/fault_queue.h"
#include "net/network.h"
#include "net/node.h"
#include "sim/random.h"
#include "sim/scheduler.h"

namespace pert::net {
namespace {

PacketPtr mk(std::uint64_t uid, std::int32_t bytes = 1000) {
  auto p = make_packet();
  p->uid = uid;
  p->size_bytes = bytes;
  return p;
}

/// Which of `n` offered packets (uids 0..n-1) the queue drops.
std::vector<std::uint64_t> drop_trace(const ImpairmentConfig& cfg,
                                      std::uint64_t seed, std::uint64_t n) {
  sim::Scheduler s;
  ImpairmentQueue q(s, std::make_unique<DropTailQueue>(s, 1 << 20), cfg,
                    sim::Rng(seed));
  std::vector<std::uint64_t> dropped;
  q.on_drop = [&](const Packet& p, sim::Time) { dropped.push_back(p.uid); };
  for (std::uint64_t i = 0; i < n; ++i) q.enqueue(mk(i));
  return dropped;
}

TEST(Impairment, BernoulliLossRateAndAccounting) {
  ImpairmentConfig cfg;
  cfg.loss.p = 0.25;
  sim::Scheduler s;
  ImpairmentQueue q(s, std::make_unique<DropTailQueue>(s, 1 << 20), cfg,
                    sim::Rng(7));
  const std::uint64_t n = 8000;
  for (std::uint64_t i = 0; i < n; ++i) q.enqueue(mk(i));

  const Queue::Stats st = q.snapshot();
  EXPECT_EQ(st.arrivals, n);
  EXPECT_EQ(st.drops, st.injected_drops);
  EXPECT_EQ(st.forced_drops, 0u);
  EXPECT_EQ(st.early_drops, 0u);
  EXPECT_EQ(q.injected(), st.injected_drops);
  // ~2000 expected; 5 sigma ~ 194.
  EXPECT_NEAR(static_cast<double>(st.drops), 2000.0, 200.0);
  EXPECT_EQ(st.arrivals, st.departures + st.drops +
                             static_cast<std::uint64_t>(q.len_pkts()));
  EXPECT_EQ(q.conservation_violation(), "");
}

TEST(Impairment, GilbertElliottTraceIsSeedReproducible) {
  ImpairmentConfig cfg;
  cfg.gilbert.p_enter_bad = 0.02;
  cfg.gilbert.p_exit_bad = 0.2;
  const auto a = drop_trace(cfg, 42, 5000);
  const auto b = drop_trace(cfg, 42, 5000);
  const auto c = drop_trace(cfg, 43, 5000);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical trace for identical seed
  EXPECT_NE(a, c);  // different seed, different trace
}

TEST(Impairment, GilbertElliottLossIsBursty) {
  // Stationary bad-state probability enter/(enter+exit) = 1/11; with
  // loss_bad=1 the loss rate matches it and drops arrive in runs whose mean
  // length ~ 1/exit = 5 (i.i.d. loss at the same rate would give ~1.1).
  ImpairmentConfig cfg;
  cfg.gilbert.p_enter_bad = 0.02;
  cfg.gilbert.p_exit_bad = 0.2;
  const std::uint64_t n = 50000;
  const auto dropped = drop_trace(cfg, 3, n);
  const double rate = static_cast<double>(dropped.size()) / n;
  EXPECT_NEAR(rate, 1.0 / 11.0, 0.02);

  std::uint64_t runs = 1;
  for (std::size_t i = 1; i < dropped.size(); ++i)
    if (dropped[i] != dropped[i - 1] + 1) ++runs;
  const double mean_run =
      static_cast<double>(dropped.size()) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 2.5);
}

TEST(Impairment, BitErrorDropsGrowWithPacketSize) {
  ImpairmentConfig cfg;
  cfg.bit_error.ber = 2e-5;  // 1500B: p~0.21; 100B: p~0.016
  auto count = [&cfg](std::int32_t bytes) {
    sim::Scheduler s;
    ImpairmentQueue q(s, std::make_unique<DropTailQueue>(s, 1 << 20), cfg,
                      sim::Rng(11));
    for (std::uint64_t i = 0; i < 4000; ++i) q.enqueue(mk(i, bytes));
    return q.snapshot().injected_drops;
  };
  const std::uint64_t small = count(100);
  const std::uint64_t big = count(1500);
  EXPECT_GT(small, 0u);
  EXPECT_GT(big, 5 * small);  // expected ratio ~13x
}

TEST(Impairment, ReorderConservesEveryPacket) {
  ImpairmentConfig cfg;
  cfg.reorder.p = 0.5;
  cfg.reorder.min_delay = 0.001;
  cfg.reorder.max_delay = 0.005;
  sim::Scheduler s;
  ImpairmentQueue q(s, std::make_unique<DropTailQueue>(s, 1 << 20), cfg,
                    sim::Rng(5));

  const std::uint64_t n = 400;
  for (std::uint64_t i = 0; i < n; ++i) {
    s.schedule_at(1e-4 * static_cast<double>(i),
                  [&q, i] { q.enqueue(mk(i)); });
  }
  // Mid-run: held packets are still "resident" for conservation purposes.
  s.run_until(0.02);
  EXPECT_EQ(q.conservation_violation(), "");
  s.run_until(1.0);  // all releases fired

  EXPECT_EQ(q.held(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(q.len_pkts()), n);  // nothing lost
  std::multiset<std::uint64_t> out;
  bool reordered = false;
  std::uint64_t prev = 0;
  bool first = true;
  while (PacketPtr p = q.dequeue()) {
    if (!first && p->uid < prev) reordered = true;
    prev = p->uid;
    first = false;
    out.insert(p->uid);
  }
  EXPECT_EQ(out.size(), n);  // no duplicates (multiset size == unique count
  std::multiset<std::uint64_t> expect;
  for (std::uint64_t i = 0; i < n; ++i) expect.insert(i);
  EXPECT_EQ(out, expect);
  EXPECT_TRUE(reordered);  // p=0.5 over 400 packets: certain
  const Queue::Stats st = q.snapshot();
  EXPECT_EQ(st.arrivals, n);
  EXPECT_EQ(st.departures, n);
  EXPECT_EQ(st.drops, 0u);
  EXPECT_EQ(q.conservation_violation(), "");
}

TEST(Impairment, JitterHoldsThenDeliversEverything) {
  ImpairmentConfig cfg;
  cfg.jitter.max_delay = 0.005;
  sim::Scheduler s;
  ImpairmentQueue q(s, std::make_unique<DropTailQueue>(s, 1 << 20), cfg,
                    sim::Rng(9));
  std::uint64_t ready_kicks = 0;
  q.on_ready = [&ready_kicks] { ++ready_kicks; };
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(mk(i));
  EXPECT_GT(q.held(), 0u);  // essentially all packets held at t=0
  s.run_until(0.01);
  EXPECT_EQ(q.held(), 0u);
  EXPECT_EQ(q.len_pkts(), 100);
  EXPECT_GT(ready_kicks, 0u);
  EXPECT_EQ(q.conservation_violation(), "");
}

TEST(Impairment, InjectedAndOverflowDropsStaySeparate) {
  ImpairmentConfig cfg;
  cfg.loss.p = 0.3;
  sim::Scheduler s;
  ImpairmentQueue q(s, std::make_unique<DropTailQueue>(s, 5), cfg,
                    sim::Rng(13));
  for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(mk(i));
  const Queue::Stats st = q.snapshot();
  EXPECT_EQ(st.arrivals, 200u);
  EXPECT_GT(st.injected_drops, 0u);
  EXPECT_GT(st.forced_drops, 0u);  // survivors overflow the 5-packet buffer
  EXPECT_EQ(st.early_drops, 0u);
  EXPECT_EQ(st.drops, st.injected_drops + st.forced_drops);
  EXPECT_EQ(q.len_pkts(), 5);
  EXPECT_EQ(q.conservation_violation(), "");
}

/// A discipline whose own state can rot: its numeric sentinel then reports
/// a fault that the base Queue check cannot see.
class RottingQueue final : public Queue {
 public:
  using Queue::Queue;
  void enqueue(PacketPtr p) override {
    count_arrival();
    push(std::move(p));
  }
  std::string numeric_violation() const override {
    if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
    return rotted ? "rotting.avg is nan" : "";
  }
  bool rotted = false;
};

TEST(WrapperQueue, NumericSentinelReachesTheWrappedDiscipline) {
  ImpairmentConfig cfg;
  cfg.loss.p = 0.2;
  sim::Scheduler s;
  auto inner_i = std::make_unique<RottingQueue>(s, 100);
  auto inner_f = std::make_unique<RottingQueue>(s, 100);
  RottingQueue& rot_i = *inner_i;
  RottingQueue& rot_f = *inner_f;
  ImpairmentQueue imp(s, std::move(inner_i), cfg, sim::Rng(3));
  FaultInjectionQueue fault(s, std::move(inner_f),
                            [](const Packet& p) { return p.uid % 4 == 0; });
  for (std::uint64_t i = 0; i < 40; ++i) {
    imp.enqueue(mk(i));
    fault.enqueue(mk(i));
  }
  EXPECT_EQ(imp.numeric_violation(), "");
  EXPECT_EQ(fault.numeric_violation(), "");

  rot_i.rotted = true;
  EXPECT_EQ(imp.numeric_violation(), "rotting.avg is nan");
  EXPECT_EQ(fault.numeric_violation(), "");
  rot_f.rotted = true;
  EXPECT_EQ(fault.numeric_violation(), "rotting.avg is nan");
}

TEST(Impairment, LinkFlapPausesAndResumesDelivery) {
  // 1 Mbps, zero propagation: one 1250-byte packet serializes in 10 ms.
  // 20 packets offered at t=0; outage [0.05, 0.15) after 5 deliveries.
  Network net;
  Node* a = net.add_node();
  Node* b = net.add_node();
  Link* l = net.add_link(a, b, 1e6, 0.0,
                         std::make_unique<DropTailQueue>(net.sched(), 100));
  net.compute_routes();

  struct Capture final : public Agent {
    explicit Capture(sim::Scheduler& s) : sched(&s) {}
    void receive(PacketPtr) override { times.push_back(sched->now()); }
    sim::Scheduler* sched;
    std::vector<sim::Time> times;
  };
  auto* cap = net.add_agent<Capture>(b, 1, net.sched());

  ImpairmentConfig::Flap flap;
  flap.first_down = 0.05;
  flap.down_for = 0.10;
  schedule_link_flaps(net.sched(), *l, flap);

  for (std::uint64_t i = 0; i < 20; ++i) {
    auto p = net.make_packet();
    p->dst = b->id();
    p->dst_port = 1;
    p->size_bytes = 1250;
    a->send(std::move(p));
  }
  net.run_until(1.0);

  ASSERT_EQ(cap->times.size(), 20u);  // outage retains, never loses, packets
  for (sim::Time t : cap->times)
    EXPECT_FALSE(t > 0.0501 && t < 0.1599) << "delivery during outage at " << t;
  // Queue drained after the up edge: last delivery = 0.15 + 15 * 10ms.
  EXPECT_NEAR(cap->times.back(), 0.30, 1e-9);

  const Link::Stats st = l->snapshot();
  EXPECT_EQ(st.outages, 1u);
  EXPECT_NEAR(st.down_integral, 0.10, 1e-9);
  EXPECT_FALSE(l->down());
  EXPECT_EQ(l->queue().conservation_violation(), "");
}

TEST(Impairment, RepeatedFlapsCountOutages) {
  Network net;
  Node* a = net.add_node();
  Node* b = net.add_node();
  Link* l = net.add_link(a, b, 1e9, 0.0,
                         std::make_unique<DropTailQueue>(net.sched(), 10));
  net.compute_routes();

  ImpairmentConfig::Flap flap;
  flap.first_down = 0.1;
  flap.down_for = 0.05;
  flap.period = 0.2;
  flap.count = 3;
  schedule_link_flaps(net.sched(), *l, flap);
  net.run_until(1.0);

  const Link::Stats st = l->snapshot();
  EXPECT_EQ(st.outages, 3u);
  EXPECT_NEAR(st.down_integral, 0.15, 1e-9);
  EXPECT_FALSE(l->down());
}

TEST(Impairment, CleanConfigNeedsNoWrapper) {
  const ImpairmentConfig cfg;
  EXPECT_FALSE(cfg.any());
  EXPECT_FALSE(cfg.any_queue_impairment());
  EXPECT_FALSE(cfg.flaps_link());
  ImpairmentConfig loss;
  loss.loss.p = 0.1;
  EXPECT_TRUE(loss.any_queue_impairment());
  EXPECT_TRUE(loss.drops_packets());
  EXPECT_FALSE(loss.delays_packets());
}

}  // namespace
}  // namespace pert::net
